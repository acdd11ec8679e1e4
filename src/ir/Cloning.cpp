//===- Cloning.cpp --------------------------------------------------===//

#include "ir/Cloning.h"

#include "ir/Block.h"
#include "ir/Region.h"

using namespace irdl;

void irdl::cloneRegionInto(Region &From, Region &To, IRMapping &Mapper) {
  // First create all blocks and their arguments so forward references
  // (successors, cross-block value uses) resolve.
  for (Block &B : From) {
    std::vector<Type> ArgTypes(B.getArgumentTypes().begin(),
                               B.getArgumentTypes().end());
    Block *NewBlock = Block::create(*To.getContext(), ArgTypes);
    To.push_back(NewBlock);
    Mapper.map(&B, NewBlock);
    for (unsigned I = 0, E = B.getNumArguments(); I != E; ++I)
      Mapper.map(B.getArgument(I), NewBlock->getArgument(I));
  }
  // Then clone the operations.
  for (Block &B : From) {
    Block *NewBlock = Mapper.lookupOrDefault(&B);
    for (Operation &Op : B)
      NewBlock->push_back(cloneOp(&Op, Mapper));
  }
}

Operation *irdl::cloneOp(Operation *Op, IRMapping &Mapper) {
  OperationState State(*Op->getContext(), Op->getName(), Op->getLoc());
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I)
    State.Operands.push_back(Mapper.lookupOrDefault(Op->getOperand(I)));
  for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
    State.ResultTypes.push_back(Op->getResult(I).getType());
  State.Attributes = Op->getAttrs();
  for (unsigned I = 0, E = Op->getNumSuccessors(); I != E; ++I)
    State.Successors.push_back(
        Mapper.lookupOrDefault(Op->getSuccessor(I)));
  for (unsigned I = 0, E = Op->getNumRegions(); I != E; ++I) {
    Region *NewRegion = State.addRegion();
    cloneRegionInto(Op->getRegion(I), *NewRegion, Mapper);
  }

  Operation *Clone = Operation::create(State);
  for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
    Mapper.map(Op->getResult(I), Clone->getResult(I));
  return Clone;
}

Operation *irdl::cloneOp(Operation *Op) {
  IRMapping Mapper;
  return cloneOp(Op, Mapper);
}
