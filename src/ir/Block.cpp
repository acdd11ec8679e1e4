//===- Block.cpp ----------------------------------------------------===//

#include "ir/Block.h"

#include "ir/Context.h"
#include "ir/OpArena.h"
#include "ir/Region.h"

#include <algorithm>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Creation / destruction
//===----------------------------------------------------------------------===//

Block::Layout Block::computeLayout(unsigned ArgCapacity) {
  auto AlignTo = [](size_t Offset, size_t Align) {
    return (Offset + Align - 1) & ~(Align - 1);
  };
  Layout L;
  size_t Offset = sizeof(Block);
  Offset = AlignTo(Offset, alignof(detail::BlockArgumentImpl));
  L.ArgsOffset = Offset;
  Offset += ArgCapacity * sizeof(detail::BlockArgumentImpl);
  L.Bytes = Offset;
  return L;
}

Block *Block::create(IRContext &Ctx, TypeRange ArgTypes) {
  Layout L = computeLayout(static_cast<unsigned>(ArgTypes.size()));
  void *Mem = Ctx.getOpArena().allocate(L.Bytes, alignof(Block));
  return new (Mem) Block(Ctx, ArgTypes, L);
}

Block::Block(IRContext &Ctx, TypeRange ArgTypes, const Layout &L)
    : Ctx(&Ctx) {
  auto *Base = reinterpret_cast<std::byte *>(this);
  ArgStorage =
      reinterpret_cast<detail::BlockArgumentImpl *>(Base + L.ArgsOffset);
  NumArgsVal = ArgCapacity = static_cast<uint32_t>(ArgTypes.size());
  AllocBytes = static_cast<uint32_t>(L.Bytes);
  for (unsigned I = 0; I != NumArgsVal; ++I)
    new (ArgStorage + I) detail::BlockArgumentImpl(ArgTypes[I], this, I);
}

Block::~Block() {
  destroyOps();
  for (unsigned I = NumArgsVal; I != 0; --I)
    ArgStorage[I - 1].~BlockArgumentImpl();
  if (!argsAreInline())
    Ctx->getOpArena().deallocate(
        ArgStorage, ArgCapacity * sizeof(detail::BlockArgumentImpl));
}

void Block::destroy() {
  dropAllReferences();
  destroyDropped();
}

void Block::destroyDropped() {
  OpArena &A = Ctx->getOpArena();
  uint32_t Bytes = AllocBytes;
  this->~Block();
  A.deallocate(this, Bytes);
}

void Block::erase() {
  if (ParentRegion)
    ParentRegion->remove(this);
  destroy();
}

// Only a region's teardown deletes its blocks through the list, after it
// (or the op owning it) dropped every reference inside.
void irdl::IntrusiveListTraits<Block>::deleteNode(Block *B) {
  B->destroyDropped();
}

Operation *Block::getParentOp() const {
  return ParentRegion ? ParentRegion->getParentOp() : nullptr;
}

//===----------------------------------------------------------------------===//
// Arguments
//===----------------------------------------------------------------------===//

bool Block::argsAreInline() const {
  if (ArgCapacity == 0)
    return true;
  auto P = reinterpret_cast<uintptr_t>(ArgStorage);
  auto B = reinterpret_cast<uintptr_t>(this);
  return P >= B && P < B + AllocBytes;
}

void Block::growArgumentStorage(unsigned NewCapacity) {
  assert(NewCapacity > ArgCapacity && "not growing");
  OpArena &A = Ctx->getOpArena();
  auto *NewStorage = static_cast<detail::BlockArgumentImpl *>(
      A.allocate(NewCapacity * sizeof(detail::BlockArgumentImpl),
                 alignof(detail::BlockArgumentImpl)));
  // A BlockArgumentImpl is a value definition: its address is held by
  // every OpOperand using it, so it cannot move bytewise. Rebuild each
  // argument in the new array and retarget its uses one by one (set()
  // pushes onto the new impl's list head, so use order may change).
  for (unsigned I = 0; I != NumArgsVal; ++I) {
    detail::BlockArgumentImpl &Old = ArgStorage[I];
    new (NewStorage + I) detail::BlockArgumentImpl(Old.getType(), this, I);
    while (OpOperand *Use = Old.FirstUse)
      Use->set(Value(NewStorage + I));
    Old.~BlockArgumentImpl();
  }
  if (!argsAreInline())
    A.deallocate(ArgStorage,
                 ArgCapacity * sizeof(detail::BlockArgumentImpl));
  ArgStorage = NewStorage;
  ArgCapacity = NewCapacity;
}

Value Block::addArgument(Type Ty) {
  if (NumArgsVal == ArgCapacity)
    growArgumentStorage(std::max(4u, ArgCapacity * 2));
  new (ArgStorage + NumArgsVal)
      detail::BlockArgumentImpl(Ty, this, NumArgsVal);
  return Value(ArgStorage + NumArgsVal++);
}

void Block::eraseArgument(unsigned Index) {
  assert(Index < NumArgsVal && "argument index out of range");
  assert(Value(ArgStorage + Index).use_empty() &&
         "erasing a block argument that still has uses");
  ArgStorage[Index].~BlockArgumentImpl();
  // Slots cannot move bytewise (use lists hold their addresses): rebuild
  // each survivor one slot down with its re-computed index and retarget
  // its uses, exactly like argument growth.
  for (unsigned I = Index; I + 1 < NumArgsVal; ++I) {
    detail::BlockArgumentImpl &Src = ArgStorage[I + 1];
    new (ArgStorage + I) detail::BlockArgumentImpl(Src.getType(), this, I);
    while (OpOperand *Use = Src.FirstUse)
      Use->set(Value(ArgStorage + I));
    Src.~BlockArgumentImpl();
  }
  --NumArgsVal;
}

//===----------------------------------------------------------------------===//
// Operations
//===----------------------------------------------------------------------===//

Block::iterator Block::insert(iterator Pos, Operation *Op) {
  assert(!Op->getBlock() && "operation is already in a block");
  Op->setBlockInternal(this);
  return Ops.insert(Pos, Op);
}

void Block::push_back(Operation *Op) { insert(end(), Op); }

void Block::push_front(Operation *Op) { insert(begin(), Op); }

void Block::remove(Operation *Op) {
  assert(Op->getBlock() == this && "operation is not in this block");
  Op->setBlockInternal(nullptr);
  Ops.remove(Op);
}

Operation *Block::getTerminator() {
  if (Ops.empty())
    return nullptr;
  Operation &Last = Ops.back();
  return Last.isTerminator() ? &Last : nullptr;
}

SuccessorRange Block::getSuccessors() {
  if (Operation *Term = getTerminator())
    return Term->getSuccessors();
  return SuccessorRange();
}

Block *Block::splitBefore(iterator Pos) {
  assert(ParentRegion && "splitting a detached block");
  Block *NewBlock = Block::create(*Ctx);
  Region::iterator InsertPos(this);
  ++InsertPos;
  ParentRegion->insert(InsertPos, NewBlock);
  // Relink the tail [Pos, end) into the new block.
  while (Pos != end()) {
    Operation *Op = &*Pos;
    ++Pos;
    remove(Op);
    NewBlock->push_back(Op);
  }
  return NewBlock;
}

void Block::dropAllReferences() {
  for (Operation &Op : Ops)
    Op.walk([](Operation *Nested) { Nested->setOperands({}); });
}

void Block::clear() {
  // Drop all operand references first so that ops may be deleted in any
  // order even with intra-block forward references or cycles.
  dropAllReferences();
  destroyOps();
}

void Block::destroyOps() {
  while (!Ops.empty()) {
    Operation *Op = &Ops.back();
    remove(Op);
    Op->destroyDropped();
  }
}
