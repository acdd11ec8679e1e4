//===- Operation.cpp ------------------------------------------------===//

#include "ir/Operation.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/OpArena.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <algorithm>

using namespace irdl;

//===----------------------------------------------------------------------===//
// NamedAttrList
//===----------------------------------------------------------------------===//

Attribute NamedAttrList::get(std::string_view Name) const {
  for (const NamedAttribute &NA : Entries)
    if (NA.Name == Name)
      return NA.Attr;
  return Attribute();
}

void NamedAttrList::set(std::string_view Name, Attribute Attr) {
  auto It = std::lower_bound(
      Entries.begin(), Entries.end(), Name,
      [](const NamedAttribute &NA, std::string_view N) { return NA.Name < N; });
  if (It != Entries.end() && It->Name == Name) {
    It->Attr = Attr;
    return;
  }
  Entries.insert(It, NamedAttribute{std::string(Name), Attr});
}

bool NamedAttrList::erase(std::string_view Name) {
  for (auto It = Entries.begin(), E = Entries.end(); It != E; ++It) {
    if (It->Name == Name) {
      Entries.erase(It);
      return true;
    }
  }
  return false;
}

//===----------------------------------------------------------------------===//
// OperationState
//===----------------------------------------------------------------------===//

OperationState::OperationState(IRContext &Ctx, OperationName Name)
    : Ctx(&Ctx), Name(std::move(Name)) {}
OperationState::OperationState(IRContext &Ctx, OperationName Name, SMLoc Loc)
    : Ctx(&Ctx), Loc(Loc), Name(std::move(Name)) {}
OperationState::~OperationState() = default;

Region *OperationState::addRegion() {
  assert(Ctx && "operation state has no context");
  if (SpareRegions.empty()) {
    Regions.push_back(std::make_unique<Region>(*Ctx));
  } else {
    Regions.push_back(std::move(SpareRegions.back()));
    SpareRegions.pop_back();
  }
  return Regions.back().get();
}

void OperationState::reset(const OperationName &NewName, SMLoc NewLoc) {
  // Copy-assigned so an unregistered name reuses this state's string.
  Name = NewName;
  Loc = NewLoc;
  Operands.clear();
  ResultTypes.clear();
  Attributes.clear();
  Successors.clear();
  for (std::unique_ptr<Region> &R : Regions)
    if (R->empty())
      SpareRegions.push_back(std::move(R));
  Regions.clear();
}

//===----------------------------------------------------------------------===//
// Operation
//===----------------------------------------------------------------------===//

Operation::Layout Operation::computeLayout(unsigned NumResults,
                                           unsigned OperandCapacity,
                                           unsigned NumSuccessors,
                                           unsigned NumRegions) {
  auto AlignTo = [](size_t Offset, size_t Align) {
    return (Offset + Align - 1) & ~(Align - 1);
  };
  Layout L;
  size_t Offset = sizeof(Operation);
  Offset = AlignTo(Offset, alignof(detail::OpResultImpl));
  L.ResultsOffset = Offset;
  Offset += NumResults * sizeof(detail::OpResultImpl);
  Offset = AlignTo(Offset, alignof(OpOperand));
  L.OperandsOffset = Offset;
  Offset += OperandCapacity * sizeof(OpOperand);
  Offset = AlignTo(Offset, alignof(Block *));
  L.SuccessorsOffset = Offset;
  Offset += NumSuccessors * sizeof(Block *);
  Offset = AlignTo(Offset, alignof(Region));
  L.RegionsOffset = Offset;
  Offset += NumRegions * sizeof(Region);
  L.Bytes = Offset;
  return L;
}

Operation *Operation::create(OperationState &State) {
  assert(State.Ctx && "operation state has no context");
  Layout L = computeLayout(State.ResultTypes.size(), State.Operands.size(),
                           State.Successors.size(), State.Regions.size());
  void *Mem = State.Ctx->getOpArena().allocate(L.Bytes, alignof(Operation));
  return new (Mem) Operation(State, L);
}

Operation::Operation(OperationState &State, const Layout &L)
    : Name(State.Name), Loc(State.Loc), Attrs(State.Attributes),
      Ctx(State.Ctx) {
  auto *Base = reinterpret_cast<std::byte *>(this);
  ResultStorage =
      reinterpret_cast<detail::OpResultImpl *>(Base + L.ResultsOffset);
  OperandStorage = reinterpret_cast<OpOperand *>(Base + L.OperandsOffset);
  SuccessorStorage = reinterpret_cast<Block **>(Base + L.SuccessorsOffset);
  RegionStorage = reinterpret_cast<Region *>(Base + L.RegionsOffset);
  NumResultsVal = static_cast<uint32_t>(State.ResultTypes.size());
  NumOperandsVal = OperandCapacity =
      static_cast<uint32_t>(State.Operands.size());
  NumSuccessorsVal = static_cast<uint32_t>(State.Successors.size());
  NumRegionsVal = static_cast<uint32_t>(State.Regions.size());
  AllocBytes = static_cast<uint32_t>(L.Bytes);

  for (unsigned I = 0; I != NumResultsVal; ++I)
    new (ResultStorage + I)
        detail::OpResultImpl(State.ResultTypes[I], this, I);
  for (unsigned I = 0; I != NumOperandsVal; ++I)
    new (OperandStorage + I) OpOperand(this, State.Operands[I]);
  for (unsigned I = 0; I != NumSuccessorsVal; ++I)
    SuccessorStorage[I] = State.Successors[I];
  for (unsigned I = 0; I != NumRegionsVal; ++I) {
    new (RegionStorage + I) Region(this);
    RegionStorage[I].takeBody(*State.Regions[I]);
  }
}

Operation::~Operation() {
  assert(use_empty() && "destroying an operation whose results are in use");
  // Regions first (the teardown entry point already dropped the nested
  // ops' references, so they go in any order), then operands (each
  // unlinks from its value's use list), then results.
  for (unsigned I = NumRegionsVal; I != 0; --I)
    RegionStorage[I - 1].~Region();
  for (unsigned I = NumOperandsVal; I != 0; --I)
    OperandStorage[I - 1].~OpOperand();
  if (!operandsAreInline())
    Ctx->getOpArena().deallocate(OperandStorage,
                                 OperandCapacity * sizeof(OpOperand));
  for (unsigned I = NumResultsVal; I != 0; --I)
    ResultStorage[I - 1].~OpResultImpl();
}

void Operation::destroy() {
  for (Region &R : getRegions())
    R.dropAllReferences();
  destroyDropped();
}

void Operation::destroyDropped() {
  OpArena &A = Ctx->getOpArena();
  uint32_t Bytes = AllocBytes;
  this->~Operation();
  A.deallocate(this, Bytes);
}

void irdl::IntrusiveListTraits<Operation>::deleteNode(Operation *Op) {
  Op->destroy();
}

bool Operation::operandsAreInline() const {
  if (OperandCapacity == 0)
    return true;
  auto P = reinterpret_cast<uintptr_t>(OperandStorage);
  auto B = reinterpret_cast<uintptr_t>(this);
  return P >= B && P < B + AllocBytes;
}

void Operation::growOperandStorage(unsigned NewCapacity) {
  assert(NewCapacity > OperandCapacity && "not growing");
  OpArena &A = Ctx->getOpArena();
  auto *NewStorage = static_cast<OpOperand *>(
      A.allocate(NewCapacity * sizeof(OpOperand), alignof(OpOperand)));
  // OpOperands are links in their value's use list and cannot be moved
  // bytewise: rebuild each link against the same value, then retire the
  // old one. The relative order of uses within a value's list may change.
  for (unsigned I = 0; I != NumOperandsVal; ++I) {
    new (NewStorage + I) OpOperand(this, OperandStorage[I].get());
    OperandStorage[I].~OpOperand();
  }
  if (!operandsAreInline())
    A.deallocate(OperandStorage, OperandCapacity * sizeof(OpOperand));
  OperandStorage = NewStorage;
  OperandCapacity = NewCapacity;
}

void Operation::setOperands(std::span<const Value> NewOperands) {
  // Reuse existing slots where possible; then shrink or grow.
  size_t Common = std::min<size_t>(NumOperandsVal, NewOperands.size());
  for (size_t I = 0; I != Common; ++I)
    OperandStorage[I].set(NewOperands[I]);
  if (NewOperands.size() < NumOperandsVal) {
    for (unsigned I = NumOperandsVal; I != NewOperands.size(); --I)
      OperandStorage[I - 1].~OpOperand();
    NumOperandsVal = static_cast<uint32_t>(NewOperands.size());
    return;
  }
  for (size_t I = Common, E = NewOperands.size(); I != E; ++I)
    addOperand(NewOperands[I]);
}

void Operation::eraseOperand(unsigned Index) {
  assert(Index < NumOperandsVal && "operand index out of range");
  // Slots cannot move (their use-list links are address-based); shift the
  // values down instead and retire the last slot.
  for (unsigned I = Index; I + 1 < NumOperandsVal; ++I)
    OperandStorage[I].set(OperandStorage[I + 1].get());
  OperandStorage[NumOperandsVal - 1].~OpOperand();
  --NumOperandsVal;
}

void Operation::addOperand(Value V) {
  if (NumOperandsVal == OperandCapacity)
    growOperandStorage(std::max(4u, OperandCapacity * 2));
  new (OperandStorage + NumOperandsVal) OpOperand(this, V);
  ++NumOperandsVal;
}

bool Operation::use_empty() const {
  for (unsigned I = 0; I != NumResultsVal; ++I)
    if (ResultStorage[I].FirstUse)
      return false;
  return true;
}

void Operation::replaceAllUsesWith(std::span<const Value> NewValues) {
  assert(NewValues.size() == NumResultsVal &&
         "replacement arity must match result arity");
  for (unsigned I = 0; I != NumResultsVal; ++I)
    Value(ResultStorage + I).replaceAllUsesWith(NewValues[I]);
}

void Operation::replaceAllUsesWith(ResultRange NewValues) {
  assert(NewValues.size() == NumResultsVal &&
         "replacement arity must match result arity");
  for (unsigned I = 0; I != NumResultsVal; ++I)
    Value(ResultStorage + I).replaceAllUsesWith(NewValues[I]);
}

Operation *Operation::getParentOp() const {
  if (!ParentBlock)
    return nullptr;
  if (Region *R = ParentBlock->getParent())
    return R->getParentOp();
  return nullptr;
}

void Operation::removeFromBlock() {
  assert(ParentBlock && "operation is not in a block");
  ParentBlock->remove(this);
}

void Operation::erase() {
  assert(use_empty() && "erasing an operation whose results are in use");
  if (ParentBlock)
    removeFromBlock();
  destroy();
}

std::string Operation::str() const {
  return printOpToString(const_cast<Operation *>(this));
}
