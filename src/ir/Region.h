//===- Region.h - Nested control-flow regions --------------------*- C++ -*-===//
///
/// \file
/// Regions hold a control-flow graph of blocks and attach to operations,
/// enabling hierarchical control flow (Section 2: "some extensions of SSA
/// allow operations to contain nested regions").
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_REGION_H
#define IRDL_IR_REGION_H

#include "ir/Block.h"

namespace irdl {

class Region {
public:
  /// A region attached to \p Parent (the common case: the inline region
  /// headers in an operation's allocation).
  explicit Region(Operation *Parent)
      : ParentOp(Parent), Ctx(Parent ? Parent->getContext() : nullptr) {}

  /// A detached region under construction (OperationState::addRegion);
  /// the context lets emplaceBlock allocate blocks before the owning op
  /// exists.
  explicit Region(IRContext &Ctx) : ParentOp(nullptr), Ctx(&Ctx) {}

  /// Destroys the blocks. A detached region first drops every operand
  /// reference held by ops in it (recursively), so that deletion order
  /// does not matter even with cross-block references; a region inside an
  /// op relies on the op's teardown to have done that in its one walk.
  ~Region();

  Operation *getParentOp() const { return ParentOp; }

  /// The context whose arena owns this region's blocks.
  IRContext *getContext() const { return Ctx; }

  using iterator = IntrusiveList<Block>::iterator;

  iterator begin() { return Blocks.begin(); }
  iterator end() { return Blocks.end(); }
  bool empty() const { return Blocks.empty(); }
  size_t getNumBlocks() const { return Blocks.size(); }

  Block &front() { return Blocks.front(); }
  Block &back() { return Blocks.back(); }

  /// Appends a fresh block (with one argument per type in \p ArgTypes)
  /// and returns it.
  Block &emplaceBlock(TypeRange ArgTypes = {});

  /// Inserts \p B (which must be detached) before \p Pos.
  iterator insert(iterator Pos, Block *B);
  void push_back(Block *B);

  /// Unlinks \p B without destroying it.
  void remove(Block *B);

  /// Unlinks \p B and returns its storage to the context arena.
  void erase(Block *B);

  /// Moves all blocks of \p Other to the end of this region.
  void takeBody(Region &Other);

  /// Recursively clears the operand lists of every nested operation.
  void dropAllReferences();

private:
  Operation *ParentOp;
  IRContext *Ctx;
  IntrusiveList<Block> Blocks;
};

/// A view over an operation's inline region storage. Regions live inside
/// the op's single allocation, so the view is just a pointer and a count.
class RegionRange {
public:
  RegionRange() = default;
  RegionRange(Region *Base, unsigned Count) : Base(Base), Count(Count) {}

  Region *begin() const { return Base; }
  Region *end() const { return Base + Count; }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Region &operator[](unsigned Index) const {
    assert(Index < Count && "region index out of range");
    return Base[Index];
  }
  Region &front() const { return (*this)[0]; }
  Region &back() const { return (*this)[Count - 1]; }

private:
  Region *Base = nullptr;
  unsigned Count = 0;
};

// Operation members that need the complete Region/Block types. Declared in
// Operation.h; every IR traversal includes Region.h anyway.

inline Region &Operation::getRegion(unsigned Index) {
  assert(Index < NumRegionsVal && "region index out of range");
  return RegionStorage[Index];
}

inline RegionRange Operation::getRegions() const {
  return RegionRange(RegionStorage, NumRegionsVal);
}

template <typename FnT> void Operation::walk(FnT &&Callback) {
  Callback(this);
  for (Region &R : getRegions())
    for (Block &B : R)
      for (Operation &Op : B)
        Op.walk(Callback);
}

} // namespace irdl

#endif // IRDL_IR_REGION_H
