//===- Block.h - Basic blocks ------------------------------------*- C++ -*-===//
///
/// \file
/// Basic blocks: a list of operations ending in a terminator, with block
/// arguments standing in for phi nodes (Section 2). Like Operation, a
/// Block is a *single* sized allocation on the owning IRContext's arena:
/// the block header and its inline BlockArgumentImpl array share one
/// block (ir/OpArena.h), so region-heavy IR pays no per-block or
/// per-argument malloc. Blocks are created detached via Block::create and
/// inserted into regions; destruction goes through erase()/destroy(),
/// never `delete`. See docs/memory-layout.md.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_BLOCK_H
#define IRDL_IR_BLOCK_H

#include "ir/Operation.h"

namespace irdl {

class IRContext;
class Region;

/// A borrowed view of a list of types (mirrors mlir::TypeRange for the
/// APIs that take argument/result type lists).
using TypeRange = std::span<const Type>;

/// A view over a block's argument storage yielding Values. Cheap to
/// copy; invalidated by addArgument/eraseArgument on the block.
class ArgumentRange {
public:
  ArgumentRange() = default;
  ArgumentRange(detail::BlockArgumentImpl *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(detail::BlockArgumentImpl *P) : P(P) {}
    Value operator*() const { return Value(P); }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++P;
      return Tmp;
    }
    bool operator==(const iterator &RHS) const = default;

  private:
    detail::BlockArgumentImpl *P = nullptr;
  };

  iterator begin() const { return iterator(Base); }
  iterator end() const { return iterator(Base + Count); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Value operator[](unsigned Index) const {
    assert(Index < Count && "argument index out of range");
    return Value(Base + Index);
  }
  Value front() const { return (*this)[0]; }
  Value back() const { return (*this)[Count - 1]; }

  /// Materializes the range (for callers that need to outlive an
  /// argument-list mutation).
  std::vector<Value> vec() const { return {begin(), end()}; }

private:
  detail::BlockArgumentImpl *Base = nullptr;
  unsigned Count = 0;
};

/// A view over a block's argument storage yielding the argument Types.
class ArgumentTypeRange {
public:
  ArgumentTypeRange() = default;
  ArgumentTypeRange(const detail::BlockArgumentImpl *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Type;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(const detail::BlockArgumentImpl *P) : P(P) {}
    Type operator*() const { return P->getType(); }
    iterator &operator++() {
      ++P;
      return *this;
    }
    iterator operator++(int) {
      iterator Tmp = *this;
      ++P;
      return Tmp;
    }
    bool operator==(const iterator &RHS) const = default;

  private:
    const detail::BlockArgumentImpl *P = nullptr;
  };

  iterator begin() const { return iterator(Base); }
  iterator end() const { return iterator(Base + Count); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Type operator[](unsigned Index) const {
    assert(Index < Count && "argument index out of range");
    return Base[Index].getType();
  }

  std::vector<Type> vec() const { return {begin(), end()}; }

private:
  const detail::BlockArgumentImpl *Base = nullptr;
  unsigned Count = 0;
};

/// A basic block.
///
/// Memory layout (one arena allocation):
///
///   [ Block header | BlockArgumentImpl x ArgCapacity ]
///
/// The argument tail is sized to the creation-time argument count;
/// addArgument past that capacity moves the argument array alone to an
/// out-of-line arena block (use lists are retargeted), mirroring the
/// operand-growth scheme on Operation.
class Block final : public IntrusiveListNode<Block> {
public:
  /// Creates a detached block with one argument per type in \p ArgTypes,
  /// in one allocation from the context's arena. Destruction must go
  /// through erase()/destroy(), never `delete`.
  static Block *create(IRContext &Ctx, TypeRange ArgTypes = {});

  /// Destroys a detached block: drops every operand reference inside it
  /// in one walk, erases its operations, destroys its arguments, and
  /// returns the storage to the context arena.
  void destroy();

  /// Unlinks this block from its region (if any) and destroys it.
  void erase();

  /// The context whose arena owns this block's storage.
  IRContext *getContext() const { return Ctx; }

  Region *getParent() const { return ParentRegion; }
  void setParentInternal(Region *R) { ParentRegion = R; }

  /// Returns the operation owning the parent region, or null.
  Operation *getParentOp() const;

  //===------------------------------------------------------------------===//
  // Arguments
  //===------------------------------------------------------------------===//

  unsigned getNumArguments() const { return NumArgsVal; }
  Value getArgument(unsigned Index) const {
    assert(Index < NumArgsVal && "argument index out of range");
    return Value(ArgStorage + Index);
  }
  ArgumentRange getArguments() const {
    return ArgumentRange(ArgStorage, NumArgsVal);
  }
  ArgumentTypeRange getArgumentTypes() const {
    return ArgumentTypeRange(ArgStorage, NumArgsVal);
  }

  /// Appends a new block argument of type \p Ty.
  Value addArgument(Type Ty);

  /// Removes the argument at \p Index, which must be unused. Surviving
  /// arguments are re-indexed (their storage moves down one slot; use
  /// lists are retargeted, so borrowed ArgumentRanges are invalidated).
  void eraseArgument(unsigned Index);

  //===------------------------------------------------------------------===//
  // Operations
  //===------------------------------------------------------------------===//

  using iterator = IntrusiveList<Operation>::iterator;

  iterator begin() { return Ops.begin(); }
  iterator end() { return Ops.end(); }
  bool empty() const { return Ops.empty(); }
  size_t getNumOps() const { return Ops.size(); }
  Operation &front() { return Ops.front(); }
  Operation &back() { return Ops.back(); }

  /// Inserts \p Op (which must be detached) before \p Pos.
  iterator insert(iterator Pos, Operation *Op);
  void push_back(Operation *Op);
  void push_front(Operation *Op);

  /// Unlinks \p Op without deleting it.
  void remove(Operation *Op);

  /// Returns the terminator, or null when the block is empty or its last
  /// op is not a terminator.
  Operation *getTerminator();

  /// Returns the blocks this block's terminator may branch to (a view
  /// over the terminator's successor storage; empty when there is no
  /// terminator).
  SuccessorRange getSuccessors();

  /// Splits this block before \p Pos: every op from \p Pos onward moves to
  /// a new block inserted after this one in the parent region. Returns the
  /// new block.
  Block *splitBefore(iterator Pos);

  /// Unlinks and deletes every op, releasing operand uses first (tolerates
  /// forward intra-block references during teardown).
  void clear();

  /// Clears the operand lists of every op in this block, recursively.
  void dropAllReferences();

private:
  friend struct IntrusiveListTraits<Block>;

  /// Byte offsets of the trailing argument array within one allocation.
  struct Layout {
    size_t ArgsOffset;
    size_t Bytes;
  };
  static Layout computeLayout(unsigned ArgCapacity);

  Block(IRContext &Ctx, TypeRange ArgTypes, const Layout &L);
  /// Destroys the ops and arguments; every operand reference inside must
  /// already be dropped (destroy(), clear() or an enclosing teardown did).
  ~Block();

  /// Destroys this block once its references are dropped.
  void destroyDropped();
  /// Unlinks and destroys every op, back to front, without dropping
  /// references first.
  void destroyOps();

  /// Moves the argument array to a fresh arena block of \p NewCapacity
  /// slots. BlockArgumentImpls are value definitions — every use is
  /// retargeted at the new storage (use order within an argument's list
  /// may change).
  void growArgumentStorage(unsigned NewCapacity);

  /// True when the argument array still lives inside the block's own
  /// allocation (vs. a separate arena block after growth).
  bool argsAreInline() const;

  IRContext *Ctx = nullptr;
  Region *ParentRegion = nullptr;
  /// The trailing argument array; points into this block's allocation at
  /// creation and may later point at a separate arena block if the
  /// argument list outgrows its inline capacity.
  detail::BlockArgumentImpl *ArgStorage = nullptr;
  uint32_t NumArgsVal = 0;
  uint32_t ArgCapacity = 0;
  /// Size of the block's own allocation, for returning it to the arena.
  uint32_t AllocBytes = 0;
  IntrusiveList<Operation> Ops;
  /// The epoch of the DominanceInfo that last numbered this block's ops
  /// (Operation::BlockOrderIndex); 0 when none has.
  uint64_t OrderEpoch = 0;
  friend class DominanceInfo;
};

/// Blocks are arena-allocated: intrusive lists (Region bodies) must
/// destroy them via destroy(), not `delete`.
template <> struct IntrusiveListTraits<Block> {
  static void deleteNode(Block *B);
};

} // namespace irdl

#endif // IRDL_IR_BLOCK_H
