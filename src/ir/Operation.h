//===- Operation.h - Generic SSA operations ---------------------*- C++ -*-===//
///
/// \file
/// The generic Operation: a named instruction with operands, results, named
/// attributes, successor blocks, and nested regions — MLIR's extensible op
/// model (Section 2 of the paper). An operation is a *single* sized
/// allocation: the operand, result, successor, and region storage is laid
/// out inline after the op header (the MLIR trailing-objects layout), and
/// the block comes from the owning IRContext's bump-pointer arena
/// (ir/OpArena.h). Operations are created detached and inserted into
/// blocks; the owning block's intrusive list manages their lifetime, and
/// erase()/destroy() return the block to the arena's free lists instead of
/// the heap. See docs/memory-layout.md for the layout diagram and the
/// ownership contract.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_OPERATION_H
#define IRDL_IR_OPERATION_H

#include "ir/Dialect.h"
#include "ir/Value.h"
#include "support/IntrusiveList.h"
#include "support/SourceMgr.h"

#include <memory>
#include <span>
#include <string>
#include <vector>

namespace irdl {

class Block;
class IRContext;
class Operation;
class Region;
class RegionRange;

/// A named attribute entry on an operation.
struct NamedAttribute {
  std::string Name;
  Attribute Attr;
};

/// A small sorted list of named attributes with map-like access.
class NamedAttrList {
public:
  NamedAttrList() = default;
  NamedAttrList(std::initializer_list<NamedAttribute> Init) {
    for (const NamedAttribute &NA : Init)
      set(NA.Name, NA.Attr);
  }

  /// Returns the attribute named \p Name or a null Attribute.
  Attribute get(std::string_view Name) const;

  /// Sets (inserting or replacing) \p Name to \p Attr.
  void set(std::string_view Name, Attribute Attr);

  /// Removes \p Name if present; returns true if it was removed.
  bool erase(std::string_view Name);

  bool empty() const { return Entries.empty(); }
  size_t size() const { return Entries.size(); }
  auto begin() const { return Entries.begin(); }
  auto end() const { return Entries.end(); }

  bool operator==(const NamedAttrList &RHS) const = default;

private:
  /// Kept sorted by name for deterministic printing.
  std::vector<NamedAttribute> Entries;
};

/// The resolved name of an operation: its definition, plus an owned full
/// name string only for unregistered operations — registered names alias
/// the definition's cached full name, so constructing an OperationName
/// (and therefore an Operation) performs no string copy.
class OperationName {
public:
  OperationName() = default;
  /*implicit*/ OperationName(const OpDefinition *Def) : Def(Def) {}
  OperationName(std::string UnregisteredName)
      : FullName(std::move(UnregisteredName)) {}

  const OpDefinition *getDef() const { return Def; }
  bool isRegistered() const { return Def != nullptr; }
  const std::string &str() const {
    return Def ? Def->getFullName() : FullName;
  }

  bool operator==(const OperationName &RHS) const {
    return str() == RHS.str();
  }

private:
  const OpDefinition *Def = nullptr;
  std::string FullName;
};

/// A view over an operation's operand storage yielding Values. Cheap to
/// copy; invalidated by any operand-list mutation on the operation.
class OperandRange {
public:
  OperandRange() = default;
  OperandRange(const OpOperand *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(const OpOperand *P) : P(P) {}
    Value operator*() const { return P->get(); }
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
    const OpOperand *P = nullptr;
  };

  iterator begin() const { return iterator(Base); }
  iterator end() const { return iterator(Base + Count); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Value operator[](unsigned Index) const {
    assert(Index < Count && "operand index out of range");
    return Base[Index].get();
  }
  Value front() const { return (*this)[0]; }
  Value back() const { return (*this)[Count - 1]; }

  /// Materializes the range (for callers that need to outlive a
  /// mutation, e.g. erasing the op the range points into).
  std::vector<Value> vec() const { return {begin(), end()}; }

private:
  const OpOperand *Base = nullptr;
  unsigned Count = 0;
};

/// A view over an operation's result storage yielding Values.
class ResultRange {
public:
  ResultRange() = default;
  ResultRange(detail::OpResultImpl *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Value;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(detail::OpResultImpl *P) : P(P) {}
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
    detail::OpResultImpl *P = nullptr;
  };

  iterator begin() const { return iterator(Base); }
  iterator end() const { return iterator(Base + Count); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Value operator[](unsigned Index) const {
    assert(Index < Count && "result index out of range");
    return Value(Base + Index);
  }
  Value front() const { return (*this)[0]; }
  Value back() const { return (*this)[Count - 1]; }

  std::vector<Value> vec() const { return {begin(), end()}; }

private:
  detail::OpResultImpl *Base = nullptr;
  unsigned Count = 0;
};

/// A view over an operation's result storage yielding the result Types.
class ResultTypeRange {
public:
  ResultTypeRange() = default;
  ResultTypeRange(const detail::OpResultImpl *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  class iterator {
  public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = Type;
    using difference_type = std::ptrdiff_t;

    iterator() = default;
    explicit iterator(const detail::OpResultImpl *P) : P(P) {}
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
    const detail::OpResultImpl *P = nullptr;
  };

  iterator begin() const { return iterator(Base); }
  iterator end() const { return iterator(Base + Count); }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Type operator[](unsigned Index) const {
    assert(Index < Count && "result index out of range");
    return Base[Index].getType();
  }

  std::vector<Type> vec() const { return {begin(), end()}; }

private:
  const detail::OpResultImpl *Base = nullptr;
  unsigned Count = 0;
};

/// A view over successor-block storage (an operation's successor array,
/// or a block's terminator successors). Cheap to copy; invalidated when
/// the underlying operation is mutated or erased.
class SuccessorRange {
public:
  using iterator = Block *const *;

  SuccessorRange() = default;
  SuccessorRange(Block *const *Base, unsigned Count)
      : Base(Base), Count(Count) {}

  iterator begin() const { return Base; }
  iterator end() const { return Base + Count; }
  unsigned size() const { return Count; }
  bool empty() const { return Count == 0; }
  Block *operator[](unsigned Index) const {
    assert(Index < Count && "successor index out of range");
    return Base[Index];
  }
  Block *front() const { return (*this)[0]; }
  Block *back() const { return (*this)[Count - 1]; }

  /// Materializes the range (for callers that need to outlive a
  /// mutation, e.g. erasing the terminator the range points into).
  std::vector<Block *> vec() const { return {begin(), end()}; }

private:
  Block *const *Base = nullptr;
  unsigned Count = 0;
};

/// Aggregated construction parameters for an operation (mirrors
/// mlir::OperationState). Creation is context-aware: the context supplies
/// the arena the operation is allocated from, so every state names its
/// context up front. Regions added here are *moved into* the created
/// operation.
struct OperationState {
  IRContext *Ctx = nullptr;
  SMLoc Loc;
  OperationName Name;
  std::vector<Value> Operands;
  std::vector<Type> ResultTypes;
  NamedAttrList Attributes;
  std::vector<Block *> Successors;
  std::vector<std::unique_ptr<Region>> Regions;

  // Constructors/destructor out of line: Region is incomplete here.
  OperationState(IRContext &Ctx, OperationName Name);
  OperationState(IRContext &Ctx, OperationName Name, SMLoc Loc);
  ~OperationState();

  void addOperands(std::span<const Value> Vals) {
    Operands.insert(Operands.end(), Vals.begin(), Vals.end());
  }
  void addOperands(std::initializer_list<Value> Vals) {
    Operands.insert(Operands.end(), Vals);
  }
  void addTypes(std::span<const Type> Tys) {
    ResultTypes.insert(ResultTypes.end(), Tys.begin(), Tys.end());
  }
  void addTypes(std::initializer_list<Type> Tys) {
    ResultTypes.insert(ResultTypes.end(), Tys);
  }
  void addAttribute(std::string_view AttrName, Attribute Attr) {
    Attributes.set(AttrName, Attr);
  }
  void addSuccessor(Block *B) { Successors.push_back(B); }
  /// Adds a (possibly empty) region; its blocks will be transferred to the
  /// operation on creation.
  Region *addRegion();
};

/// A generic SSA operation.
///
/// Memory layout (one arena allocation):
///
///   [ Operation header | OpResultImpl x NumResults
///     | OpOperand x OperandCapacity | Block* x NumSuccessors
///     | Region x NumRegions ]
///
/// Result/successor/region counts are fixed at creation; the operand list
/// may grow past its inline capacity, in which case the operand array
/// alone moves to a fresh arena block (the header keeps pointing at the
/// live array, so accessors never branch on the storage mode).
class Operation final : public IntrusiveListNode<Operation> {
public:
  /// Creates a detached operation from the context's arena, taking the
  /// bodies of any regions added to \p State. The caller (usually a Block
  /// insertion or OpBuilder) is responsible for its eventual ownership;
  /// destruction must go through erase()/destroy(), never `delete`.
  static Operation *create(OperationState &State);

  /// Destroys a detached operation: runs destructors and returns its
  /// storage to the context arena's free lists. All results must be
  /// unused.
  void destroy();

  //===------------------------------------------------------------------===//
  // Identity
  //===------------------------------------------------------------------===//

  const OperationName &getName() const { return Name; }
  const OpDefinition *getDef() const { return Name.getDef(); }
  bool isRegistered() const { return Name.isRegistered(); }
  SMLoc getLoc() const { return Loc; }
  void setLoc(SMLoc L) { Loc = L; }

  /// The context whose arena owns this operation's storage.
  IRContext *getContext() const { return Ctx; }

  /// Returns true if this op may only terminate a block.
  bool isTerminator() const {
    return Name.getDef() && Name.getDef()->isTerminator();
  }

  //===------------------------------------------------------------------===//
  // Operands
  //===------------------------------------------------------------------===//

  unsigned getNumOperands() const { return NumOperandsVal; }
  Value getOperand(unsigned Index) const {
    assert(Index < NumOperandsVal && "operand index out of range");
    return OperandStorage[Index].get();
  }
  void setOperand(unsigned Index, Value V) {
    assert(Index < NumOperandsVal && "operand index out of range");
    OperandStorage[Index].set(V);
  }
  OpOperand &getOpOperand(unsigned Index) {
    assert(Index < NumOperandsVal && "operand index out of range");
    return OperandStorage[Index];
  }
  OperandRange getOperands() const {
    return OperandRange(OperandStorage, NumOperandsVal);
  }

  /// Replaces the full operand list.
  void setOperands(std::span<const Value> NewOperands);
  void setOperands(std::initializer_list<Value> NewOperands) {
    setOperands(std::span<const Value>(NewOperands.begin(),
                                       NewOperands.size()));
  }

  /// Removes the operand at \p Index.
  void eraseOperand(unsigned Index);

  /// Appends an operand.
  void addOperand(Value V);

  //===------------------------------------------------------------------===//
  // Results
  //===------------------------------------------------------------------===//

  unsigned getNumResults() const { return NumResultsVal; }
  Value getResult(unsigned Index) const {
    assert(Index < NumResultsVal && "result index out of range");
    return Value(ResultStorage + Index);
  }
  ResultRange getResults() const {
    return ResultRange(ResultStorage, NumResultsVal);
  }
  ResultTypeRange getResultTypes() const {
    return ResultTypeRange(ResultStorage, NumResultsVal);
  }

  /// True if no result has any use.
  bool use_empty() const;

  /// Replaces all uses of this op's results with \p NewValues (same arity).
  void replaceAllUsesWith(std::span<const Value> NewValues);
  void replaceAllUsesWith(std::initializer_list<Value> NewValues) {
    replaceAllUsesWith(
        std::span<const Value>(NewValues.begin(), NewValues.size()));
  }
  /// Convenience overload: the replacement values of another operation.
  void replaceAllUsesWith(ResultRange NewValues);

  //===------------------------------------------------------------------===//
  // Attributes
  //===------------------------------------------------------------------===//

  const NamedAttrList &getAttrs() const { return Attrs; }
  Attribute getAttr(std::string_view AttrName) const {
    return Attrs.get(AttrName);
  }
  void setAttr(std::string_view AttrName, Attribute Attr) {
    Attrs.set(AttrName, Attr);
  }
  bool removeAttr(std::string_view AttrName) { return Attrs.erase(AttrName); }

  //===------------------------------------------------------------------===//
  // Successors
  //===------------------------------------------------------------------===//

  unsigned getNumSuccessors() const { return NumSuccessorsVal; }
  Block *getSuccessor(unsigned Index) const {
    assert(Index < NumSuccessorsVal && "successor index out of range");
    return SuccessorStorage[Index];
  }
  void setSuccessor(unsigned Index, Block *B) {
    assert(Index < NumSuccessorsVal && "successor index out of range");
    SuccessorStorage[Index] = B;
  }
  SuccessorRange getSuccessors() const {
    return SuccessorRange(SuccessorStorage, NumSuccessorsVal);
  }

  //===------------------------------------------------------------------===//
  // Regions
  //===------------------------------------------------------------------===//

  unsigned getNumRegions() const { return NumRegionsVal; }
  /// Defined inline in Region.h (needs the complete Region type).
  Region &getRegion(unsigned Index);
  RegionRange getRegions() const;

  //===------------------------------------------------------------------===//
  // Position
  //===------------------------------------------------------------------===//

  Block *getBlock() const { return ParentBlock; }
  void setBlockInternal(Block *B) { ParentBlock = B; }

  /// Returns the op owning the region this op lives in, or null.
  Operation *getParentOp() const;

  /// Unlinks this op from its block (ownership passes to the caller).
  void removeFromBlock();

  /// Unlinks and destroys this op, returning its storage to the context
  /// arena. All results must be unused.
  void erase();

  //===------------------------------------------------------------------===//
  // Traversal & verification
  //===------------------------------------------------------------------===//

  /// Visits this op and all nested ops, pre-order. Templated visitor: the
  /// callable is statically dispatched (no std::function allocation per
  /// walk). Defined inline in Region.h, which callers need anyway to
  /// traverse the IR.
  template <typename FnT> void walk(FnT &&Callback);

  /// True if no operation nested within this op uses a value defined
  /// outside of it (MLIR's IsolatedFromAbove, computed structurally).
  /// The verifier times these ops as its per-function grain.
  bool isIsolatedFromAbove() const;

  /// Runs structural verification and all registered verifiers on this op
  /// and everything nested in it.
  LogicalResult verify(DiagnosticEngine &Diags);

  /// Prints in textual form (convenience; see Printer.h for options).
  std::string str() const;

private:
  /// Byte offsets of the trailing arrays within one allocation.
  struct Layout {
    size_t ResultsOffset;
    size_t OperandsOffset;
    size_t SuccessorsOffset;
    size_t RegionsOffset;
    size_t Bytes;
  };
  static Layout computeLayout(unsigned NumResults, unsigned OperandCapacity,
                              unsigned NumSuccessors, unsigned NumRegions);

  Operation(OperationState &State, const Layout &L);
  ~Operation();

  /// Moves the operand array to a fresh arena block of \p NewCapacity
  /// slots (use lists are relinked; use order within a value's list may
  /// change).
  void growOperandStorage(unsigned NewCapacity);

  /// True when the operand array still lives inside the op's own
  /// allocation (vs. a separate arena block after growth).
  bool operandsAreInline() const;

  OperationName Name;
  SMLoc Loc;
  NamedAttrList Attrs;
  IRContext *Ctx = nullptr;
  Block *ParentBlock = nullptr;

  // The trailing arrays. All four point into this op's allocation at
  // creation; OperandStorage may later point at a separate arena block
  // if the operand list outgrows its inline capacity.
  detail::OpResultImpl *ResultStorage = nullptr;
  OpOperand *OperandStorage = nullptr;
  Block **SuccessorStorage = nullptr;
  Region *RegionStorage = nullptr;

  uint32_t NumOperandsVal = 0;
  uint32_t OperandCapacity = 0;
  uint32_t NumResultsVal = 0;
  uint32_t NumSuccessorsVal = 0;
  uint32_t NumRegionsVal = 0;
  /// Size of the op's own allocation, for returning it to the arena.
  uint32_t AllocBytes = 0;
  /// Position in the parent block, written when a DominanceInfo numbers
  /// the block; meaningful only to that DominanceInfo.
  uint32_t BlockOrderIndex = 0;
  friend class DominanceInfo;
};

/// Operations are arena-allocated: intrusive lists must destroy them via
/// destroy(), not `delete`.
template <> struct IntrusiveListTraits<Operation> {
  static void deleteNode(Operation *Op);
};

} // namespace irdl

#endif // IRDL_IR_OPERATION_H
