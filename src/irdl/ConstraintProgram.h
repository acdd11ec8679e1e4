//===- ConstraintProgram.h - Compiled constraint bytecode --------*- C++ -*-===//
///
/// \file
/// The compiled form of an IRDL constraint: a flat, contiguous array of
/// packed instructions (one opcode per Constraint::Kind plus a
/// table-dispatched AnyOf variant), with all literals, definitions, and
/// predicates hoisted into shared pools referenced by index. Programs are
/// produced once per resolved constraint by the ConstraintCompiler at
/// dialect-registration time and executed by a tight switch-dispatch
/// interpreter — "compile the declaration, not interpret it per op".
///
/// Two mechanisms make the compiled engine fast (docs/constraint-
/// compiler.md):
///
///  * trail-based backtracking — AnyOf/Not record a MatchContext mark and
///    undo only the variables bound since (shared with the tree oracle);
///  * AnyOf dispatch tables — when every alternative is rooted in a base
///    TypeParams/AttrParams/TypeEq check, a hash on the value's uniqued
///    definition pointer jumps directly to the plausible alternatives.
///
/// A program lives in the storage of the tree it was compiled from, with
/// all of its arrays, so a ConstraintProgramPtr shares the tree's owner.
///
/// There is no verdict cache: every run executes the program, so a
/// verdict follows from the constraints alone.
///
/// Programs are the only constraint engine at runtime: verification,
/// declarative-format printing and parsing all run them. A Var opcode
/// resolves an unbound variable by running the owning operation's
/// variable program, which the MatchContext carries; no program owns
/// another. Execution is semantically identical to Constraint::matches,
/// the reference oracle that tests compare every program against.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINTPROGRAM_H
#define IRDL_IRDL_CONSTRAINTPROGRAM_H

#include "irdl/Constraint.h"

#include <atomic>
#include <cstddef>

namespace irdl {

namespace detail {
class ConstraintProgramBuilder;
} // namespace detail

/// Opcodes of the compiled constraint interpreter. Every Constraint::Kind
/// lowers to exactly one opcode except AnyOf, which compiles to
/// AnyOfTable when all alternatives are dispatchable on a uniqued
/// definition pointer, and Named, which is transparent and compiles to
/// its body.
enum class COpcode : uint8_t {
  AnyType,    // value is a type
  AnyAttr,    // value is an attribute
  AnyParam,   // always true
  TypeParams, // A = TypeDefs index; children = per-parameter programs
  AttrParams, // A = AttrDefs index; children = per-parameter programs
  IntKind,    // A = Ints index (width + signedness)
  IntEq,      // A = Ints index (exact value)
  FloatKind,  // A = Floats index (width; 0 = any float)
  FloatEq,    // A = Floats index (exact value)
  StringKind, // value is a string
  StringEq,   // A = Strings index
  EnumKind,   // A = EnumDefs index
  EnumEq,     // A = EnumVals index
  ArrayOf,    // children: none = any array, one = element program
  ArrayExact, // children = per-element programs
  OpaqueKind, // A = Strings index (opaque parameter kind name)
  AnyOf,      // children = alternatives, tried in order with a trail mark
  AnyOfTable, // A = Tables index; dispatch on the value's definition
  And,        // children = conjuncts
  Not,        // children = the negated program
  Var,        // A = constraint-variable index
  Cpp,        // A = CppPreds index; children = base program
  Native,     // A = NativeFns index; children = base program
};

/// Returns the mnemonic of \p Op ("TypeParams", "AnyOfTable", ...).
std::string_view getOpcodeName(COpcode Op);

/// One packed instruction: 12 bytes, no pointers. Children of a node are
/// a contiguous (Begin, Count) slice of the program's child-index array,
/// so walking a subtree touches only two flat arrays.
struct CInstr {
  COpcode Op = COpcode::AnyType;
  /// Instruction flag bits (FlagBaseOnly).
  uint8_t Flags = 0;
  /// Number of child programs.
  uint16_t NumChildren = 0;
  /// Pool index; meaning depends on Op (see COpcode comments).
  uint32_t A = 0;
  /// First child slot in ConstraintProgram::Children.
  uint32_t ChildrenBegin = 0;

  static constexpr uint8_t FlagBaseOnly = 1u << 0;
};

/// A fixed-size array in the program's storage, written once by the
/// compiler and only read afterwards.
template <typename T> class ProgramArray {
public:
  size_t size() const { return Size; }
  bool empty() const { return Size == 0; }
  const T &operator[](size_t I) const {
    assert(I < Size && "program array index out of range");
    return Data[I];
  }
  const T *data() const { return Data; }
  const T *begin() const { return Data; }
  const T *end() const { return Data + Size; }

private:
  friend class detail::ConstraintProgramBuilder;
  const T *Data = nullptr;
  uint32_t Size = 0;
};

/// A compiled, immutable constraint program. Instruction 0 is the entry
/// point. Thread-safe to execute concurrently: execution only reads the
/// program (the profiling accumulators are relaxed atomics).
class ConstraintProgram {
public:

  /// Executes the program against \p V under the bindings in \p MC.
  /// Exactly equivalent to Constraint::matches of the source tree:
  /// variables bound by a successful run stay bound in \p MC, failed
  /// AnyOf branches are undone through the trail, and an unbound
  /// variable is matched by MC's program for it.
  bool run(const ParamValue &V, MatchContext &MC) const;

  /// run() for a type operand, result or block argument: the same
  /// verdict and bindings as run(ParamValue(T), MC). When the entry
  /// instruction is a Var already bound to a type, the two type handles
  /// are compared directly; everything else goes through exec().
  bool run(Type T, MatchContext &MC) const;

  /// If the program pins down exactly one value given the bindings in
  /// \p MC, returns it — the compiled counterpart of
  /// Constraint::concreteValue, used by declarative-format inference.
  /// A derived type or attribute is uniqued in \p Ctx, the context of
  /// the IR being built.
  std::optional<ParamValue> concreteValue(const MatchContext &MC,
                                          IRContext &Ctx) const;

  /// concreteValue of the entry instruction's \p I-th child, i.e. of one
  /// parameter of a parametric type/attribute program; nullopt when the
  /// entry has no such child.
  std::optional<ParamValue> concreteChildValue(unsigned I,
                                               const MatchContext &MC,
                                               IRContext &Ctx) const;

  /// Program counterpart of Constraint::collectUnguardedVars: the Var
  /// operands reachable from the entry without passing through a
  /// TypeParams/AttrParams/ArrayOf/ArrayExact child edge.
  void collectUnguardedVars(std::vector<unsigned> &Out) const;

  //===------------------------------------------------------------------===//
  // Introspection (tests, docs, statistics)
  //===------------------------------------------------------------------===//

  size_t getNumInstrs() const { return Instrs.size(); }
  const CInstr &getInstr(size_t I) const { return Instrs[I]; }
  /// Globally unique id (monotone counter), so cache keys and traces can
  /// name a program even after its spec is gone.
  uint64_t getId() const { return Id; }

  /// Profiled executions / cumulative execution nanoseconds, accumulated
  /// by run() only while constraintProfilingEnabled() (see
  /// ConstraintProfiler.h). A variable program run from a Var opcode
  /// accounts its time in both the outer and its own program
  /// (non-exclusive).
  uint64_t getProfiledEvals() const {
    return ProfEvals.load(std::memory_order_relaxed);
  }
  uint64_t getProfiledNanos() const {
    return ProfNs.load(std::memory_order_relaxed);
  }
  void resetProfile() const {
    ProfEvals.store(0, std::memory_order_relaxed);
    ProfNs.store(0, std::memory_order_relaxed);
  }

  size_t getNumDispatchTables() const { return Tables.size(); }

  /// The storage the program (and its source tree) lives in.
  BumpStorage &getStorage() const { return *Storage; }

  /// One-line-per-instruction disassembly, e.g.
  /// "0: AnyOfTable tbl=0 n=16 [1..16]".
  std::string dump() const;

private:
  friend class ConstraintCompiler;
  friend class detail::ConstraintProgramBuilder;

  explicit ConstraintProgram(BumpStorage &Storage);

  bool exec(uint32_t Pc, const ParamValue &V, MatchContext &MC) const;
  std::optional<ParamValue> concreteAt(uint32_t Pc, const MatchContext &MC,
                                       IRContext &Ctx) const;
  void collectUnguardedVarsAt(uint32_t Pc, std::vector<unsigned> &Out) const;

  /// The flat program: instructions (entry at 0), the child-index array
  /// their (Begin, Count) slices point into, and the dispatch-table
  /// alternative array.
  ProgramArray<CInstr> Instrs;
  ProgramArray<uint32_t> Children;
  ProgramArray<uint32_t> TableAlts;

  // Literal/definition pools (indexed by CInstr::A). Strings view and
  // predicates point into the source tree, which shares the storage.
  ProgramArray<const TypeDefinition *> TypeDefs;
  ProgramArray<const AttrDefinition *> AttrDefs;
  ProgramArray<IntVal> Ints;
  ProgramArray<FloatVal> Floats;
  ProgramArray<const EnumDef *> EnumDefs;
  ProgramArray<EnumVal> EnumVals;
  ProgramArray<std::string_view> Strings;
  ProgramArray<const CppParamPredicate *> CppPreds;
  ProgramArray<const NativeConstraintFn *> NativeFns;

  /// AnyOf dispatch: an open-addressed table per AnyOfTable instruction
  /// from a uniqued definition pointer to the (Begin, Count) slice of
  /// TableAlts holding the alternatives rooted in that definition, in
  /// source order. Empty slots have a null Key.
  struct DispatchSlot {
    const void *Key;
    uint32_t Begin;
    uint32_t Count;
  };
  struct DispatchTable {
    /// Slots[SlotsBegin, SlotsBegin + Mask + 1), a power of two at least
    /// twice NumKeys, so a probe always ends at an empty slot.
    uint32_t SlotsBegin;
    uint32_t Mask;
    uint32_t NumKeys;
  };
  ProgramArray<DispatchSlot> Slots;
  ProgramArray<DispatchTable> Tables;

  /// The first slot to probe for \p Key in a table of \p Mask + 1 slots.
  static uint32_t dispatchHash(const void *Key, uint32_t Mask) {
    uint64_t H = reinterpret_cast<uintptr_t>(Key) * 0x9E3779B97F4A7C15ull;
    return static_cast<uint32_t>(H >> 32) & Mask;
  }
  /// The slot of \p Key in table \p T, or null.
  const DispatchSlot *lookupDispatch(const DispatchTable &T,
                                     const void *Key) const {
    for (uint32_t I = dispatchHash(Key, T.Mask);; I = (I + 1) & T.Mask) {
      const DispatchSlot &S = Slots[T.SlotsBegin + I];
      if (S.Key == Key)
        return &S;
      if (!S.Key)
        return nullptr;
    }
  }

  BumpStorage *Storage;

  /// --profile-constraints accumulators (relaxed; see getProfiledEvals).
  mutable std::atomic<uint64_t> ProfEvals{0};
  mutable std::atomic<uint64_t> ProfNs{0};

  uint64_t Id;
};

/// findUnguardedVarCycle over variable programs.
inline std::optional<unsigned>
findUnguardedVarCycle(std::span<const ConstraintProgram *const> Vars) {
  if (Vars.empty())
    return std::nullopt;
  return VarCycleFinder::forThread().find(Vars);
}

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINTPROGRAM_H
