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
#include <unordered_map>

namespace irdl {

namespace detail {
class ConstraintProgramBuilder;
} // namespace detail

namespace bytecode {
class ProgramWriter;
class ProgramReader;
} // namespace bytecode

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

/// A compiled, immutable constraint program. Instruction 0 is the entry
/// point. Thread-safe to execute concurrently: execution only reads the
/// program (the profiling accumulators are relaxed atomics).
class ConstraintProgram {
public:
  ConstraintProgram();

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

  /// One-line-per-instruction disassembly, e.g.
  /// "0: AnyOfTable tbl=0 n=16 [1..16]".
  std::string dump() const;

private:
  friend class ConstraintCompiler;
  friend class detail::ConstraintProgramBuilder;
  friend class bytecode::ProgramWriter;
  friend class bytecode::ProgramReader;

  bool exec(uint32_t Pc, const ParamValue &V, MatchContext &MC) const;
  std::optional<ParamValue> concreteAt(uint32_t Pc, const MatchContext &MC,
                                       IRContext &Ctx) const;

  /// The flat program: instructions (entry at 0), the child-index array
  /// their (Begin, Count) slices point into, and the dispatch-table
  /// alternative array. The program owns all three, whether the compiler
  /// built it or the `.irbc` reader copy-decoded it, so nothing outside
  /// the program can change what exec() runs.
  std::vector<CInstr> Instrs;
  std::vector<uint32_t> Children;
  std::vector<uint32_t> TableAlts;

  // Literal/definition pools (indexed by CInstr::A).
  std::vector<const TypeDefinition *> TypeDefs;
  std::vector<const AttrDefinition *> AttrDefs;
  std::vector<IntVal> Ints;
  std::vector<FloatVal> Floats;
  std::vector<std::string> Strings;
  std::vector<const EnumDef *> EnumDefs;
  std::vector<EnumVal> EnumVals;
  std::vector<CppParamPredicate> CppPreds;
  std::vector<NativeConstraintFn> NativeFns;
  /// Serialization twins of CppPreds/NativeFns: the C++ predicate source
  /// and native-hook name each slot was built from. std::function cannot
  /// be serialized, so the `.irbc` writer persists these and the reader
  /// recompiles/re-resolves per context.
  std::vector<std::string> CppSrcs;
  std::vector<std::string> NativeNames;

  /// AnyOf dispatch: uniqued definition pointer -> (Begin, Count) slice
  /// of TableAlts holding the alternatives rooted in that definition, in
  /// source order.
  struct DispatchTable {
    std::unordered_map<const void *, std::pair<uint32_t, uint32_t>> Map;
  };
  std::vector<DispatchTable> Tables;

  /// --profile-constraints accumulators (relaxed; see getProfiledEvals).
  mutable std::atomic<uint64_t> ProfEvals{0};
  mutable std::atomic<uint64_t> ProfNs{0};

  uint64_t Id;
};

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINTPROGRAM_H
