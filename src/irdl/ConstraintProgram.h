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
/// Three mechanisms make the compiled engine fast (docs/constraint-
/// compiler.md):
///
///  * trail-based backtracking — AnyOf/Not record a MatchContext mark and
///    undo only the variables bound since (shared with the tree oracle);
///  * AnyOf dispatch tables — when every alternative is rooted in a base
///    TypeParams/AttrParams/TypeEq check, a hash on the value's uniqued
///    definition pointer jumps directly to the plausible alternatives;
///  * a memoized verification cache — variable-free, C++-free subprograms
///    over uniqued Type/Attribute values cache their verdict keyed on
///    (instruction, uniqued storage pointer), sharded 16 ways so
///    concurrent verifies (one per irdl_serve connection) rarely contend.
///
/// Execution is semantically identical to Constraint::matches — the tree
/// interpreter remains the reference oracle behind --compiled-constraints.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINTPROGRAM_H
#define IRDL_IRDL_CONSTRAINTPROGRAM_H

#include "irdl/Constraint.h"

#include <array>
#include <atomic>
#include <shared_mutex>
#include <unordered_map>

namespace irdl {

class ConstraintProgram;
using ConstraintProgramPtr = std::shared_ptr<const ConstraintProgram>;

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
  /// Instruction flag bits (FlagBaseOnly / FlagMemo).
  uint8_t Flags = 0;
  /// Number of child programs.
  uint16_t NumChildren = 0;
  /// Pool index; meaning depends on Op (see COpcode comments).
  uint32_t A = 0;
  /// First child slot in ConstraintProgram::Children.
  uint32_t ChildrenBegin = 0;

  static constexpr uint8_t FlagBaseOnly = 1u << 0;
  /// Entry point of a memoizable subprogram (variable-free, C++-free):
  /// when the matched value is a uniqued Type/Attribute, the verdict is
  /// served from / recorded into the program's verification cache.
  static constexpr uint8_t FlagMemo = 1u << 1;
};

/// A compiled, immutable constraint program. Instruction 0 is the entry
/// point. Thread-safe to execute concurrently (the verification cache is
/// internally sharded and locked; everything else is read-only).
class ConstraintProgram {
public:
  ConstraintProgram();

  /// Executes the program against \p V under the bindings in \p MC.
  /// Exactly equivalent to Constraint::matches of the source tree:
  /// variables bound by a successful run stay bound in \p MC, failed
  /// AnyOf branches are undone through the trail.
  bool run(const ParamValue &V, MatchContext &MC) const;

  /// If the program pins down exactly one value given the bindings in
  /// \p MC, returns it — the compiled counterpart of
  /// Constraint::concreteValue, used by declarative-format inference.
  std::optional<ParamValue> concreteValue(const MatchContext &MC) const;

  //===------------------------------------------------------------------===//
  // Introspection (tests, docs, statistics)
  //===------------------------------------------------------------------===//

  size_t getNumInstrs() const { return InstrCount; }
  const CInstr &getInstr(size_t I) const { return InstrArr[I]; }
  /// True when the flat arrays alias external memory (an mmap'd `.irbc`
  /// buffer) instead of owned vectors — the zero-copy load path.
  bool isExternallyBacked() const { return Backing != nullptr; }
  /// Globally unique id (monotone counter), so cache keys and traces can
  /// name a program even after its spec is gone.
  uint64_t getId() const { return Id; }

  /// Profiled executions / cumulative execution nanoseconds, accumulated
  /// by run() only while constraintProfilingEnabled() (see
  /// ConstraintProfiler.h). Nested Var programs account their time in
  /// both the outer and the inner program (non-exclusive).
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
  /// Entries currently held by the verification cache (all shards).
  size_t getMemoCacheSize() const;
  /// Drops every cached verdict (tests; specs owning stale uniqued
  /// pointers must clear before their IRContext dies if the program is
  /// reused against a new context).
  void clearMemoCache() const;

  /// One-line-per-instruction disassembly, e.g.
  /// "0: AnyOfTable tbl=0 n=16 [1..16]".
  std::string dump() const;

private:
  friend class ConstraintCompiler;
  friend class detail::ConstraintProgramBuilder;
  friend class bytecode::ProgramWriter;
  friend class bytecode::ProgramReader;

  bool exec(uint32_t Pc, const ParamValue &V, MatchContext &MC) const;
  std::optional<ParamValue> concreteAt(uint32_t Pc,
                                       const MatchContext &MC) const;

  /// Points the flat-array views at the owned vectors. The builder (and
  /// any other producer that fills OwnedInstrs/OwnedChildren/
  /// OwnedTableAlts) must call this exactly once, after the vectors stop
  /// growing.
  void finalizeOwnedStorage() {
    InstrArr = OwnedInstrs.data();
    InstrCount = static_cast<uint32_t>(OwnedInstrs.size());
    ChildArr = OwnedChildren.data();
    ChildCount = static_cast<uint32_t>(OwnedChildren.size());
    TableAltArr = OwnedTableAlts.data();
    TableAltCount = static_cast<uint32_t>(OwnedTableAlts.size());
  }

  /// The hot-path storage: raw views over either the Owned* vectors
  /// below or an externally owned read-only mapping (Backing). exec()
  /// touches only these — no pointer fixups, no indirection through the
  /// vectors — which is what lets an mmap'd `.irbc` Programs section
  /// back them directly.
  const CInstr *InstrArr = nullptr;
  uint32_t InstrCount = 0;
  const uint32_t *ChildArr = nullptr;
  uint32_t ChildCount = 0;
  const uint32_t *TableAltArr = nullptr;
  uint32_t TableAltCount = 0;

  /// Owned storage for compiler-built (or copy-decoded) programs; empty
  /// when the views alias external memory.
  std::vector<CInstr> OwnedInstrs;
  std::vector<uint32_t> OwnedChildren;
  std::vector<uint32_t> OwnedTableAlts;

  /// Keep-alive for externally backed storage (the mmap'd buffer).
  std::shared_ptr<const void> Backing;

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
  std::vector<uint32_t> TableAlts;

  /// Programs compiled for the owning operation's constraint variables;
  /// slot V backs the Var opcode with A == V. Null slots (or a shorter
  /// vector) fall back to the tree constraint in the MatchContext.
  std::vector<ConstraintProgramPtr> VarPrograms;

  //===------------------------------------------------------------------===//
  // Memoized verification cache
  //===------------------------------------------------------------------===//

  struct MemoKey {
    uint32_t Pc;
    const void *Ptr;
    bool operator==(const MemoKey &RHS) const = default;
  };
  struct MemoKeyHash {
    size_t operator()(const MemoKey &K) const {
      // Same splitmix-style mix as the uniquer's shard hash.
      uint64_t H = (uint64_t)K.Pc * 0x9E3779B97F4A7C15ull;
      H ^= (uint64_t)(uintptr_t)K.Ptr + 0x9E3779B97F4A7C15ull +
           (H << 6) + (H >> 2);
      return (size_t)H;
    }
  };
  /// Sharded like the IRContext uniquer pools: the shard is picked by the
  /// key hash, lookups take the shared side, and inserts re-check under
  /// the exclusive side, so concurrent verifies rarely contend.
  struct MemoShard {
    mutable std::shared_mutex Mu;
    std::unordered_map<MemoKey, bool, MemoKeyHash> Map;
  };
  static constexpr size_t NumMemoShards = 16;
  mutable std::array<MemoShard, NumMemoShards> MemoShards;

  /// --profile-constraints accumulators (relaxed; see getProfiledEvals).
  mutable std::atomic<uint64_t> ProfEvals{0};
  mutable std::atomic<uint64_t> ProfNs{0};

  uint64_t Id;
};

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINTPROGRAM_H
