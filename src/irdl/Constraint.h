//===- Constraint.h - The IRDL constraint algebra ----------------*- C++ -*-===//
///
/// \file
/// The resolved form of IRDL constraints (Figure 2 of the paper): type and
/// attribute constraints (equality, base-name, parametric-with-nested-
/// constraints), parameter constraints (integer kinds and literals,
/// strings, floats, enums, arrays, opaque parameter kinds), the generic
/// combinators AnyOf / And / Not, constraint variables (unification), and
/// the IRDL-C++ escape hatches (interpreted C++ expressions and native
/// callbacks).
///
/// Constraints are immutable trees placed in the bump storage of the spec
/// that owns them (support/BumpStorage.h): a node points to its children
/// with plain pointers, and a ConstraintPtr handed out is an aliasing
/// shared_ptr of the storage's owner, so any handle keeps the whole tree
/// alive. Registration compiles every tree into a ConstraintProgram
/// (ConstraintProgram.h), and verification, printing and parsing run
/// only those programs. The tree evaluators below (matches /
/// concreteValue) are the reference semantics that tests compare the
/// programs against. Both evaluate against a MatchContext that carries
/// constraint-variable bindings with a backtracking trail (AnyOf and Not
/// undo the variables bound since their choice point instead of copying
/// all bindings).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINT_H
#define IRDL_IRDL_CONSTRAINT_H

#include "ir/Context.h"
#include "support/BumpStorage.h"

#include <functional>
#include <initializer_list>
#include <memory>
#include <optional>
#include <span>

namespace irdl {

class Constraint;
using ConstraintPtr = std::shared_ptr<const Constraint>;
class ConstraintProgram;
using ConstraintProgramPtr = std::shared_ptr<const ConstraintProgram>;

/// The storage a constraint tree (and the programs compiled from it) is
/// built in. Handles to the tree share its ownership: a DialectSpec hands
/// out an aliasing pointer to its own storage, a test may make_shared
/// one.
using SpecStoragePtr = std::shared_ptr<BumpStorage>;

/// Constraint-variable bindings during one match (the ConstraintVars
/// directive, Section 4.6): "constraints that need to be satisfied by the
/// same type at each use". An unbound variable resolves through the
/// owning operation's variable programs (compiled engine) or variable
/// constraints (the test-only tree oracle).
class MatchContext {
public:
  MatchContext() = default;
  explicit MatchContext(std::span<const ConstraintProgram *const> VarPrograms)
      : VarPrograms(VarPrograms), Bindings(VarPrograms.size()) {}
  explicit MatchContext(std::span<const Constraint *const> VarConstraints)
      : VarConstraints(VarConstraints), Bindings(VarConstraints.size()) {}

  unsigned getNumVars() const { return Bindings.size(); }

  /// Starts over for another operation with \p NewVarPrograms: every
  /// variable unbound, the trail empty, and the storage of both kept, so
  /// a context reused across operations stops allocating once it has
  /// seen the largest variable count.
  void reset(std::span<const ConstraintProgram *const> NewVarPrograms) {
    undoTo(0);
    VarPrograms = NewVarPrograms;
    VarConstraints = {};
    Bindings.resize(NewVarPrograms.size());
  }

  const std::optional<ParamValue> &getBinding(unsigned Index) const {
    assert(Index < Bindings.size() && "variable index out of range");
    return Bindings[Index];
  }
  void bind(unsigned Index, ParamValue V) {
    assert(Index < Bindings.size() && "variable index out of range");
    // Fresh bindings are recorded on the trail so backtracking can undo
    // them. Rebinds (only the declarative-format parser overwrites an
    // existing binding, never the evaluators) keep the original trail
    // entry: the variable stays bound across an undo to an earlier mark,
    // which is exactly the pre-trail behavior.
    if (!Bindings[Index])
      Trail.push_back(Index);
    Bindings[Index] = std::move(V);
  }
  const ConstraintProgram &getVarProgram(unsigned Index) const {
    assert(Index < VarPrograms.size() && VarPrograms[Index] &&
           "no program for this variable");
    return *VarPrograms[Index];
  }
  const Constraint &getVarConstraint(unsigned Index) const {
    assert(Index < VarConstraints.size() && VarConstraints[Index]);
    return *VarConstraints[Index];
  }

  /// Backtracking for AnyOf/Not: mark() opens a choice point, undoTo()
  /// unbinds exactly the variables bound since — O(bound since mark)
  /// instead of the former O(all vars) snapshot copy per branch.
  using Mark = size_t;
  Mark mark() const { return Trail.size(); }
  void undoTo(Mark M) {
    assert(M <= Trail.size() && "mark from a later choice point");
    while (Trail.size() > M) {
      Bindings[Trail.back()].reset();
      Trail.pop_back();
    }
  }

private:
  std::span<const ConstraintProgram *const> VarPrograms;
  std::span<const Constraint *const> VarConstraints;
  std::vector<std::optional<ParamValue>> Bindings;
  /// Indices of bound variables, in binding order.
  std::vector<unsigned> Trail;
};

/// A native (C++) predicate over one parameter value — the general escape
/// hatch IRDL-C++ provides when the interpreted expression subset is not
/// enough.
using NativeConstraintFn = std::function<bool(const ParamValue &)>;

/// An interpreted IRDL-C++ predicate compiled from a CppConstraint string.
using CppParamPredicate = std::function<bool(const ParamValue &)>;

/// One node of a resolved constraint tree.
class Constraint {
public:
  enum class Kind {
    AnyType,     // !AnyType
    AnyAttr,     // #AnyAttr
    AnyParam,    // AnyParam
    TypeParams,  // !name or !name<pc...>: base match + per-param children
    AttrParams,  // #name or #name<pc...>
    IntKind,     // int8_t .. uint64_t (width + signedness)
    IntEq,       // 3 : int32_t
    FloatKind,   // float32_t / float64_t / float (Width 0 = any)
    FloatEq,     // exact float literal
    StringKind,  // string
    StringEq,    // "literal"
    EnumKind,    // any constructor of an enum
    EnumEq,      // a particular enum constructor
    ArrayOf,     // array<pc>: all elements satisfy pc (no child = any array)
    ArrayExact,  // [pc1, ..., pcN]
    OpaqueKind,  // a TypeOrAttrParam-declared opaque kind (by name)
    AnyOf,       // AnyOf<c...>
    And,         // And<c...>
    Not,         // Not<c>
    Var,         // constraint variable reference
    Cpp,         // base constraint + interpreted C++ predicate
    Native,      // base constraint + registered native callback
    Named,       // a use of a named Constraint declaration
  };

  //===------------------------------------------------------------------===//
  // Factories
  //===------------------------------------------------------------------===//
  //
  // Each builds one node in \p S and returns a handle sharing S's owner.
  // Children must live in the same storage (a node points to them
  // without owning them).

  static ConstraintPtr anyType(const SpecStoragePtr &S);
  static ConstraintPtr anyAttr(const SpecStoragePtr &S);
  static ConstraintPtr anyParam(const SpecStoragePtr &S);
  /// Base-only match when \p Params is empty and \p BaseOnly is true;
  /// otherwise the parameter count must equal the definition's.
  static ConstraintPtr typeConstraint(const SpecStoragePtr &S,
                                      const TypeDefinition *Def,
                                      std::span<const ConstraintPtr> Params,
                                      bool BaseOnly);
  static ConstraintPtr
  typeConstraint(const SpecStoragePtr &S, const TypeDefinition *Def,
                 std::initializer_list<ConstraintPtr> Params, bool BaseOnly) {
    return typeConstraint(S, Def, std::span(Params.begin(), Params.size()),
                          BaseOnly);
  }
  static ConstraintPtr attrConstraint(const SpecStoragePtr &S,
                                      const AttrDefinition *Def,
                                      std::span<const ConstraintPtr> Params,
                                      bool BaseOnly);
  static ConstraintPtr
  attrConstraint(const SpecStoragePtr &S, const AttrDefinition *Def,
                 std::initializer_list<ConstraintPtr> Params, bool BaseOnly) {
    return attrConstraint(S, Def, std::span(Params.begin(), Params.size()),
                          BaseOnly);
  }
  /// Exact match of a fully concrete type.
  static ConstraintPtr typeEq(const SpecStoragePtr &S, Type T);
  static ConstraintPtr intKind(const SpecStoragePtr &S, unsigned Width,
                               Signedness Sign);
  static ConstraintPtr intEq(const SpecStoragePtr &S, IntVal V);
  static ConstraintPtr floatKind(const SpecStoragePtr &S, unsigned Width);
  static ConstraintPtr floatEq(const SpecStoragePtr &S, FloatVal V);
  static ConstraintPtr stringKind(const SpecStoragePtr &S);
  static ConstraintPtr stringEq(const SpecStoragePtr &S, std::string_view Str);
  static ConstraintPtr enumKind(const SpecStoragePtr &S, const EnumDef *Def);
  static ConstraintPtr enumEq(const SpecStoragePtr &S, EnumVal V);
  static ConstraintPtr arrayOf(const SpecStoragePtr &S, ConstraintPtr Elem);
  static ConstraintPtr anyArray(const SpecStoragePtr &S);
  static ConstraintPtr arrayExact(const SpecStoragePtr &S,
                                  std::span<const ConstraintPtr> Elems);
  static ConstraintPtr arrayExact(const SpecStoragePtr &S,
                                  std::initializer_list<ConstraintPtr> Elems) {
    return arrayExact(S, std::span(Elems.begin(), Elems.size()));
  }
  static ConstraintPtr opaqueKind(const SpecStoragePtr &S,
                                  std::string_view ParamTypeName);
  static ConstraintPtr anyOf(const SpecStoragePtr &S,
                             std::span<const ConstraintPtr> Cs);
  static ConstraintPtr anyOf(const SpecStoragePtr &S,
                             std::initializer_list<ConstraintPtr> Cs) {
    return anyOf(S, std::span(Cs.begin(), Cs.size()));
  }
  static ConstraintPtr conjunction(const SpecStoragePtr &S,
                                   std::span<const ConstraintPtr> Cs);
  static ConstraintPtr conjunction(const SpecStoragePtr &S,
                                   std::initializer_list<ConstraintPtr> Cs) {
    return conjunction(S, std::span(Cs.begin(), Cs.size()));
  }
  static ConstraintPtr negation(const SpecStoragePtr &S, ConstraintPtr C);
  static ConstraintPtr var(const SpecStoragePtr &S, unsigned Index,
                           std::string_view Name);
  static ConstraintPtr cpp(const SpecStoragePtr &S, ConstraintPtr Base,
                           CppParamPredicate Pred, std::string_view Source);
  static ConstraintPtr native(const SpecStoragePtr &S, ConstraintPtr Base,
                              NativeConstraintFn Fn, std::string_view Name);
  /// Wraps a use of a named Constraint declaration: behaves exactly like
  /// \p Inner but prints as \p QualifiedName (e.g. "cmath.Bounded"),
  /// keeping pretty-printed specs reparseable.
  static ConstraintPtr named(const SpecStoragePtr &S, ConstraintPtr Inner,
                             std::string_view QualifiedName);

  //===------------------------------------------------------------------===//
  // Accessors
  //===------------------------------------------------------------------===//

  Kind getKind() const { return K; }
  std::span<const Constraint *const> getChildren() const {
    return {Children, NumChildren};
  }
  /// The storage this node (and its whole tree) lives in.
  BumpStorage &getStorage() const { return *Storage; }
  const TypeDefinition *getTypeDef() const { return TDef; }
  const AttrDefinition *getAttrDef() const { return ADef; }
  bool isBaseOnly() const { return BaseOnly; }
  const IntVal &getIntVal() const { return IV; }
  const FloatVal &getFloatVal() const { return FV; }
  std::string_view getString() const { return Str; }
  const EnumDef *getEnumDef() const { return EDef; }
  const EnumVal &getEnumVal() const { return EV; }
  unsigned getVarIndex() const { return VarIndex; }
  /// The predicate of a Cpp node or the callback of a Native node, owned
  /// by the tree's storage; null for every other kind.
  const CppParamPredicate *getCppPred() const { return CppPred; }
  const NativeConstraintFn *getNativeFn() const { return NativeFn; }
  unsigned getIntWidth() const { return IV.Width; }
  Signedness getIntSign() const { return IV.Sign; }

  /// True if this constraint (or any child) carries IRDL-C++ (interpreted
  /// or native) — the classification used by the paper's Figures 9–11.
  /// Computed once at construction (queried per verification by the
  /// expressibility benches and the constraint compiler's cacheability
  /// check, so a per-call tree walk would be pure waste).
  bool requiresCpp() const { return HasCpp; }

  /// True if any node is a constraint-variable reference. Also a
  /// construction-time bit.
  bool referencesVar() const { return HasVar; }

  /// Levels of the tree rooted here, 1 for a leaf. Also computed at
  /// construction; the frontend bounds it by MaxNestingDepth.
  unsigned getHeight() const { return Height; }

  //===------------------------------------------------------------------===//
  // Evaluation
  //===------------------------------------------------------------------===//

  /// Returns true if \p V satisfies the constraint under \p MC (variable
  /// bindings may be extended). Reference oracle: the runtime runs the
  /// compiled program instead.
  bool matches(const ParamValue &V, MatchContext &MC) const;

  /// If the constraint pins down exactly one value given the bindings in
  /// \p MC, returns it. A derived type or attribute is uniqued in \p Ctx,
  /// the context of the IR being built. Reference oracle for
  /// ConstraintProgram::concreteValue.
  std::optional<ParamValue> concreteValue(const MatchContext &MC,
                                          IRContext &Ctx) const;

  /// Appends the constraint variables this constraint evaluates against
  /// the very value it matches: Var references not nested inside a
  /// type/attribute parameter or an array element.
  void collectUnguardedVars(std::vector<unsigned> &Out) const;

  /// Renders the constraint in IRDL surface syntax (for diagnostics and
  /// the IRDL pretty-printer).
  std::string str() const;

private:
  Constraint(BumpStorage &Storage, Kind K) : Storage(&Storage), K(K) {}

  /// A new node of kind \p K in \p S, with a copy of \p Kids as its
  /// children.
  static Constraint *make(BumpStorage &S, Kind K,
                          std::span<const ConstraintPtr> Kids = {});

  /// Folds the construction-time property bits from Children (called by
  /// every factory after the children are in place).
  void computeFlags();

  BumpStorage *Storage;
  Kind K;
  bool HasCpp = false;
  bool HasVar = false;
  bool BaseOnly = false;
  uint32_t NumChildren = 0;
  unsigned Height = 1;
  unsigned VarIndex = 0;
  const Constraint *const *Children = nullptr;
  const TypeDefinition *TDef = nullptr;
  const AttrDefinition *ADef = nullptr;
  IntVal IV;
  FloatVal FV;
  std::string_view Str; // string literal / var name / opaque kind / source
  const EnumDef *EDef = nullptr;
  EnumVal EV;
  const CppParamPredicate *CppPred = nullptr;
  const NativeConstraintFn *NativeFn = nullptr;
};

/// Finds a constraint variable that reaches itself through unguarded
/// references (see Constraint::collectUnguardedVars). Matching such a
/// variable recurses on the same value forever, while a reference under a
/// parameter or an array element descends into a strictly smaller value
/// and terminates. The finder keeps its storage from call to call, so the
/// per-thread one that findUnguardedVarCycle uses stops allocating once
/// it has seen the largest operation.
class VarCycleFinder {
public:
  /// A variable of \p Vars (variable constraints or variable programs,
  /// ConstraintProgram::collectUnguardedVars) on such a cycle, or nullopt
  /// if there is none.
  template <typename T>
  std::optional<unsigned> find(std::span<const T *const> Vars) {
    Refs.clear();
    RefsBegin.clear();
    for (const auto &V : Vars) {
      RefsBegin.push_back((uint32_t)Refs.size());
      V->collectUnguardedVars(Refs);
    }
    RefsBegin.push_back((uint32_t)Refs.size());
    return search();
  }

  /// The calling thread's finder.
  static VarCycleFinder &forThread();

private:
  std::optional<unsigned> search();

  /// Variable V references Refs[RefsBegin[V], RefsBegin[V + 1]).
  std::vector<unsigned> Refs;
  std::vector<uint32_t> RefsBegin;
  std::vector<uint8_t> State;
  std::vector<std::pair<unsigned, uint32_t>> Stack; // (variable, next ref)
};

/// VarCycleFinder::find on the calling thread's finder. The overload for
/// variable programs is in ConstraintProgram.h.
inline std::optional<unsigned>
findUnguardedVarCycle(std::span<const Constraint *const> Vars) {
  if (Vars.empty())
    return std::nullopt;
  return VarCycleFinder::forThread().find(Vars);
}

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINT_H
