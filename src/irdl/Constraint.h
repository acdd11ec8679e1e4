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
/// Constraints are immutable trees shared via shared_ptr. Registration
/// compiles every tree into a ConstraintProgram (ConstraintProgram.h),
/// and verification, printing and parsing run only those programs. The
/// tree evaluators below (matches / concreteValue) are the reference
/// semantics that tests compare the programs against. Both evaluate
/// against a MatchContext that carries constraint-variable bindings with
/// a backtracking trail (AnyOf and Not undo the variables bound since
/// their choice point instead of copying all bindings).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINT_H
#define IRDL_IRDL_CONSTRAINT_H

#include "ir/Context.h"

#include <functional>
#include <memory>
#include <optional>

namespace irdl {

class Constraint;
using ConstraintPtr = std::shared_ptr<const Constraint>;
class ConstraintProgram;
using ConstraintProgramPtr = std::shared_ptr<const ConstraintProgram>;

/// Constraint-variable bindings during one match (the ConstraintVars
/// directive, Section 4.6): "constraints that need to be satisfied by the
/// same type at each use". An unbound variable resolves through the
/// owning operation's variable programs (compiled engine) or variable
/// constraints (the test-only tree oracle).
class MatchContext {
public:
  MatchContext() = default;
  explicit MatchContext(const std::vector<ConstraintProgramPtr> *VarPrograms)
      : VarPrograms(VarPrograms),
        Bindings(VarPrograms ? VarPrograms->size() : 0) {}
  explicit MatchContext(const std::vector<ConstraintPtr> *VarConstraints)
      : VarConstraints(VarConstraints),
        Bindings(VarConstraints ? VarConstraints->size() : 0) {}

  unsigned getNumVars() const { return Bindings.size(); }

  /// Starts over for another operation with \p NewVarPrograms: every
  /// variable unbound, the trail empty, and the storage of both kept, so
  /// a context reused across operations stops allocating once it has
  /// seen the largest variable count.
  void reset(const std::vector<ConstraintProgramPtr> *NewVarPrograms) {
    undoTo(0);
    VarPrograms = NewVarPrograms;
    VarConstraints = nullptr;
    Bindings.resize(NewVarPrograms ? NewVarPrograms->size() : 0);
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
    assert(VarPrograms && Index < VarPrograms->size() &&
           (*VarPrograms)[Index] && "no program for this variable");
    return *(*VarPrograms)[Index];
  }
  const ConstraintPtr &getVarConstraint(unsigned Index) const {
    assert(VarConstraints && Index < VarConstraints->size());
    return (*VarConstraints)[Index];
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
  const std::vector<ConstraintProgramPtr> *VarPrograms = nullptr;
  const std::vector<ConstraintPtr> *VarConstraints = nullptr;
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

  static ConstraintPtr anyType();
  static ConstraintPtr anyAttr();
  static ConstraintPtr anyParam();
  /// Base-only match when \p Params is empty and \p BaseOnly is true;
  /// otherwise the parameter count must equal the definition's.
  static ConstraintPtr typeConstraint(const TypeDefinition *Def,
                                      std::vector<ConstraintPtr> Params,
                                      bool BaseOnly);
  static ConstraintPtr attrConstraint(const AttrDefinition *Def,
                                      std::vector<ConstraintPtr> Params,
                                      bool BaseOnly);
  /// Exact match of a fully concrete type.
  static ConstraintPtr typeEq(Type T);
  static ConstraintPtr intKind(unsigned Width, Signedness Sign);
  static ConstraintPtr intEq(IntVal V);
  static ConstraintPtr floatKind(unsigned Width);
  static ConstraintPtr floatEq(FloatVal V);
  static ConstraintPtr stringKind();
  static ConstraintPtr stringEq(std::string S);
  static ConstraintPtr enumKind(const EnumDef *Def);
  static ConstraintPtr enumEq(EnumVal V);
  static ConstraintPtr arrayOf(ConstraintPtr Elem);
  static ConstraintPtr anyArray();
  static ConstraintPtr arrayExact(std::vector<ConstraintPtr> Elems);
  static ConstraintPtr opaqueKind(std::string ParamTypeName);
  static ConstraintPtr anyOf(std::vector<ConstraintPtr> Cs);
  static ConstraintPtr conjunction(std::vector<ConstraintPtr> Cs);
  static ConstraintPtr negation(ConstraintPtr C);
  static ConstraintPtr var(unsigned Index, std::string Name);
  static ConstraintPtr cpp(ConstraintPtr Base, CppParamPredicate Pred,
                           std::string Source);
  static ConstraintPtr native(ConstraintPtr Base, NativeConstraintFn Fn,
                              std::string Name);
  /// Wraps a use of a named Constraint declaration: behaves exactly like
  /// \p Inner but prints as \p QualifiedName (e.g. "cmath.Bounded"),
  /// keeping pretty-printed specs reparseable.
  static ConstraintPtr named(ConstraintPtr Inner,
                             std::string QualifiedName);

  //===------------------------------------------------------------------===//
  // Accessors
  //===------------------------------------------------------------------===//

  Kind getKind() const { return K; }
  const std::vector<ConstraintPtr> &getChildren() const { return Children; }
  const TypeDefinition *getTypeDef() const { return TDef; }
  const AttrDefinition *getAttrDef() const { return ADef; }
  bool isBaseOnly() const { return BaseOnly; }
  const IntVal &getIntVal() const { return IV; }
  const FloatVal &getFloatVal() const { return FV; }
  const std::string &getString() const { return Str; }
  const EnumDef *getEnumDef() const { return EDef; }
  const EnumVal &getEnumVal() const { return EV; }
  unsigned getVarIndex() const { return VarIndex; }
  const CppParamPredicate &getCppPred() const { return CppPred; }
  const NativeConstraintFn &getNativeFn() const { return NativeFn; }
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
  /// Only the factories can name it, so only they construct nodes (one
  /// allocation each, through make_shared).
  struct FactoryTag {};

public:
  Constraint(FactoryTag, Kind K) : K(K) {}

private:

  /// Folds the construction-time property bits from Children (called by
  /// every factory after the children are in place).
  void computeFlags();

  Kind K;
  bool HasCpp = false;
  bool HasVar = false;
  unsigned Height = 1;
  std::vector<ConstraintPtr> Children;
  const TypeDefinition *TDef = nullptr;
  const AttrDefinition *ADef = nullptr;
  bool BaseOnly = false;
  IntVal IV;
  FloatVal FV;
  std::string Str; // string literal / var name / opaque kind / cpp source
  const EnumDef *EDef = nullptr;
  EnumVal EV;
  unsigned VarIndex = 0;
  CppParamPredicate CppPred;
  NativeConstraintFn NativeFn;
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
  std::optional<unsigned>
  find(const std::vector<std::shared_ptr<const T>> &Vars) {
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

/// VarCycleFinder::find on the calling thread's finder.
template <typename T>
std::optional<unsigned>
findUnguardedVarCycle(const std::vector<std::shared_ptr<const T>> &Vars) {
  if (Vars.empty())
    return std::nullopt;
  return VarCycleFinder::forThread().find(Vars);
}

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINT_H
