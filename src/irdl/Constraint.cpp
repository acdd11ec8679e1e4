//===- Constraint.cpp -----------------------------------------------===//

#include "irdl/Constraint.h"

#include "ir/Printer.h"
#include "support/Statistic.h"

#include <sstream>

using namespace irdl;

IRDL_STATISTIC(Constraint, NumConstraintEvals,
               "constraint nodes evaluated");
IRDL_STATISTIC(Constraint, NumVarBindings,
               "constraint variables bound to a value");
IRDL_STATISTIC(Constraint, NumVarBindingHits,
               "variable uses resolved against an existing binding");
IRDL_STATISTIC(Constraint, NumAnyOfRollbacks,
               "AnyOf branches rolled back after a failed match");
IRDL_STATISTIC(Constraint, NumCppPredEvals,
               "interpreted IRDL-C++ predicate evaluations");
IRDL_STATISTIC(Constraint, NumNativePredEvals,
               "native-callback predicate evaluations");

/// Per-kind evaluation counters, indexed by Constraint::Kind. Kept in one
/// table (rather than 23 IRDL_STATISTIC declarations) but registered in
/// the same registry under the ConstraintKind group.
static Statistic &kindStat(Constraint::Kind K) {
  static Statistic Stats[] = {
      {"ConstraintKind", "AnyType", "evals of AnyType"},
      {"ConstraintKind", "AnyAttr", "evals of AnyAttr"},
      {"ConstraintKind", "AnyParam", "evals of AnyParam"},
      {"ConstraintKind", "TypeParams", "evals of parametric-type"},
      {"ConstraintKind", "AttrParams", "evals of parametric-attr"},
      {"ConstraintKind", "IntKind", "evals of integer-kind"},
      {"ConstraintKind", "IntEq", "evals of integer-literal"},
      {"ConstraintKind", "FloatKind", "evals of float-kind"},
      {"ConstraintKind", "FloatEq", "evals of float-literal"},
      {"ConstraintKind", "StringKind", "evals of string-kind"},
      {"ConstraintKind", "StringEq", "evals of string-literal"},
      {"ConstraintKind", "EnumKind", "evals of enum-kind"},
      {"ConstraintKind", "EnumEq", "evals of enum-constructor"},
      {"ConstraintKind", "ArrayOf", "evals of array-of"},
      {"ConstraintKind", "ArrayExact", "evals of fixed-array"},
      {"ConstraintKind", "OpaqueKind", "evals of opaque-kind"},
      {"ConstraintKind", "AnyOf", "evals of AnyOf"},
      {"ConstraintKind", "And", "evals of And"},
      {"ConstraintKind", "Not", "evals of Not"},
      {"ConstraintKind", "Var", "evals of constraint-variable"},
      {"ConstraintKind", "Cpp", "evals of IRDL-C++ constraints"},
      {"ConstraintKind", "Native", "evals of native constraints"},
      {"ConstraintKind", "Named", "evals of named-constraint uses"},
  };
  static_assert(sizeof(Stats) / sizeof(Stats[0]) ==
                    (size_t)Constraint::Kind::Named + 1,
                "kind table out of sync with Constraint::Kind");
  return Stats[(size_t)K];
}

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

// Private-constructor access: the factories are members, so they can build
// directly.
#define MAKE(KIND)                                                          \
  std::shared_ptr<Constraint> C(new Constraint(Kind::KIND))

ConstraintPtr Constraint::anyType() {
  MAKE(AnyType);
  C->computeFlags();
  return C;
}
ConstraintPtr Constraint::anyAttr() {
  MAKE(AnyAttr);
  C->computeFlags();
  return C;
}
ConstraintPtr Constraint::anyParam() {
  MAKE(AnyParam);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::typeConstraint(const TypeDefinition *Def,
                                         std::vector<ConstraintPtr> Params,
                                         bool BaseOnly) {
  assert(Def && "null type definition");
  assert((BaseOnly || Params.size() == Def->getNumParams()) &&
         "parameter constraint count mismatch");
  MAKE(TypeParams);
  C->TDef = Def;
  C->Children = std::move(Params);
  C->BaseOnly = BaseOnly;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::attrConstraint(const AttrDefinition *Def,
                                         std::vector<ConstraintPtr> Params,
                                         bool BaseOnly) {
  assert(Def && "null attribute definition");
  MAKE(AttrParams);
  C->ADef = Def;
  C->Children = std::move(Params);
  C->BaseOnly = BaseOnly;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::typeEq(Type T) {
  std::vector<ConstraintPtr> Params;
  for (const ParamValue &P : T.getParams()) {
    switch (P.getKind()) {
    case ParamValue::Kind::Type:
      Params.push_back(typeEq(P.getType()));
      break;
    case ParamValue::Kind::Int:
      Params.push_back(intEq(P.getInt()));
      break;
    case ParamValue::Kind::Float:
      Params.push_back(floatEq(P.getFloat()));
      break;
    case ParamValue::Kind::String:
      Params.push_back(stringEq(P.getString()));
      break;
    case ParamValue::Kind::Enum:
      Params.push_back(enumEq(P.getEnum()));
      break;
    default: {
      // Fall back to a native equality check for the exotic kinds.
      ParamValue Expected = P;
      Params.push_back(native(
          anyParam(),
          [Expected](const ParamValue &V) { return V == Expected; },
          "exact-param"));
      break;
    }
    }
  }
  return typeConstraint(T.getDef(), std::move(Params), /*BaseOnly=*/false);
}

ConstraintPtr Constraint::intKind(unsigned Width, Signedness Sign) {
  MAKE(IntKind);
  C->IV = IntVal{static_cast<uint16_t>(Width), Sign, 0};
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::intEq(IntVal V) {
  MAKE(IntEq);
  C->IV = V;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::floatKind(unsigned Width) {
  MAKE(FloatKind);
  C->FV = FloatVal{static_cast<uint16_t>(Width), 0.0};
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::floatEq(FloatVal V) {
  MAKE(FloatEq);
  C->FV = V;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::stringKind() {
  MAKE(StringKind);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::stringEq(std::string S) {
  MAKE(StringEq);
  C->Str = std::move(S);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::enumKind(const EnumDef *Def) {
  MAKE(EnumKind);
  C->EDef = Def;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::enumEq(EnumVal V) {
  MAKE(EnumEq);
  C->EV = V;
  C->EDef = V.Def;
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::arrayOf(ConstraintPtr Elem) {
  MAKE(ArrayOf);
  C->Children.push_back(std::move(Elem));
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::anyArray() {
  MAKE(ArrayOf);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::arrayExact(std::vector<ConstraintPtr> Elems) {
  MAKE(ArrayExact);
  C->Children = std::move(Elems);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::opaqueKind(std::string ParamTypeName) {
  MAKE(OpaqueKind);
  C->Str = std::move(ParamTypeName);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::anyOf(std::vector<ConstraintPtr> Cs) {
  MAKE(AnyOf);
  C->Children = std::move(Cs);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::conjunction(std::vector<ConstraintPtr> Cs) {
  MAKE(And);
  C->Children = std::move(Cs);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::negation(ConstraintPtr Inner) {
  MAKE(Not);
  C->Children.push_back(std::move(Inner));
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::var(unsigned Index, std::string Name) {
  MAKE(Var);
  C->VarIndex = Index;
  C->Str = std::move(Name);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::cpp(ConstraintPtr Base, CppParamPredicate Pred,
                              std::string Source) {
  MAKE(Cpp);
  C->Children.push_back(std::move(Base));
  C->CppPred = std::move(Pred);
  C->Str = std::move(Source);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::native(ConstraintPtr Base, NativeConstraintFn Fn,
                                 std::string Name) {
  MAKE(Native);
  C->Children.push_back(std::move(Base));
  C->NativeFn = std::move(Fn);
  C->Str = std::move(Name);
  C->computeFlags();
  return C;
}

ConstraintPtr Constraint::named(ConstraintPtr Inner,
                                std::string QualifiedName) {
  MAKE(Named);
  C->Children.push_back(std::move(Inner));
  C->Str = std::move(QualifiedName);
  C->computeFlags();
  return C;
}

#undef MAKE

//===----------------------------------------------------------------------===//
// Introspection
//===----------------------------------------------------------------------===//

void Constraint::computeFlags() {
  // Children are immutable and fully constructed here, so their bits are
  // final: one O(children) fold per node replaces the former O(subtree)
  // walk on every requiresCpp()/referencesVar() query.
  HasCpp = K == Kind::Cpp || K == Kind::Native;
  HasVar = K == Kind::Var;
  for (const ConstraintPtr &Child : Children) {
    HasCpp |= Child->HasCpp;
    HasVar |= Child->HasVar;
  }
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

bool Constraint::matches(const ParamValue &V, MatchContext &MC) const {
  ++NumConstraintEvals;
  ++kindStat(K);
  switch (K) {
  case Kind::AnyType:
    return V.isType();
  case Kind::AnyAttr:
    return V.isAttr();
  case Kind::AnyParam:
    return true;
  case Kind::TypeParams: {
    if (!V.isType() || V.getType().getDef() != TDef)
      return false;
    if (BaseOnly)
      return true;
    const auto &Params = V.getType().getParams();
    if (Params.size() != Children.size())
      return false;
    for (size_t I = 0, E = Params.size(); I != E; ++I)
      if (!Children[I]->matches(Params[I], MC))
        return false;
    return true;
  }
  case Kind::AttrParams: {
    if (!V.isAttr() || V.getAttr().getDef() != ADef)
      return false;
    if (BaseOnly)
      return true;
    const auto &Params = V.getAttr().getParams();
    if (Params.size() != Children.size())
      return false;
    for (size_t I = 0, E = Params.size(); I != E; ++I)
      if (!Children[I]->matches(Params[I], MC))
        return false;
    return true;
  }
  case Kind::IntKind:
    return V.isInt() && V.getInt().Width == IV.Width &&
           V.getInt().Sign == IV.Sign;
  case Kind::IntEq:
    return V.isInt() && V.getInt() == IV;
  case Kind::FloatKind:
    return V.isFloat() && (FV.Width == 0 || V.getFloat().Width == FV.Width);
  case Kind::FloatEq:
    return V.isFloat() && V.getFloat() == FV;
  case Kind::StringKind:
    return V.isString();
  case Kind::StringEq:
    return V.isString() && V.getString() == Str;
  case Kind::EnumKind:
  case Kind::EnumEq: {
    // Enum constraints accept both raw enum parameters and builtin.enum
    // attributes wrapping one (how enums appear as op attributes).
    const ParamValue *Inner = &V;
    ParamValue Unwrapped;
    if (V.isAttr()) {
      const IRContext *Ctx = EDef->getDialect()->getContext();
      if (V.getAttr().getDef() != Ctx->getEnumAttrDef())
        return false;
      Unwrapped = V.getAttr().getParams()[0];
      Inner = &Unwrapped;
    }
    if (!Inner->isEnum())
      return false;
    return K == Kind::EnumKind ? Inner->getEnum().Def == EDef
                               : Inner->getEnum() == EV;
  }
  case Kind::ArrayOf: {
    if (!V.isArray())
      return false;
    if (Children.empty())
      return true;
    for (const ParamValue &Elem : V.getArray())
      if (!Children[0]->matches(Elem, MC))
        return false;
    return true;
  }
  case Kind::ArrayExact: {
    if (!V.isArray() || V.getArray().size() != Children.size())
      return false;
    for (size_t I = 0, E = Children.size(); I != E; ++I)
      if (!Children[I]->matches(V.getArray()[I], MC))
        return false;
    return true;
  }
  case Kind::OpaqueKind:
    return V.isOpaque() && V.getOpaque().ParamTypeName == Str;
  case Kind::AnyOf: {
    for (const ConstraintPtr &Child : Children) {
      MatchContext::Mark M = MC.mark();
      if (Child->matches(V, MC))
        return true;
      ++NumAnyOfRollbacks;
      MC.undoTo(M);
    }
    return false;
  }
  case Kind::And: {
    for (const ConstraintPtr &Child : Children)
      if (!Child->matches(V, MC))
        return false;
    return true;
  }
  case Kind::Not: {
    MatchContext::Mark M = MC.mark();
    bool Matched = Children[0]->matches(V, MC);
    MC.undoTo(M);
    return !Matched;
  }
  case Kind::Var: {
    const auto &Binding = MC.getBinding(VarIndex);
    if (Binding) {
      ++NumVarBindingHits;
      return *Binding == V;
    }
    if (!MC.getVarConstraint(VarIndex)->matches(V, MC))
      return false;
    MC.bind(VarIndex, V);
    ++NumVarBindings;
    return true;
  }
  case Kind::Cpp: {
    if (!Children[0]->matches(V, MC) || !CppPred)
      return false;
    ++NumCppPredEvals;
    return CppPred(V);
  }
  case Kind::Native: {
    if (!Children[0]->matches(V, MC) || !NativeFn)
      return false;
    ++NumNativePredEvals;
    return NativeFn(V);
  }
  case Kind::Named:
    return Children[0]->matches(V, MC);
  }
  return false;
}

std::optional<ParamValue>
Constraint::concreteValue(const MatchContext &MC, IRContext &Ctx) const {
  switch (K) {
  case Kind::TypeParams: {
    if (BaseOnly && TDef->getNumParams() != 0)
      return std::nullopt;
    std::vector<ParamValue> Params;
    for (const ConstraintPtr &Child : Children) {
      auto V = Child->concreteValue(MC, Ctx);
      if (!V)
        return std::nullopt;
      Params.push_back(std::move(*V));
    }
    // Unverified construction would assert on bad params; check first.
    DiagnosticEngine Scratch;
    Type T = Ctx.getTypeChecked(TDef, std::move(Params), Scratch);
    if (!T)
      return std::nullopt;
    return ParamValue(T);
  }
  case Kind::AttrParams: {
    if (BaseOnly && ADef->getNumParams() != 0)
      return std::nullopt;
    std::vector<ParamValue> Params;
    for (const ConstraintPtr &Child : Children) {
      auto V = Child->concreteValue(MC, Ctx);
      if (!V)
        return std::nullopt;
      Params.push_back(std::move(*V));
    }
    DiagnosticEngine Scratch;
    Attribute A = Ctx.getAttrChecked(ADef, std::move(Params), Scratch);
    if (!A)
      return std::nullopt;
    return ParamValue(A);
  }
  case Kind::IntEq:
    return ParamValue(IV);
  case Kind::FloatEq:
    return ParamValue(FV);
  case Kind::StringEq:
    return ParamValue(Str);
  case Kind::EnumEq:
    return ParamValue(EV);
  case Kind::ArrayExact: {
    std::vector<ParamValue> Elems;
    for (const ConstraintPtr &Child : Children) {
      auto V = Child->concreteValue(MC, Ctx);
      if (!V)
        return std::nullopt;
      Elems.push_back(std::move(*V));
    }
    return ParamValue(std::move(Elems));
  }
  case Kind::Var:
    if (const auto &Binding = MC.getBinding(VarIndex))
      return *Binding;
    return std::nullopt;
  case Kind::And:
  case Kind::Cpp:
  case Kind::Native:
  case Kind::Named:
    // Derivable when some conjunct is.
    for (const ConstraintPtr &Child : Children)
      if (auto V = Child->concreteValue(MC, Ctx))
        return V;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

//===----------------------------------------------------------------------===//
// Variable cycles
//===----------------------------------------------------------------------===//

void Constraint::collectUnguardedVars(std::vector<unsigned> &Out) const {
  switch (K) {
  case Kind::Var:
    Out.push_back(VarIndex);
    return;
  case Kind::AnyOf:
  case Kind::And:
  case Kind::Not:
  case Kind::Cpp:
  case Kind::Native:
  case Kind::Named:
    for (const ConstraintPtr &Child : Children)
      Child->collectUnguardedVars(Out);
    return;
  default:
    // Leaves, and parameter/element constraints that only ever see a
    // strictly smaller value.
    return;
  }
}

std::optional<unsigned>
irdl::findVarCycle(const std::vector<std::vector<unsigned>> &UnguardedRefs) {
  // Iterative depth-first search (a hostile `.irbc` may chain thousands
  // of variables): a reference to a variable still on the stack closes
  // a cycle through it.
  enum : uint8_t { Unvisited, OnStack, Done };
  std::vector<uint8_t> State(UnguardedRefs.size(), Unvisited);
  std::vector<std::pair<unsigned, size_t>> Stack; // (variable, next ref)
  for (unsigned Root = 0; Root != UnguardedRefs.size(); ++Root) {
    if (State[Root] != Unvisited)
      continue;
    State[Root] = OnStack;
    Stack.push_back({Root, 0});
    while (!Stack.empty()) {
      auto &[V, Next] = Stack.back();
      if (Next == UnguardedRefs[V].size()) {
        State[V] = Done;
        Stack.pop_back();
        continue;
      }
      unsigned W = UnguardedRefs[V][Next++];
      if (State[W] == OnStack)
        return W;
      if (State[W] == Unvisited) {
        State[W] = OnStack;
        Stack.push_back({W, 0});
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static void printList(std::ostream &OS,
                      const std::vector<ConstraintPtr> &Cs) {
  for (size_t I = 0, E = Cs.size(); I != E; ++I) {
    if (I)
      OS << ", ";
    OS << Cs[I]->str();
  }
}

std::string Constraint::str() const {
  std::ostringstream OS;
  switch (K) {
  case Kind::AnyType:
    OS << "!AnyType";
    break;
  case Kind::AnyAttr:
    OS << "#AnyAttr";
    break;
  case Kind::AnyParam:
    OS << "AnyParam";
    break;
  case Kind::TypeParams:
    OS << "!" << TDef->getFullName();
    if (!BaseOnly && !Children.empty()) {
      OS << "<";
      printList(OS, Children);
      OS << ">";
    }
    break;
  case Kind::AttrParams:
    OS << "#" << ADef->getFullName();
    if (!BaseOnly && !Children.empty()) {
      OS << "<";
      printList(OS, Children);
      OS << ">";
    }
    break;
  case Kind::IntKind:
    OS << (IV.Sign == Signedness::Unsigned ? "uint" : "int") << IV.Width
       << "_t";
    break;
  case Kind::IntEq:
    OS << IV.Value << " : "
       << (IV.Sign == Signedness::Unsigned ? "uint" : "int") << IV.Width
       << "_t";
    break;
  case Kind::FloatKind:
    if (FV.Width == 0)
      OS << "float";
    else
      OS << "float" << FV.Width << "_t";
    break;
  case Kind::FloatEq: {
    printFloatLiteral(FV.Value, OS);
    OS << " : float" << FV.Width << "_t";
    break;
  }
  case Kind::StringKind:
    OS << "string";
    break;
  case Kind::StringEq:
    OS << '"' << Str << '"';
    break;
  case Kind::EnumKind:
    OS << EDef->getFullName();
    break;
  case Kind::EnumEq:
    OS << EV.Def->getFullName() << "." << EV.Def->getCases()[EV.Index];
    break;
  case Kind::ArrayOf:
    if (Children.empty()) {
      OS << "array";
    } else {
      OS << "array<" << Children[0]->str() << ">";
    }
    break;
  case Kind::ArrayExact:
    OS << "[";
    printList(OS, Children);
    OS << "]";
    break;
  case Kind::OpaqueKind:
    OS << Str;
    break;
  case Kind::AnyOf:
    OS << "AnyOf<";
    printList(OS, Children);
    OS << ">";
    break;
  case Kind::And:
    OS << "And<";
    printList(OS, Children);
    OS << ">";
    break;
  case Kind::Not:
    OS << "Not<" << Children[0]->str() << ">";
    break;
  case Kind::Var:
    OS << "!" << Str;
    break;
  case Kind::Cpp:
    OS << "CppConstraint(" << Children[0]->str() << ", \"" << Str << "\")";
    break;
  case Kind::Native:
    OS << "NativeConstraint(" << Children[0]->str() << ", " << Str << ")";
    break;
  case Kind::Named:
    OS << Str;
    break;
  }
  return OS.str();
}
