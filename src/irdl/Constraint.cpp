//===- Constraint.cpp -----------------------------------------------===//

#include "irdl/Constraint.h"

#include "ir/Printer.h"

#include <sstream>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Factories
//===----------------------------------------------------------------------===//

Constraint *Constraint::make(BumpStorage &S, Kind K,
                             std::span<const ConstraintPtr> Kids) {
  Constraint *C = S.create<Constraint>(Constraint(S, K));
  if (!Kids.empty()) {
    auto *Slots = static_cast<const Constraint **>(
        S.allocate(Kids.size() * sizeof(const Constraint *),
                   alignof(const Constraint *)));
    for (size_t I = 0; I != Kids.size(); ++I) {
      assert(&Kids[I]->getStorage() == &S &&
             "children must live in their parent's storage");
      Slots[I] = Kids[I].get();
    }
    C->Children = Slots;
    C->NumChildren = (uint32_t)Kids.size();
  }
  return C;
}

// Every factory makes its node with MAKE and hands it out with DONE.
#define MAKE(KIND, ...)                                                     \
  Constraint *C = make(*S, Kind::KIND __VA_OPT__(, ) __VA_ARGS__)
#define DONE()                                                              \
  C->computeFlags();                                                        \
  return ConstraintPtr(S, C)

ConstraintPtr Constraint::anyType(const SpecStoragePtr &S) {
  MAKE(AnyType);
  DONE();
}
ConstraintPtr Constraint::anyAttr(const SpecStoragePtr &S) {
  MAKE(AnyAttr);
  DONE();
}
ConstraintPtr Constraint::anyParam(const SpecStoragePtr &S) {
  MAKE(AnyParam);
  DONE();
}

ConstraintPtr Constraint::typeConstraint(const SpecStoragePtr &S,
                                         const TypeDefinition *Def,
                                         std::span<const ConstraintPtr> Params,
                                         bool BaseOnly) {
  assert(Def && "null type definition");
  assert((BaseOnly || Params.size() == Def->getNumParams()) &&
         "parameter constraint count mismatch");
  MAKE(TypeParams, Params);
  C->TDef = Def;
  C->BaseOnly = BaseOnly;
  DONE();
}

ConstraintPtr Constraint::attrConstraint(const SpecStoragePtr &S,
                                         const AttrDefinition *Def,
                                         std::span<const ConstraintPtr> Params,
                                         bool BaseOnly) {
  assert(Def && "null attribute definition");
  MAKE(AttrParams, Params);
  C->ADef = Def;
  C->BaseOnly = BaseOnly;
  DONE();
}

ConstraintPtr Constraint::typeEq(const SpecStoragePtr &S, Type T) {
  std::vector<ConstraintPtr> Params;
  for (const ParamValue &P : T.getParams()) {
    switch (P.getKind()) {
    case ParamValue::Kind::Type:
      Params.push_back(typeEq(S, P.getType()));
      break;
    case ParamValue::Kind::Int:
      Params.push_back(intEq(S, P.getInt()));
      break;
    case ParamValue::Kind::Float:
      Params.push_back(floatEq(S, P.getFloat()));
      break;
    case ParamValue::Kind::String:
      Params.push_back(stringEq(S, P.getString()));
      break;
    case ParamValue::Kind::Enum:
      Params.push_back(enumEq(S, P.getEnum()));
      break;
    default: {
      // Fall back to a native equality check for the exotic kinds.
      ParamValue Expected = P;
      Params.push_back(native(
          S, anyParam(S),
          [Expected](const ParamValue &V) { return V == Expected; },
          "exact-param"));
      break;
    }
    }
  }
  return typeConstraint(S, T.getDef(), Params, /*BaseOnly=*/false);
}

ConstraintPtr Constraint::intKind(const SpecStoragePtr &S, unsigned Width,
                                  Signedness Sign) {
  MAKE(IntKind);
  C->IV = IntVal{static_cast<uint16_t>(Width), Sign, 0};
  DONE();
}

ConstraintPtr Constraint::intEq(const SpecStoragePtr &S, IntVal V) {
  MAKE(IntEq);
  C->IV = V;
  DONE();
}

ConstraintPtr Constraint::floatKind(const SpecStoragePtr &S, unsigned Width) {
  MAKE(FloatKind);
  C->FV = FloatVal{static_cast<uint16_t>(Width), 0.0};
  DONE();
}

ConstraintPtr Constraint::floatEq(const SpecStoragePtr &S, FloatVal V) {
  MAKE(FloatEq);
  C->FV = V;
  DONE();
}

ConstraintPtr Constraint::stringKind(const SpecStoragePtr &S) {
  MAKE(StringKind);
  DONE();
}

ConstraintPtr Constraint::stringEq(const SpecStoragePtr &S,
                                   std::string_view Str) {
  MAKE(StringEq);
  C->Str = S->copyString(Str);
  DONE();
}

ConstraintPtr Constraint::enumKind(const SpecStoragePtr &S,
                                   const EnumDef *Def) {
  MAKE(EnumKind);
  C->EDef = Def;
  DONE();
}

ConstraintPtr Constraint::enumEq(const SpecStoragePtr &S, EnumVal V) {
  MAKE(EnumEq);
  C->EV = V;
  C->EDef = V.Def;
  DONE();
}

ConstraintPtr Constraint::arrayOf(const SpecStoragePtr &S, ConstraintPtr Elem) {
  MAKE(ArrayOf, std::span(&Elem, 1));
  DONE();
}

ConstraintPtr Constraint::anyArray(const SpecStoragePtr &S) {
  MAKE(ArrayOf);
  DONE();
}

ConstraintPtr Constraint::arrayExact(const SpecStoragePtr &S,
                                     std::span<const ConstraintPtr> Elems) {
  MAKE(ArrayExact, Elems);
  DONE();
}

ConstraintPtr Constraint::opaqueKind(const SpecStoragePtr &S,
                                     std::string_view ParamTypeName) {
  MAKE(OpaqueKind);
  C->Str = S->copyString(ParamTypeName);
  DONE();
}

ConstraintPtr Constraint::anyOf(const SpecStoragePtr &S,
                                std::span<const ConstraintPtr> Cs) {
  MAKE(AnyOf, Cs);
  DONE();
}

ConstraintPtr Constraint::conjunction(const SpecStoragePtr &S,
                                      std::span<const ConstraintPtr> Cs) {
  MAKE(And, Cs);
  DONE();
}

ConstraintPtr Constraint::negation(const SpecStoragePtr &S,
                                   ConstraintPtr Inner) {
  MAKE(Not, std::span(&Inner, 1));
  DONE();
}

ConstraintPtr Constraint::var(const SpecStoragePtr &S, unsigned Index,
                              std::string_view Name) {
  MAKE(Var);
  C->VarIndex = Index;
  C->Str = S->copyString(Name);
  DONE();
}

ConstraintPtr Constraint::cpp(const SpecStoragePtr &S, ConstraintPtr Base,
                              CppParamPredicate Pred,
                              std::string_view Source) {
  MAKE(Cpp, std::span(&Base, 1));
  C->CppPred = S->create<CppParamPredicate>(std::move(Pred));
  C->Str = S->copyString(Source);
  DONE();
}

ConstraintPtr Constraint::native(const SpecStoragePtr &S, ConstraintPtr Base,
                                 NativeConstraintFn Fn,
                                 std::string_view Name) {
  MAKE(Native, std::span(&Base, 1));
  C->NativeFn = S->create<NativeConstraintFn>(std::move(Fn));
  C->Str = S->copyString(Name);
  DONE();
}

ConstraintPtr Constraint::named(const SpecStoragePtr &S, ConstraintPtr Inner,
                                std::string_view QualifiedName) {
  MAKE(Named, std::span(&Inner, 1));
  C->Str = S->copyString(QualifiedName);
  DONE();
}

#undef DONE
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
  for (const Constraint *Child : getChildren()) {
    HasCpp |= Child->HasCpp;
    HasVar |= Child->HasVar;
    Height = std::max(Height, Child->Height + 1);
  }
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

bool Constraint::matches(const ParamValue &V, MatchContext &MC) const {
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
    if (Params.size() != NumChildren)
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
    if (Params.size() != NumChildren)
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
    if (NumChildren == 0)
      return true;
    for (const ParamValue &Elem : V.getArray())
      if (!Children[0]->matches(Elem, MC))
        return false;
    return true;
  }
  case Kind::ArrayExact: {
    if (!V.isArray() || V.getArray().size() != NumChildren)
      return false;
    for (size_t I = 0, E = NumChildren; I != E; ++I)
      if (!Children[I]->matches(V.getArray()[I], MC))
        return false;
    return true;
  }
  case Kind::OpaqueKind:
    return V.isOpaque() && V.getOpaque().ParamTypeName == Str;
  case Kind::AnyOf: {
    for (const Constraint *Child : getChildren()) {
      MatchContext::Mark M = MC.mark();
      if (Child->matches(V, MC))
        return true;
      MC.undoTo(M);
    }
    return false;
  }
  case Kind::And: {
    for (const Constraint *Child : getChildren())
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
      return *Binding == V;
    }
    if (!MC.getVarConstraint(VarIndex).matches(V, MC))
      return false;
    MC.bind(VarIndex, V);
    return true;
  }
  case Kind::Cpp: {
    if (!Children[0]->matches(V, MC) || !CppPred)
      return false;
    return (*CppPred)(V);
  }
  case Kind::Native: {
    if (!Children[0]->matches(V, MC) || !NativeFn)
      return false;
    return (*NativeFn)(V);
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
    for (const Constraint *Child : getChildren()) {
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
    for (const Constraint *Child : getChildren()) {
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
    return ParamValue(std::string(Str));
  case Kind::EnumEq:
    return ParamValue(EV);
  case Kind::ArrayExact: {
    std::vector<ParamValue> Elems;
    for (const Constraint *Child : getChildren()) {
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
    for (const Constraint *Child : getChildren())
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
    for (const Constraint *Child : getChildren())
      Child->collectUnguardedVars(Out);
    return;
  default:
    // Leaves, and parameter/element constraints that only ever see a
    // strictly smaller value.
    return;
  }
}

VarCycleFinder &VarCycleFinder::forThread() {
  static thread_local VarCycleFinder Finder;
  return Finder;
}

std::optional<unsigned> VarCycleFinder::search() {
  // Iterative depth-first search (a hostile `.irbc` may chain thousands
  // of variables): a reference to a variable still on the stack closes
  // a cycle through it.
  enum : uint8_t { Unvisited, OnStack, Done };
  unsigned NumVars = RefsBegin.size() - 1;
  State.assign(NumVars, Unvisited);
  Stack.clear();
  for (unsigned Root = 0; Root != NumVars; ++Root) {
    if (State[Root] != Unvisited)
      continue;
    State[Root] = OnStack;
    Stack.push_back({Root, RefsBegin[Root]});
    while (!Stack.empty()) {
      auto &[V, Next] = Stack.back();
      if (Next == RefsBegin[V + 1]) {
        State[V] = Done;
        Stack.pop_back();
        continue;
      }
      unsigned W = Refs[Next++];
      if (State[W] == OnStack)
        return W;
      if (State[W] == Unvisited) {
        State[W] = OnStack;
        Stack.push_back({W, RefsBegin[W]});
      }
    }
  }
  return std::nullopt;
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

static void printList(std::ostream &OS,
                      std::span<const Constraint *const> Cs) {
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
    if (!BaseOnly && !NumChildren == 0) {
      OS << "<";
      printList(OS, getChildren());
      OS << ">";
    }
    break;
  case Kind::AttrParams:
    OS << "#" << ADef->getFullName();
    if (!BaseOnly && !NumChildren == 0) {
      OS << "<";
      printList(OS, getChildren());
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
    std::string Literal;
    printFloatLiteral(FV.Value, Literal);
    OS << Literal << " : float" << FV.Width << "_t";
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
    if (NumChildren == 0) {
      OS << "array";
    } else {
      OS << "array<" << Children[0]->str() << ">";
    }
    break;
  case Kind::ArrayExact:
    OS << "[";
    printList(OS, getChildren());
    OS << "]";
    break;
  case Kind::OpaqueKind:
    OS << Str;
    break;
  case Kind::AnyOf:
    OS << "AnyOf<";
    printList(OS, getChildren());
    OS << ">";
    break;
  case Kind::And:
    OS << "And<";
    printList(OS, getChildren());
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
