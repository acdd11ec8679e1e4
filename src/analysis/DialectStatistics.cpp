//===- DialectStatistics.cpp ------------------------------------------===//

#include "analysis/DialectStatistics.h"

#include "support/StringExtras.h"

using namespace irdl;

std::string_view irdl::paramKindName(ParamKind K) {
  switch (K) {
  case ParamKind::AttrOrType:
    return "attr/type";
  case ParamKind::Integer:
    return "integer";
  case ParamKind::String:
    return "string";
  case ParamKind::Float:
    return "float";
  case ParamKind::Enum:
    return "enum";
  case ParamKind::Location:
    return "location";
  case ParamKind::TypeId:
    return "type id";
  case ParamKind::DomainSpecific:
    return "domain-specific";
  }
  return "?";
}

std::string_view irdl::cppConstraintKindName(CppConstraintKind K) {
  switch (K) {
  case CppConstraintKind::IntegerInequality:
    return "integer inequality";
  case CppConstraintKind::StrideCheck:
    return "stride check";
  case CppConstraintKind::StructOpacity:
    return "struct opacity";
  case CppConstraintKind::Other:
    return "other";
  }
  return "?";
}

ParamKind irdl::classifyParamKind(const Constraint *C) {
  switch (C->getKind()) {
  case Constraint::Kind::AnyType:
  case Constraint::Kind::TypeParams:
  case Constraint::Kind::AnyAttr:
  case Constraint::Kind::AttrParams:
    return ParamKind::AttrOrType;
  case Constraint::Kind::IntKind:
  case Constraint::Kind::IntEq:
    return ParamKind::Integer;
  case Constraint::Kind::StringKind:
  case Constraint::Kind::StringEq:
    return ParamKind::String;
  case Constraint::Kind::FloatKind:
  case Constraint::Kind::FloatEq:
    return ParamKind::Float;
  case Constraint::Kind::EnumKind:
  case Constraint::Kind::EnumEq:
    return ParamKind::Enum;
  case Constraint::Kind::OpaqueKind:
    if (C->getString() == "location")
      return ParamKind::Location;
    if (C->getString() == "type_id")
      return ParamKind::TypeId;
    return ParamKind::DomainSpecific;
  case Constraint::Kind::ArrayOf:
    if (!C->getChildren().empty())
      return classifyParamKind(C->getChildren()[0]);
    return ParamKind::DomainSpecific;
  case Constraint::Kind::Cpp:
  case Constraint::Kind::Native:
  case Constraint::Kind::Named:
    return classifyParamKind(C->getChildren()[0]);
  case Constraint::Kind::AnyOf:
  case Constraint::Kind::And: {
    // Uniform child kinds classify as that kind; otherwise mixed params
    // count as domain-specific.
    std::optional<ParamKind> Kind;
    for (const Constraint *Child : C->getChildren()) {
      ParamKind CK = classifyParamKind(Child);
      if (!Kind)
        Kind = CK;
      else if (*Kind != CK)
        return ParamKind::DomainSpecific;
    }
    return Kind.value_or(ParamKind::DomainSpecific);
  }
  case Constraint::Kind::ArrayExact:
  case Constraint::Kind::Not:
  case Constraint::Kind::Var:
  case Constraint::Kind::AnyParam:
    return ParamKind::DomainSpecific;
  }
  return ParamKind::DomainSpecific;
}

//===----------------------------------------------------------------------===//
// Record construction
//===----------------------------------------------------------------------===//

namespace {

/// Categorizes a C++-requiring constraint into the Figure 12 buckets.
/// Named constraints carry the category in their name by convention
/// (which is how the corpus encodes them); anonymous expressions are
/// pattern-matched on their source.
CppConstraintKind categorizeCpp(const Constraint *C) {
  std::string_view Tag = C->getString();
  auto Contains = [&Tag](const char *Needle) {
    return Tag.find(Needle) != std::string_view::npos;
  };
  if (Contains("stride") || Contains("Stride"))
    return CppConstraintKind::StrideCheck;
  if (Contains("opaque") || Contains("Opacity") || Contains("opacity"))
    return CppConstraintKind::StructOpacity;
  if (Contains("<=") || Contains(">=") || Contains("<") || Contains(">") ||
      Contains("Bounded") || Contains("Inequality") ||
      Contains("inequality"))
    return CppConstraintKind::IntegerInequality;
  return CppConstraintKind::Other;
}

/// Walks a constraint tree collecting the categories of any C++ nodes.
void collectCppKinds(const Constraint *C,
                     std::vector<CppConstraintKind> &Out) {
  if (C->getKind() == Constraint::Kind::Cpp ||
      C->getKind() == Constraint::Kind::Native)
    Out.push_back(categorizeCpp(C));
  for (const Constraint *Child : C->getChildren())
    collectCppKinds(Child, Out);
}

OpRecord makeOpRecord(const DialectSpec &D, const OpSpec &Op) {
  OpRecord R;
  R.DialectName = D.Name;
  R.Name = Op.Name;
  R.NumOperandDefs = Op.Operands.size();
  for (const OperandSpec &O : Op.Operands)
    if (O.VK != VariadicKind::Single)
      ++R.NumVariadicOperandDefs;
  R.NumResultDefs = Op.Results.size();
  for (const OperandSpec &Res : Op.Results)
    if (Res.VK != VariadicKind::Single)
      ++R.NumVariadicResultDefs;
  R.NumAttrDefs = Op.Attributes.size();
  R.NumRegionDefs = Op.Regions.size();
  R.IsTerminator = Op.isTerminator();
  R.LocalConstraintsInIRDL = Op.localConstraintsInIRDL();
  R.NeedsCppVerifier = Op.requiresCppVerifier();

  for (const OperandSpec &O : Op.Operands)
    collectCppKinds(O.Constr, R.LocalCppKinds);
  for (const OperandSpec &Res : Op.Results)
    collectCppKinds(Res.Constr, R.LocalCppKinds);
  for (const ParamSpec &A : Op.Attributes)
    collectCppKinds(A.Constr, R.LocalCppKinds);
  return R;
}

TypeAttrRecord makeTypeAttrRecord(const DialectSpec &D,
                                  const TypeOrAttrSpec &T) {
  TypeAttrRecord R;
  R.DialectName = D.Name;
  R.Name = T.Name;
  R.IsAttr = T.IsAttr;
  for (const ParamSpec &P : T.Params)
    R.ParamKinds.push_back(classifyParamKind(P.Constr));
  R.ParamsInIRDL = !T.requiresCppParams();
  R.NeedsCppVerifier = T.requiresCppVerifier() ||
                       startsWith(T.CppConstraintSrc, "native:");
  return R;
}

} // namespace

unsigned DialectStatistics::numTypes() const {
  unsigned N = 0;
  for (const TypeAttrRecord &R : TypesAndAttrs)
    if (!R.IsAttr)
      ++N;
  return N;
}

unsigned DialectStatistics::numAttrs() const {
  unsigned N = 0;
  for (const TypeAttrRecord &R : TypesAndAttrs)
    if (R.IsAttr)
      ++N;
  return N;
}

double DialectStatistics::opFraction(bool (*Pred)(const OpRecord &)) const {
  if (Ops.empty())
    return 0.0;
  unsigned N = 0;
  for (const OpRecord &R : Ops)
    if (Pred(R))
      ++N;
  return static_cast<double>(N) / Ops.size();
}

CorpusStatistics CorpusStatistics::compute(
    const std::vector<std::shared_ptr<DialectSpec>> &Specs) {
  CorpusStatistics Stats;
  for (const auto &D : Specs) {
    DialectStatistics DS;
    DS.Name = D->Name;
    for (const OpSpec &Op : D->Ops)
      DS.Ops.push_back(makeOpRecord(*D, Op));
    for (const TypeOrAttrSpec &T : D->Types)
      DS.TypesAndAttrs.push_back(makeTypeAttrRecord(*D, T));
    for (const TypeOrAttrSpec &A : D->Attrs)
      DS.TypesAndAttrs.push_back(makeTypeAttrRecord(*D, A));
    Stats.Dialects.push_back(std::move(DS));
  }
  return Stats;
}

const DialectStatistics *
CorpusStatistics::lookup(std::string_view Name) const {
  for (const DialectStatistics &D : Dialects)
    if (D.Name == Name)
      return &D;
  return nullptr;
}

unsigned CorpusStatistics::totalOps() const {
  unsigned N = 0;
  for (const DialectStatistics &D : Dialects)
    N += D.numOps();
  return N;
}

unsigned CorpusStatistics::totalTypes() const {
  unsigned N = 0;
  for (const DialectStatistics &D : Dialects)
    N += D.numTypes();
  return N;
}

unsigned CorpusStatistics::totalAttrs() const {
  unsigned N = 0;
  for (const DialectStatistics &D : Dialects)
    N += D.numAttrs();
  return N;
}

template <typename FieldFn>
Distribution CorpusStatistics::distOver(unsigned Buckets, FieldFn Field,
                                        std::string_view Dialect) const {
  Distribution Dist(Buckets);
  for (const DialectStatistics &D : Dialects) {
    if (!Dialect.empty() && D.Name != Dialect)
      continue;
    for (const OpRecord &R : D.Ops)
      Dist.add(Field(R));
  }
  return Dist;
}

Distribution CorpusStatistics::operandCountDist() const {
  return distOver(4, [](const OpRecord &R) { return R.NumOperandDefs; });
}
Distribution
CorpusStatistics::operandCountDist(std::string_view Dialect) const {
  return distOver(4, [](const OpRecord &R) { return R.NumOperandDefs; },
                  Dialect);
}
Distribution CorpusStatistics::variadicOperandDist() const {
  return distOver(
      3, [](const OpRecord &R) { return R.NumVariadicOperandDefs; });
}
Distribution
CorpusStatistics::variadicOperandDist(std::string_view Dialect) const {
  return distOver(
      3, [](const OpRecord &R) { return R.NumVariadicOperandDefs; },
      Dialect);
}
Distribution CorpusStatistics::resultCountDist() const {
  return distOver(3, [](const OpRecord &R) { return R.NumResultDefs; });
}
Distribution
CorpusStatistics::resultCountDist(std::string_view Dialect) const {
  return distOver(3, [](const OpRecord &R) { return R.NumResultDefs; },
                  Dialect);
}
Distribution CorpusStatistics::variadicResultDist() const {
  return distOver(
      2, [](const OpRecord &R) { return R.NumVariadicResultDefs; });
}
Distribution
CorpusStatistics::variadicResultDist(std::string_view Dialect) const {
  return distOver(
      2, [](const OpRecord &R) { return R.NumVariadicResultDefs; },
      Dialect);
}
Distribution CorpusStatistics::attrCountDist() const {
  return distOver(3, [](const OpRecord &R) { return R.NumAttrDefs; });
}
Distribution
CorpusStatistics::attrCountDist(std::string_view Dialect) const {
  return distOver(3, [](const OpRecord &R) { return R.NumAttrDefs; },
                  Dialect);
}
Distribution CorpusStatistics::regionCountDist() const {
  return distOver(3, [](const OpRecord &R) { return R.NumRegionDefs; });
}
Distribution
CorpusStatistics::regionCountDist(std::string_view Dialect) const {
  return distOver(3, [](const OpRecord &R) { return R.NumRegionDefs; },
                  Dialect);
}

std::map<ParamKind, unsigned> CorpusStatistics::typeParamKinds() const {
  std::map<ParamKind, unsigned> Kinds;
  for (const DialectStatistics &D : Dialects)
    for (const TypeAttrRecord &R : D.TypesAndAttrs)
      if (!R.IsAttr)
        for (ParamKind K : R.ParamKinds)
          ++Kinds[K];
  return Kinds;
}

std::map<ParamKind, unsigned> CorpusStatistics::attrParamKinds() const {
  std::map<ParamKind, unsigned> Kinds;
  for (const DialectStatistics &D : Dialects)
    for (const TypeAttrRecord &R : D.TypesAndAttrs)
      if (R.IsAttr)
        for (ParamKind K : R.ParamKinds)
          ++Kinds[K];
  return Kinds;
}

namespace {
template <typename Pred>
CorpusStatistics::Expressibility
typeAttrExpr(const std::vector<DialectStatistics> &Dialects, bool WantAttr,
             Pred NeedsCpp) {
  CorpusStatistics::Expressibility E;
  for (const DialectStatistics &D : Dialects)
    for (const TypeAttrRecord &R : D.TypesAndAttrs) {
      if (R.IsAttr != WantAttr)
        continue;
      if (NeedsCpp(R))
        ++E.NeedsCpp;
      else
        ++E.PureIRDL;
    }
  return E;
}
} // namespace

CorpusStatistics::Expressibility
CorpusStatistics::typeParamExpressibility() const {
  return typeAttrExpr(Dialects, false,
                      [](const TypeAttrRecord &R) { return !R.ParamsInIRDL; });
}
CorpusStatistics::Expressibility
CorpusStatistics::typeVerifierExpressibility() const {
  return typeAttrExpr(Dialects, false, [](const TypeAttrRecord &R) {
    return R.NeedsCppVerifier;
  });
}
CorpusStatistics::Expressibility
CorpusStatistics::attrParamExpressibility() const {
  return typeAttrExpr(Dialects, true,
                      [](const TypeAttrRecord &R) { return !R.ParamsInIRDL; });
}
CorpusStatistics::Expressibility
CorpusStatistics::attrVerifierExpressibility() const {
  return typeAttrExpr(Dialects, true, [](const TypeAttrRecord &R) {
    return R.NeedsCppVerifier;
  });
}

CorpusStatistics::Expressibility
CorpusStatistics::opLocalConstraintExpressibility() const {
  return opLocalConstraintExpressibility({});
}
CorpusStatistics::Expressibility
CorpusStatistics::opVerifierExpressibility() const {
  return opVerifierExpressibility({});
}

CorpusStatistics::Expressibility
CorpusStatistics::opLocalConstraintExpressibility(
    std::string_view Dialect) const {
  Expressibility E;
  for (const DialectStatistics &D : Dialects) {
    if (!Dialect.empty() && D.Name != Dialect)
      continue;
    for (const OpRecord &R : D.Ops) {
      if (R.LocalConstraintsInIRDL)
        ++E.PureIRDL;
      else
        ++E.NeedsCpp;
    }
  }
  return E;
}

CorpusStatistics::Expressibility
CorpusStatistics::opVerifierExpressibility(std::string_view Dialect) const {
  Expressibility E;
  for (const DialectStatistics &D : Dialects) {
    if (!Dialect.empty() && D.Name != Dialect)
      continue;
    for (const OpRecord &R : D.Ops) {
      if (R.NeedsCppVerifier)
        ++E.NeedsCpp;
      else
        ++E.PureIRDL;
    }
  }
  return E;
}

std::map<CppConstraintKind, unsigned>
CorpusStatistics::localCppConstraintKinds() const {
  std::map<CppConstraintKind, unsigned> Kinds;
  for (const DialectStatistics &D : Dialects)
    for (const OpRecord &R : D.Ops)
      for (CppConstraintKind K : R.LocalCppKinds)
        ++Kinds[K];
  return Kinds;
}

double CorpusStatistics::dialectFractionWithOp(
    bool (*Pred)(const OpRecord &)) const {
  if (Dialects.empty())
    return 0.0;
  unsigned N = 0;
  for (const DialectStatistics &D : Dialects) {
    for (const OpRecord &R : D.Ops) {
      if (Pred(R)) {
        ++N;
        break;
      }
    }
  }
  return static_cast<double>(N) / Dialects.size();
}
