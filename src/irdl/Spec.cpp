//===- Spec.cpp -----------------------------------------------------===//

#include "irdl/Spec.h"

using namespace irdl;

bool TypeOrAttrSpec::usesOpaqueParam(const Constraint &C) {
  // Locations and type ids are IRDL builtins (Figure 8), not IRDL-C++.
  if (C.getKind() == Constraint::Kind::OpaqueKind)
    return C.getString() != "location" && C.getString() != "type_id";
  for (const Constraint *Child : C.getChildren())
    if (usesOpaqueParam(*Child))
      return true;
  return false;
}

bool OpSpec::localConstraintsInIRDL() const {
  for (const OperandSpec &O : Operands)
    if (O.Constr->requiresCpp())
      return false;
  for (const OperandSpec &R : Results)
    if (R.Constr->requiresCpp())
      return false;
  for (const ParamSpec &A : Attributes)
    if (A.Constr->requiresCpp())
      return false;
  for (const RegionSpec &R : Regions)
    for (const OperandSpec &A : R.Args)
      if (A.Constr->requiresCpp())
        return false;
  for (const Constraint *V : VarConstraints)
    if (V->requiresCpp())
      return false;
  return true;
}

std::optional<unsigned> OpSpec::lookupOperand(std::string_view N) const {
  for (unsigned I = 0, E = Operands.size(); I != E; ++I)
    if (Operands[I].Name == N)
      return I;
  return std::nullopt;
}

std::optional<unsigned> OpSpec::lookupResult(std::string_view N) const {
  for (unsigned I = 0, E = Results.size(); I != E; ++I)
    if (Results[I].Name == N)
      return I;
  return std::nullopt;
}

std::optional<unsigned> OpSpec::lookupVar(std::string_view N) const {
  for (unsigned I = 0, E = VarNames.size(); I != E; ++I)
    if (VarNames[I] == N)
      return I;
  return std::nullopt;
}

std::string OpSpec::varCycleMessage(unsigned V) const {
  return "constraint variable '" +
         (V < VarNames.size() ? std::string(VarNames[V])
                              : std::to_string(V)) +
         "' of operation '" + std::string(Name) +
         "' refers to itself outside any type, attribute or array "
         "parameter";
}

std::optional<unsigned> OpSpec::lookupAttrField(std::string_view N) const {
  for (unsigned I = 0, E = Attributes.size(); I != E; ++I)
    if (Attributes[I].Name == N)
      return I;
  return std::nullopt;
}

const OpSpec *DialectSpec::lookupOp(std::string_view OpName) const {
  for (const OpSpec &Op : Ops)
    if (Op.Name == OpName)
      return &Op;
  return nullptr;
}

const TypeOrAttrSpec *
DialectSpec::lookupType(std::string_view TypeName) const {
  for (const TypeOrAttrSpec &T : Types)
    if (T.Name == TypeName)
      return &T;
  return nullptr;
}

const TypeOrAttrSpec *
DialectSpec::lookupAttr(std::string_view AttrName) const {
  for (const TypeOrAttrSpec &A : Attrs)
    if (A.Name == AttrName)
      return &A;
  return nullptr;
}
