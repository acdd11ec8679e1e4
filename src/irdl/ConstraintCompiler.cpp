//===- ConstraintCompiler.cpp ---------------------------------------===//

#include "irdl/ConstraintCompiler.h"

#include "support/Statistic.h"

using namespace irdl;

IRDL_STATISTIC(ConstraintCompiler, NumProgramsCompiled,
               "irdl_constraint_programs_compiled_total",
               "constraint programs compiled");
IRDL_STATISTIC(ConstraintCompiler, NumInstrsEmitted,
               "irdl_constraint_instrs_emitted_total",
               "constraint program instructions emitted");
IRDL_STATISTIC(ConstraintCompiler, NumDispatchTablesBuilt,
               "irdl_constraint_dispatch_tables_built_total",
               "AnyOf nodes lowered to dispatch tables");

namespace {

/// Named wrappers behave exactly like their body; the compiled form drops
/// them (diagnostics keep using the tree's str(), so nothing is lost).
const Constraint *stripNamed(const Constraint *C) {

  while (C->getKind() == Constraint::Kind::Named)
    C = C->getChildren()[0].get();
  return C;
}

/// The uniqued definition pointer an AnyOf alternative is rooted in, or
/// null if the alternative is not a base TypeParams/AttrParams check
/// (typeEq lowers to TypeParams, so exact-type alternatives dispatch
/// too). Alternatives keyed under different definitions are mutually
/// exclusive, which is what makes table dispatch exact.
const void *dispatchKey(const Constraint &C) {
  const Constraint *S = stripNamed(&C);
  if (S->getKind() == Constraint::Kind::TypeParams)
    return S->getTypeDef();
  if (S->getKind() == Constraint::Kind::AttrParams)
    return S->getAttrDef();
  return nullptr;
}

} // namespace

namespace irdl::detail {

class ConstraintProgramBuilder {
public:
  ConstraintProgramBuilder() : P(std::make_shared<ConstraintProgram>()) {}

  ConstraintProgramPtr take(const ConstraintPtr &Root) {
    emit(*Root);
    ++NumProgramsCompiled;
    NumInstrsEmitted += P->Instrs.size();
    return P;
  }

private:
  using Kind = Constraint::Kind;

  uint32_t emit(const Constraint &C) {
    if (C.getKind() == Kind::Named)
      return emit(*C.getChildren()[0]);

    uint32_t Idx = (uint32_t)P->Instrs.size();
    P->Instrs.emplace_back();

    // Children first (pre-order: the subtree of Idx is exactly
    // [Idx, Instrs.size()) when this frame returns), then the child
    // slice, so sibling slices stay contiguous.
    std::vector<uint32_t> ChildIdx;
    ChildIdx.reserve(C.getChildren().size());
    for (const ConstraintPtr &Ch : C.getChildren())
      ChildIdx.push_back(emit(*Ch));

    uint32_t Begin = (uint32_t)P->Children.size();
    P->Children.insert(P->Children.end(), ChildIdx.begin(), ChildIdx.end());

    assert(ChildIdx.size() <= UINT16_MAX && "constraint fan-out too large");
    CInstr &I = P->Instrs[Idx];
    I.NumChildren = (uint16_t)ChildIdx.size();
    I.ChildrenBegin = Begin;

    switch (C.getKind()) {
    case Kind::AnyType:
      I.Op = COpcode::AnyType;
      break;
    case Kind::AnyAttr:
      I.Op = COpcode::AnyAttr;
      break;
    case Kind::AnyParam:
      I.Op = COpcode::AnyParam;
      break;
    case Kind::TypeParams:
      I.Op = COpcode::TypeParams;
      I.A = poolIndex(TypeDefIdx, P->TypeDefs, C.getTypeDef());
      if (C.isBaseOnly())
        I.Flags |= CInstr::FlagBaseOnly;
      break;
    case Kind::AttrParams:
      I.Op = COpcode::AttrParams;
      I.A = poolIndex(AttrDefIdx, P->AttrDefs, C.getAttrDef());
      if (C.isBaseOnly())
        I.Flags |= CInstr::FlagBaseOnly;
      break;
    case Kind::IntKind:
      I.Op = COpcode::IntKind;
      I.A = pushPool(P->Ints, C.getIntVal());
      break;
    case Kind::IntEq:
      I.Op = COpcode::IntEq;
      I.A = pushPool(P->Ints, C.getIntVal());
      break;
    case Kind::FloatKind:
      I.Op = COpcode::FloatKind;
      I.A = pushPool(P->Floats, C.getFloatVal());
      break;
    case Kind::FloatEq:
      I.Op = COpcode::FloatEq;
      I.A = pushPool(P->Floats, C.getFloatVal());
      break;
    case Kind::StringKind:
      I.Op = COpcode::StringKind;
      break;
    case Kind::StringEq:
      I.Op = COpcode::StringEq;
      I.A = stringIndex(C.getString());
      break;
    case Kind::EnumKind:
      I.Op = COpcode::EnumKind;
      I.A = poolIndex(EnumDefIdx, P->EnumDefs, C.getEnumDef());
      break;
    case Kind::EnumEq:
      I.Op = COpcode::EnumEq;
      I.A = pushPool(P->EnumVals, C.getEnumVal());
      break;
    case Kind::ArrayOf:
      I.Op = COpcode::ArrayOf;
      break;
    case Kind::ArrayExact:
      I.Op = COpcode::ArrayExact;
      break;
    case Kind::OpaqueKind:
      I.Op = COpcode::OpaqueKind;
      I.A = stringIndex(C.getString());
      break;
    case Kind::AnyOf:
      I.Op = COpcode::AnyOf;
      lowerAnyOf(C, Idx, ChildIdx);
      break;
    case Kind::And:
      I.Op = COpcode::And;
      break;
    case Kind::Not:
      I.Op = COpcode::Not;
      break;
    case Kind::Var:
      I.Op = COpcode::Var;
      I.A = C.getVarIndex();
      break;
    case Kind::Cpp:
      I.Op = COpcode::Cpp;
      I.A = pushPool(P->CppPreds, C.getCppPred());
      break;
    case Kind::Native:
      I.Op = COpcode::Native;
      I.A = pushPool(P->NativeFns, C.getNativeFn());
      break;
    case Kind::Named:
      assert(false && "Named handled above");
      break;
    }

    return Idx;
  }

  /// Upgrades an AnyOf to AnyOfTable when every alternative is rooted in
  /// a base definition check and there are enough of them.
  void lowerAnyOf(const Constraint &C, uint32_t Idx,
                  const std::vector<uint32_t> &ChildIdx) {
    const auto &Alts = C.getChildren();
    if (Alts.size() < ConstraintCompiler::MinDispatchAlts)
      return;
    std::vector<const void *> Keys;
    Keys.reserve(Alts.size());
    for (const ConstraintPtr &Alt : Alts) {
      const void *Key = dispatchKey(*Alt);
      if (!Key)
        return;
      Keys.push_back(Key);
    }

    // Group alternative entry points by definition, preserving source
    // order within each group (same-def alternatives still try in
    // declaration order, exactly like the sequential scan).
    ConstraintProgram::DispatchTable Table;
    std::vector<std::vector<uint32_t>> Groups;
    for (size_t AltI = 0; AltI != Keys.size(); ++AltI) {
      auto [It, Inserted] = Table.Map.try_emplace(
          Keys[AltI], (uint32_t)Groups.size(), 0u);
      if (Inserted)
        Groups.emplace_back();
      Groups[It->second.first].push_back(ChildIdx[AltI]);
    }
    for (auto &[Key, Slice] : Table.Map) {
      std::vector<uint32_t> &Group = Groups[Slice.first];
      Slice = {(uint32_t)P->TableAlts.size(), (uint32_t)Group.size()};
      P->TableAlts.insert(P->TableAlts.end(), Group.begin(), Group.end());
    }

    CInstr &I = P->Instrs[Idx];
    I.Op = COpcode::AnyOfTable;
    I.A = (uint32_t)P->Tables.size();
    P->Tables.push_back(std::move(Table));
    ++NumDispatchTablesBuilt;
  }

  template <typename T, typename PoolT>
  uint32_t poolIndex(std::unordered_map<T, uint32_t> &Cache, PoolT &Pool,
                     T Value) {
    auto [It, Inserted] = Cache.try_emplace(Value, (uint32_t)Pool.size());
    if (Inserted)
      Pool.push_back(Value);
    return It->second;
  }

  template <typename PoolT, typename T>
  uint32_t pushPool(PoolT &Pool, const T &Value) {
    Pool.push_back(Value);
    return (uint32_t)Pool.size() - 1;
  }

  uint32_t stringIndex(const std::string &S) {
    auto [It, Inserted] =
        StringIdx.try_emplace(S, (uint32_t)P->Strings.size());
    if (Inserted)
      P->Strings.push_back(S);
    return It->second;
  }

  std::shared_ptr<ConstraintProgram> P;
  std::unordered_map<const TypeDefinition *, uint32_t> TypeDefIdx;
  std::unordered_map<const AttrDefinition *, uint32_t> AttrDefIdx;
  std::unordered_map<const EnumDef *, uint32_t> EnumDefIdx;
  std::unordered_map<std::string, uint32_t> StringIdx;
};

} // namespace irdl::detail

ConstraintProgramPtr ConstraintCompiler::compile(const ConstraintPtr &C) {
  assert(C && "compiling a null constraint");
  return detail::ConstraintProgramBuilder().take(C);
}

std::vector<ConstraintProgramPtr> ConstraintCompiler::compileVarPrograms(
    const std::vector<ConstraintPtr> &VarConstraints) {
  std::vector<ConstraintProgramPtr> Programs;
  Programs.reserve(VarConstraints.size());
  for (const ConstraintPtr &C : VarConstraints)
    Programs.push_back(compile(C));
  return Programs;
}
