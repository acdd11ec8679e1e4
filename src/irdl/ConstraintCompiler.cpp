//===- ConstraintCompiler.cpp ---------------------------------------===//

#include "irdl/ConstraintCompiler.h"

#include "support/Statistic.h"

#include <algorithm>
#include <type_traits>
#include <utility>

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
    C = C->getChildren()[0];
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

/// Emits a program into scratch arrays it keeps from program to program,
/// then copies them into the storage of the source tree. Pools are
/// deduplicated by scanning them while they are small, and through a
/// hash index once one outgrows that, so that a large hostile tree stays
/// linear.
class ConstraintProgramBuilder {
public:
  const ConstraintProgram &build(const Constraint &Root) {
    Instrs.clear();
    Children.clear();
    TableAlts.clear();
    TypeDefs.clear();
    AttrDefs.clear();
    Ints.clear();
    Floats.clear();
    EnumDefs.clear();
    EnumVals.clear();
    Strings.clear();
    CppPreds.clear();
    NativeFns.clear();
    Slots.clear();
    Tables.clear();
    // Clearing a map wipes all of its buckets, so only the (rare) used
    // ones are cleared.
    if (!TypeDefIdx.empty())
      TypeDefIdx.clear();
    if (!AttrDefIdx.empty())
      AttrDefIdx.clear();
    if (!EnumDefIdx.empty())
      EnumDefIdx.clear();
    if (!StringIdx.empty())
      StringIdx.clear();
    emit(Root);
    BumpStorage &S = Root.getStorage();
    static_assert(std::is_trivially_destructible_v<ConstraintProgram>);
    auto *P = new (S.allocate(sizeof(ConstraintProgram),
                              alignof(ConstraintProgram)))
        ConstraintProgram(S);
    layOut(*P);
    ++NumProgramsCompiled;
    NumInstrsEmitted += P->Instrs.size();
    return *P;
  }

private:
  using Kind = Constraint::Kind;

  uint32_t emit(const Constraint &C) {
    if (C.getKind() == Kind::Named)
      return emit(*C.getChildren()[0]);

    uint32_t Idx = (uint32_t)Instrs.size();
    Instrs.emplace_back();

    // Children first (pre-order: the subtree of Idx is exactly
    // [Idx, Instrs.size()) when this frame returns), then the child
    // slice, so sibling slices stay contiguous. The child indices wait on
    // the ChildStack meanwhile.
    size_t StackBase = ChildStack.size();
    for (const Constraint *Ch : C.getChildren()) {
      uint32_t ChildIdx = emit(*Ch);
      ChildStack.push_back(ChildIdx);
    }
    size_t NumChildren = ChildStack.size() - StackBase;
    uint32_t Begin = (uint32_t)Children.size();
    Children.insert(Children.end(), ChildStack.begin() + StackBase,
                    ChildStack.end());
    ChildStack.resize(StackBase);

    assert(NumChildren <= UINT16_MAX && "constraint fan-out too large");
    CInstr &I = Instrs[Idx];
    I.NumChildren = (uint16_t)NumChildren;
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
      I.A = poolIndex(TypeDefIdx, TypeDefs, C.getTypeDef());
      if (C.isBaseOnly())
        I.Flags |= CInstr::FlagBaseOnly;
      break;
    case Kind::AttrParams:
      I.Op = COpcode::AttrParams;
      I.A = poolIndex(AttrDefIdx, AttrDefs, C.getAttrDef());
      if (C.isBaseOnly())
        I.Flags |= CInstr::FlagBaseOnly;
      break;
    case Kind::IntKind:
      I.Op = COpcode::IntKind;
      I.A = pushPool(Ints, C.getIntVal());
      break;
    case Kind::IntEq:
      I.Op = COpcode::IntEq;
      I.A = pushPool(Ints, C.getIntVal());
      break;
    case Kind::FloatKind:
      I.Op = COpcode::FloatKind;
      I.A = pushPool(Floats, C.getFloatVal());
      break;
    case Kind::FloatEq:
      I.Op = COpcode::FloatEq;
      I.A = pushPool(Floats, C.getFloatVal());
      break;
    case Kind::StringKind:
      I.Op = COpcode::StringKind;
      break;
    case Kind::StringEq:
      I.Op = COpcode::StringEq;
      I.A = poolIndex(StringIdx, Strings, C.getString());
      break;
    case Kind::EnumKind:
      I.Op = COpcode::EnumKind;
      I.A = poolIndex(EnumDefIdx, EnumDefs, C.getEnumDef());
      break;
    case Kind::EnumEq:
      I.Op = COpcode::EnumEq;
      I.A = pushPool(EnumVals, C.getEnumVal());
      break;
    case Kind::ArrayOf:
      I.Op = COpcode::ArrayOf;
      break;
    case Kind::ArrayExact:
      I.Op = COpcode::ArrayExact;
      break;
    case Kind::OpaqueKind:
      I.Op = COpcode::OpaqueKind;
      I.A = poolIndex(StringIdx, Strings, C.getString());
      break;
    case Kind::AnyOf:
      I.Op = COpcode::AnyOf;
      lowerAnyOf(C, Idx);
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
      I.A = pushPool(CppPreds, C.getCppPred());
      break;
    case Kind::Native:
      I.Op = COpcode::Native;
      I.A = pushPool(NativeFns, C.getNativeFn());
      break;
    case Kind::Named:
      assert(false && "Named handled above");
      break;
    }

    return Idx;
  }

  /// Upgrades the AnyOf at \p Idx to AnyOfTable when every alternative is
  /// rooted in a base definition check and there are enough of them.
  void lowerAnyOf(const Constraint &C, uint32_t Idx) {
    std::span<const Constraint *const> Alts = C.getChildren();
    if (Alts.size() < ConstraintCompiler::MinDispatchAlts)
      return;
    for (const Constraint *Alt : Alts)
      if (!dispatchKey(*Alt))
        return;

    // Group alternative entry points by definition, preserving source
    // order within each group (same-def alternatives still try in
    // declaration order, exactly like the sequential scan): number the
    // groups in first-seen order while filling the table's slots (their
    // Begin holds the group number meanwhile), then lay the alternatives
    // out grouped by a counting sort.
    uint32_t NumSlots = 1;
    while (NumSlots < 2 * Alts.size())
      NumSlots *= 2;
    uint32_t Mask = NumSlots - 1;
    uint32_t SlotsBegin = (uint32_t)Slots.size();
    Slots.resize(SlotsBegin + NumSlots, {nullptr, 0, 0});
    AltGroup.clear();
    GroupStart.clear();
    GroupSlot.clear();
    for (const Constraint *Alt : Alts) {
      const void *Key = dispatchKey(*Alt);
      uint32_t I = ConstraintProgram::dispatchHash(Key, Mask);
      while (Slots[SlotsBegin + I].Key && Slots[SlotsBegin + I].Key != Key)
        I = (I + 1) & Mask;
      ConstraintProgram::DispatchSlot &Slot = Slots[SlotsBegin + I];
      if (!Slot.Key) {
        Slot = {Key, (uint32_t)GroupStart.size(), 0};
        GroupStart.push_back(0);
        GroupSlot.push_back(SlotsBegin + I);
      }
      AltGroup.push_back(Slot.Begin);
      ++GroupStart[Slot.Begin];
    }
    uint32_t Next = 0;
    for (uint32_t &Start : GroupStart)
      Next += std::exchange(Start, Next);
    Grouped.resize(Alts.size());
    const CInstr &I = Instrs[Idx];
    for (size_t AltI = 0; AltI != Alts.size(); ++AltI)
      Grouped[GroupStart[AltGroup[AltI]]++] = Children[I.ChildrenBegin + AltI];
    // GroupStart[G] is now the end of group G.
    for (uint32_t Group = 0; Group != GroupStart.size(); ++Group) {
      uint32_t End = GroupStart[Group];
      uint32_t Size = End - (Group ? GroupStart[Group - 1] : 0);
      Slots[GroupSlot[Group]].Begin = (uint32_t)TableAlts.size();
      Slots[GroupSlot[Group]].Count = Size;
      TableAlts.insert(TableAlts.end(), Grouped.begin() + (End - Size),
                       Grouped.begin() + End);
    }

    Instrs[Idx].Op = COpcode::AnyOfTable;
    Instrs[Idx].A = (uint32_t)Tables.size();
    Tables.push_back({SlotsBegin, Mask, (uint32_t)GroupStart.size()});
    ++NumDispatchTablesBuilt;
  }

  /// Index of \p Value in \p Pool, appended if new.
  template <typename T>
  uint32_t poolIndex(std::unordered_map<T, uint32_t> &Index,
                     std::vector<T> &Pool, const T &Value) {
    constexpr size_t MaxScanned = 16;
    if (Pool.size() <= MaxScanned) {
      auto It = std::find(Pool.begin(), Pool.end(), Value);
      if (It != Pool.end())
        return (uint32_t)(It - Pool.begin());
      Pool.push_back(Value);
      if (Pool.size() > MaxScanned)
        for (size_t I = 0; I != Pool.size(); ++I)
          Index.emplace(Pool[I], (uint32_t)I);
      return (uint32_t)Pool.size() - 1;
    }
    auto [It, Inserted] = Index.try_emplace(Value, (uint32_t)Pool.size());
    if (Inserted)
      Pool.push_back(Value);
    return It->second;
  }

  template <typename PoolT, typename T>
  uint32_t pushPool(PoolT &Pool, const T &Value) {
    Pool.push_back(Value);
    return (uint32_t)Pool.size() - 1;
  }

  /// Copies the scratch arrays into one block of \p P's storage.
  void layOut(ConstraintProgram &P) {
    size_t Size = 0;
    auto Reserve = [&Size](const auto &From) {
      using T = typename std::decay_t<decltype(From)>::value_type;
      static_assert(std::is_trivially_copyable_v<T>);
      Size = (Size + alignof(T) - 1) / alignof(T) * alignof(T);
      size_t Offset = Size;
      Size += From.size() * sizeof(T);
      return Offset;
    };
    size_t Offsets[] = {Reserve(Instrs),    Reserve(Children),
                        Reserve(TableAlts), Reserve(TypeDefs),
                        Reserve(AttrDefs),  Reserve(Ints),
                        Reserve(Floats),    Reserve(EnumDefs),
                        Reserve(EnumVals),  Reserve(Strings),
                        Reserve(CppPreds),  Reserve(NativeFns),
                        Reserve(Slots),     Reserve(Tables)};
    auto *Base = static_cast<std::byte *>(
        P.getStorage().allocate(Size, alignof(std::max_align_t)));
    auto Assign = [Base](auto &To, const auto &From, size_t Offset) {
      using T = typename std::decay_t<decltype(From)>::value_type;
      T *Dest = reinterpret_cast<T *>(Base + Offset);
      std::copy(From.begin(), From.end(), Dest);
      To.Data = Dest;
      To.Size = (uint32_t)From.size();
    };
    Assign(P.Instrs, Instrs, Offsets[0]);
    Assign(P.Children, Children, Offsets[1]);
    Assign(P.TableAlts, TableAlts, Offsets[2]);
    Assign(P.TypeDefs, TypeDefs, Offsets[3]);
    Assign(P.AttrDefs, AttrDefs, Offsets[4]);
    Assign(P.Ints, Ints, Offsets[5]);
    Assign(P.Floats, Floats, Offsets[6]);
    Assign(P.EnumDefs, EnumDefs, Offsets[7]);
    Assign(P.EnumVals, EnumVals, Offsets[8]);
    Assign(P.Strings, Strings, Offsets[9]);
    Assign(P.CppPreds, CppPreds, Offsets[10]);
    Assign(P.NativeFns, NativeFns, Offsets[11]);
    Assign(P.Slots, Slots, Offsets[12]);
    Assign(P.Tables, Tables, Offsets[13]);
  }

  // Scratch, kept from program to program.
  std::vector<CInstr> Instrs;
  std::vector<uint32_t> Children;
  std::vector<uint32_t> TableAlts;
  std::vector<const TypeDefinition *> TypeDefs;
  std::vector<const AttrDefinition *> AttrDefs;
  std::vector<IntVal> Ints;
  std::vector<FloatVal> Floats;
  std::vector<const EnumDef *> EnumDefs;
  std::vector<EnumVal> EnumVals;
  std::vector<std::string_view> Strings;
  std::vector<const CppParamPredicate *> CppPreds;
  std::vector<const NativeConstraintFn *> NativeFns;
  std::vector<ConstraintProgram::DispatchSlot> Slots;
  std::vector<ConstraintProgram::DispatchTable> Tables;
  std::unordered_map<const TypeDefinition *, uint32_t> TypeDefIdx;
  std::unordered_map<const AttrDefinition *, uint32_t> AttrDefIdx;
  std::unordered_map<const EnumDef *, uint32_t> EnumDefIdx;
  std::unordered_map<std::string_view, uint32_t> StringIdx;
  std::vector<uint32_t> ChildStack;
  std::vector<uint32_t> AltGroup;
  std::vector<uint32_t> GroupStart;
  std::vector<uint32_t> GroupSlot;
  std::vector<uint32_t> Grouped;
};

} // namespace irdl::detail

const ConstraintProgram &
ConstraintCompiler::compileInStorage(const Constraint &C) {
  // One builder per thread, so its scratch is reused by every compile.
  static thread_local detail::ConstraintProgramBuilder Builder;
  return Builder.build(C);
}

ConstraintProgramPtr ConstraintCompiler::compile(const ConstraintPtr &C) {
  assert(C && "compiling a null constraint");
  return ConstraintProgramPtr(C, &compileInStorage(*C));
}

std::vector<const ConstraintProgram *> ConstraintCompiler::compileVarPrograms(
    std::span<const ConstraintPtr> VarConstraints) {
  std::vector<const ConstraintProgram *> Programs;
  Programs.reserve(VarConstraints.size());
  for (const ConstraintPtr &C : VarConstraints)
    Programs.push_back(&compileInStorage(*C));
  return Programs;
}
