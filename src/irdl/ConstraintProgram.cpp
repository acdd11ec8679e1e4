//===- ConstraintProgram.cpp ----------------------------------------===//

#include "irdl/ConstraintProgram.h"

#include "irdl/ConstraintProfiler.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <atomic>
#include <sstream>

using namespace irdl;

IRDL_STATISTIC(ConstraintProgram, NumProgramRuns,
               "compiled constraint program executions");

namespace {
/// Metric series for the compiled-constraint engine, created once and
/// recorded into only while metricsEnabled().
struct ConstraintMetrics {
  Counter &DispatchHits;
  Counter &DispatchRejects;

  static ConstraintMetrics &get() {
    static ConstraintMetrics M{
        MetricsRegistry::instance().getCounter(
            "irdl_constraint_dispatch_hits_total",
            "AnyOf alternatives dispatched directly via a table"),
        MetricsRegistry::instance().getCounter(
            "irdl_constraint_dispatch_rejects_total",
            "AnyOf values refuted by a table lookup alone")};
    return M;
  }
};
} // namespace

std::string_view irdl::getOpcodeName(COpcode Op) {
  switch (Op) {
  case COpcode::AnyType:
    return "AnyType";
  case COpcode::AnyAttr:
    return "AnyAttr";
  case COpcode::AnyParam:
    return "AnyParam";
  case COpcode::TypeParams:
    return "TypeParams";
  case COpcode::AttrParams:
    return "AttrParams";
  case COpcode::IntKind:
    return "IntKind";
  case COpcode::IntEq:
    return "IntEq";
  case COpcode::FloatKind:
    return "FloatKind";
  case COpcode::FloatEq:
    return "FloatEq";
  case COpcode::StringKind:
    return "StringKind";
  case COpcode::StringEq:
    return "StringEq";
  case COpcode::EnumKind:
    return "EnumKind";
  case COpcode::EnumEq:
    return "EnumEq";
  case COpcode::ArrayOf:
    return "ArrayOf";
  case COpcode::ArrayExact:
    return "ArrayExact";
  case COpcode::OpaqueKind:
    return "OpaqueKind";
  case COpcode::AnyOf:
    return "AnyOf";
  case COpcode::AnyOfTable:
    return "AnyOfTable";
  case COpcode::And:
    return "And";
  case COpcode::Not:
    return "Not";
  case COpcode::Var:
    return "Var";
  case COpcode::Cpp:
    return "Cpp";
  case COpcode::Native:
    return "Native";
  }
  return "<invalid>";
}

ConstraintProgram::ConstraintProgram() {
  static std::atomic<uint64_t> NextId{1};
  Id = NextId.fetch_add(1, std::memory_order_relaxed);
}

bool ConstraintProgram::run(const ParamValue &V, MatchContext &MC) const {
  ++NumProgramRuns;
  assert(!Instrs.empty() && "empty constraint program");
  if (constraintProfilingEnabled()) {
    uint64_t Begin = steadyNowNs();
    bool Result = exec(0, V, MC);
    ProfNs.fetch_add(steadyNowNs() - Begin, std::memory_order_relaxed);
    ProfEvals.fetch_add(1, std::memory_order_relaxed);
    return Result;
  }
  return exec(0, V, MC);
}

bool ConstraintProgram::run(Type T, MatchContext &MC) const {
  assert(!Instrs.empty() && "empty constraint program");
  // The common `!T` operand after the first: a bound variable makes the
  // verdict one handle comparison. Profiled runs keep the timed path.
  const CInstr &Entry = Instrs[0];
  if (Entry.Op == COpcode::Var && !constraintProfilingEnabled()) {
    const std::optional<ParamValue> &Binding = MC.getBinding(Entry.A);
    if (Binding && Binding->isType()) {
      ++NumProgramRuns;
      return Binding->getType() == T;
    }
  }
  return run(ParamValue(T), MC);
}

/// Matches the enum-constraint value conventions of the tree interpreter:
/// enum constraints accept raw enum parameters and builtin.enum
/// attributes wrapping one.
static bool matchEnum(const ParamValue &V, const EnumDef *EDef,
                      const EnumVal *EV) {
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
  return EV ? Inner->getEnum() == *EV : Inner->getEnum().Def == EDef;
}

bool ConstraintProgram::exec(uint32_t Pc, const ParamValue &V,
                             MatchContext &MC) const {
  const CInstr &I = Instrs[Pc];
  const uint32_t *Child = Children.data() + I.ChildrenBegin;
  switch (I.Op) {
  case COpcode::AnyType:
    return V.isType();
  case COpcode::AnyAttr:
    return V.isAttr();
  case COpcode::AnyParam:
    return true;
  case COpcode::TypeParams: {
    if (!V.isType() || V.getType().getDef() != TypeDefs[I.A])
      return false;
    if (I.Flags & CInstr::FlagBaseOnly)
      return true;
    const auto &Params = V.getType().getParams();
    if (Params.size() != I.NumChildren)
      return false;
    for (uint16_t C = 0; C != I.NumChildren; ++C)
      if (!exec(Child[C], Params[C], MC))
        return false;
    return true;
  }
  case COpcode::AttrParams: {
    if (!V.isAttr() || V.getAttr().getDef() != AttrDefs[I.A])
      return false;
    if (I.Flags & CInstr::FlagBaseOnly)
      return true;
    const auto &Params = V.getAttr().getParams();
    if (Params.size() != I.NumChildren)
      return false;
    for (uint16_t C = 0; C != I.NumChildren; ++C)
      if (!exec(Child[C], Params[C], MC))
        return false;
    return true;
  }
  case COpcode::IntKind:
    return V.isInt() && V.getInt().Width == Ints[I.A].Width &&
           V.getInt().Sign == Ints[I.A].Sign;
  case COpcode::IntEq:
    return V.isInt() && V.getInt() == Ints[I.A];
  case COpcode::FloatKind:
    return V.isFloat() &&
           (Floats[I.A].Width == 0 ||
            V.getFloat().Width == Floats[I.A].Width);
  case COpcode::FloatEq:
    return V.isFloat() && V.getFloat() == Floats[I.A];
  case COpcode::StringKind:
    return V.isString();
  case COpcode::StringEq:
    return V.isString() && V.getString() == Strings[I.A];
  case COpcode::EnumKind:
    return matchEnum(V, EnumDefs[I.A], nullptr);
  case COpcode::EnumEq:
    return matchEnum(V, EnumVals[I.A].Def, &EnumVals[I.A]);
  case COpcode::ArrayOf: {
    if (!V.isArray())
      return false;
    if (I.NumChildren == 0)
      return true;
    for (const ParamValue &Elem : V.getArray())
      if (!exec(Child[0], Elem, MC))
        return false;
    return true;
  }
  case COpcode::ArrayExact: {
    if (!V.isArray() || V.getArray().size() != I.NumChildren)
      return false;
    for (uint16_t C = 0; C != I.NumChildren; ++C)
      if (!exec(Child[C], V.getArray()[C], MC))
        return false;
    return true;
  }
  case COpcode::OpaqueKind:
    return V.isOpaque() && V.getOpaque().ParamTypeName == Strings[I.A];
  case COpcode::AnyOf: {
    for (uint16_t C = 0; C != I.NumChildren; ++C) {
      MatchContext::Mark M = MC.mark();
      if (exec(Child[C], V, MC))
        return true;
      MC.undoTo(M);
    }
    return false;
  }
  case COpcode::AnyOfTable: {
    // Every alternative is rooted in a base definition check, so only
    // the alternatives keyed under the value's own definition can
    // possibly match; everything else is skipped without executing.
    const void *Def = nullptr;
    if (V.isType())
      Def = V.getType().getDef();
    else if (V.isAttr())
      Def = V.getAttr().getDef();
    const DispatchTable &Table = Tables[I.A];
    auto It = Def ? Table.Map.find(Def) : Table.Map.end();
    if (It == Table.Map.end()) {
      if (metricsEnabled())
        ConstraintMetrics::get().DispatchRejects.inc();
      return false;
    }
    if (metricsEnabled())
      ConstraintMetrics::get().DispatchHits.inc();
    auto [Begin, Count] = It->second;
    for (uint32_t C = 0; C != Count; ++C) {
      MatchContext::Mark M = MC.mark();
      if (exec(TableAlts[Begin + C], V, MC))
        return true;
      MC.undoTo(M);
    }
    return false;
  }
  case COpcode::And: {
    for (uint16_t C = 0; C != I.NumChildren; ++C)
      if (!exec(Child[C], V, MC))
        return false;
    return true;
  }
  case COpcode::Not: {
    MatchContext::Mark M = MC.mark();
    bool Matched = exec(Child[0], V, MC);
    MC.undoTo(M);
    return !Matched;
  }
  case COpcode::Var: {
    const auto &Binding = MC.getBinding(I.A);
    if (Binding)
      return *Binding == V;
    if (!MC.getVarProgram(I.A).run(V, MC))
      return false;
    MC.bind(I.A, V);
    return true;
  }
  case COpcode::Cpp: {
    if (!exec(Child[0], V, MC) || !CppPreds[I.A])
      return false;
    return CppPreds[I.A](V);
  }
  case COpcode::Native: {
    if (!exec(Child[0], V, MC) || !NativeFns[I.A])
      return false;
    return NativeFns[I.A](V);
  }
  }
  return false;
}

std::optional<ParamValue>
ConstraintProgram::concreteValue(const MatchContext &MC,
                                 IRContext &Ctx) const {
  assert(!Instrs.empty() && "empty constraint program");
  return concreteAt(0, MC, Ctx);
}

std::optional<ParamValue>
ConstraintProgram::concreteAt(uint32_t Pc, const MatchContext &MC,
                              IRContext &Ctx) const {
  const CInstr &I = Instrs[Pc];
  const uint32_t *Child = Children.data() + I.ChildrenBegin;
  switch (I.Op) {
  case COpcode::TypeParams: {
    const TypeDefinition *Def = TypeDefs[I.A];
    if ((I.Flags & CInstr::FlagBaseOnly) && Def->getNumParams() != 0)
      return std::nullopt;
    std::vector<ParamValue> Params;
    for (uint16_t C = 0; C != I.NumChildren; ++C) {
      auto V = concreteAt(Child[C], MC, Ctx);
      if (!V)
        return std::nullopt;
      Params.push_back(std::move(*V));
    }
    DiagnosticEngine Scratch;
    Type T = Ctx.getTypeChecked(Def, std::move(Params), Scratch);
    if (!T)
      return std::nullopt;
    return ParamValue(T);
  }
  case COpcode::AttrParams: {
    const AttrDefinition *Def = AttrDefs[I.A];
    if ((I.Flags & CInstr::FlagBaseOnly) && Def->getNumParams() != 0)
      return std::nullopt;
    std::vector<ParamValue> Params;
    for (uint16_t C = 0; C != I.NumChildren; ++C) {
      auto V = concreteAt(Child[C], MC, Ctx);
      if (!V)
        return std::nullopt;
      Params.push_back(std::move(*V));
    }
    DiagnosticEngine Scratch;
    Attribute A = Ctx.getAttrChecked(Def, std::move(Params), Scratch);
    if (!A)
      return std::nullopt;
    return ParamValue(A);
  }
  case COpcode::IntEq:
    return ParamValue(Ints[I.A]);
  case COpcode::FloatEq:
    return ParamValue(Floats[I.A]);
  case COpcode::StringEq:
    return ParamValue(Strings[I.A]);
  case COpcode::EnumEq:
    return ParamValue(EnumVals[I.A]);
  case COpcode::ArrayExact: {
    std::vector<ParamValue> Elems;
    for (uint16_t C = 0; C != I.NumChildren; ++C) {
      auto V = concreteAt(Child[C], MC, Ctx);
      if (!V)
        return std::nullopt;
      Elems.push_back(std::move(*V));
    }
    return ParamValue(std::move(Elems));
  }
  case COpcode::Var:
    if (const auto &Binding = MC.getBinding(I.A))
      return *Binding;
    return std::nullopt;
  case COpcode::And:
  case COpcode::Cpp:
  case COpcode::Native:
    // Derivable when some conjunct is (the Cpp/Native base is their sole
    // child, mirroring the tree interpreter).
    for (uint16_t C = 0; C != I.NumChildren; ++C)
      if (auto V = concreteAt(Child[C], MC, Ctx))
        return V;
    return std::nullopt;
  default:
    return std::nullopt;
  }
}

std::optional<ParamValue>
ConstraintProgram::concreteChildValue(unsigned I, const MatchContext &MC,
                                      IRContext &Ctx) const {
  assert(!Instrs.empty() && "empty constraint program");
  if (I >= Instrs[0].NumChildren)
    return std::nullopt;
  return concreteAt(Children[Instrs[0].ChildrenBegin + I], MC, Ctx);
}

void ConstraintProgram::collectUnguardedVars(std::vector<unsigned> &Out) const {
  // A worklist with a visited set: a hostile `.irbc` program may nest
  // deeply or share subprograms heavily.
  std::vector<bool> Visited(Instrs.size());
  std::vector<uint32_t> Work{0};
  while (!Work.empty()) {
    uint32_t Pc = Work.back();
    Work.pop_back();
    if (Visited[Pc])
      continue;
    Visited[Pc] = true;
    const CInstr &I = Instrs[Pc];
    const uint32_t *Child = Children.data() + I.ChildrenBegin;
    switch (I.Op) {
    case COpcode::Var:
      Out.push_back(I.A);
      break;
    case COpcode::AnyOfTable:
      for (const auto &[Def, Slice] : Tables[I.A].Map)
        Work.insert(Work.end(), TableAlts.begin() + Slice.first,
                    TableAlts.begin() + Slice.first + Slice.second);
      [[fallthrough]];
    case COpcode::AnyOf:
    case COpcode::And:
    case COpcode::Not:
    case COpcode::Cpp:
    case COpcode::Native:
      Work.insert(Work.end(), Child, Child + I.NumChildren);
      break;
    default:
      // Leaves, and parameter/element programs that only ever see a
      // strictly smaller value.
      break;
    }
  }
}

std::string ConstraintProgram::dump() const {
  std::ostringstream OS;
  for (size_t Pc = 0, E = Instrs.size(); Pc != E; ++Pc) {
    const CInstr &I = Instrs[Pc];
    OS << Pc << ": " << getOpcodeName(I.Op);
    switch (I.Op) {
    case COpcode::TypeParams:
      OS << " !" << TypeDefs[I.A]->getFullName();
      break;
    case COpcode::AttrParams:
      OS << " #" << AttrDefs[I.A]->getFullName();
      break;
    case COpcode::IntKind:
    case COpcode::IntEq:
      OS << " " << Ints[I.A].Value << ":w" << Ints[I.A].Width;
      break;
    case COpcode::FloatKind:
    case COpcode::FloatEq:
      OS << " w" << Floats[I.A].Width;
      break;
    case COpcode::StringEq:
    case COpcode::OpaqueKind:
      OS << " \"" << Strings[I.A] << "\"";
      break;
    case COpcode::EnumKind:
      OS << " " << EnumDefs[I.A]->getFullName();
      break;
    case COpcode::EnumEq:
      OS << " " << EnumVals[I.A].Def->getFullName() << "#"
         << EnumVals[I.A].Index;
      break;
    case COpcode::AnyOfTable:
      OS << " tbl=" << I.A << "/" << Tables[I.A].Map.size() << "defs";
      break;
    case COpcode::Var:
      OS << " v" << I.A;
      break;
    default:
      break;
    }
    if (I.Flags & CInstr::FlagBaseOnly)
      OS << " base";
    if (I.NumChildren) {
      OS << " [";
      for (uint16_t C = 0; C != I.NumChildren; ++C) {
        if (C)
          OS << " ";
        OS << Children[I.ChildrenBegin + C];
      }
      OS << "]";
    }
    OS << "\n";
  }
  return OS.str();
}
