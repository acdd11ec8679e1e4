//===- ModuleSynthesizer.cpp ----------------------------------------===//

#include "corpus/ModuleSynthesizer.h"

#include "ir/Block.h"
#include "ir/Region.h"

#include <algorithm>

using namespace irdl;

namespace {

/// The deterministic PRNG shared with the IR roundtrip tests.
struct Lcg {
  uint64_t State;
  explicit Lcg(uint64_t Seed) : State(Seed ? Seed : 1) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 33;
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }
};

class Synthesizer {
public:
  Synthesizer(IRContext &Ctx, const DialectSpec &Spec,
              const ModuleSynthOptions &Opts)
      : Ctx(Ctx), Spec(Spec), Opts(Opts), Rng(Opts.Seed) {}

  OwningOpRef run() {
    buildPools();
    OperationState ModState(Ctx, Ctx.resolveOpDef("builtin.module"));
    Region *ModRegion = ModState.addRegion();
    // A couple of block arguments give the operand picker something to
    // use before the first result-producing op exists.
    Type ArgTypes[] = {TypePool[0], TypePool[Rng.below(TypePool.size())]};
    Block *Body = Block::create(Ctx, ArgTypes);
    ModRegion->push_back(Body);
    Operation *Module = Operation::create(ModState);
    std::vector<Value> ValuePool(Body->getArguments().begin(),
                                 Body->getArguments().end());

    for (unsigned Round = 0; Round != Opts.InstancesPerOp; ++Round)
      for (const OpSpec &OS : Spec.Ops) {
        Operation *Op = synthesizeOp(OS, ValuePool, /*Depth=*/0);
        Body->push_back(Op);
        for (unsigned I = 0, N = Op->getNumResults(); I != N; ++I)
          ValuePool.push_back(Op->getResult(I));
      }
    return OwningOpRef(Module);
  }

private:
  //===------------------------------------------------------------------===//
  // Type / attribute pools
  //===------------------------------------------------------------------===//

  void buildPools() {
    TypePool.push_back(Ctx.getFloatType(32));
    TypePool.push_back(Ctx.getFloatType(64));
    TypePool.push_back(Ctx.getIntegerType(32));
    TypePool.push_back(Ctx.getIntegerType(1));
    TypePool.push_back(Ctx.getIntegerType(16, Signedness::Signed));
    TypePool.push_back(Ctx.getIndexType());

    AttrPool.push_back(Ctx.getIntegerAttr(7, 32));
    AttrPool.push_back(Ctx.getFloatAttr(1.5, 64));
    AttrPool.push_back(Ctx.getStringAttr("synth"));
    AttrPool.push_back(Ctx.getUnitAttr());
    AttrPool.push_back(Ctx.getTypeAttr(TypePool[0]));
    for (const EnumSpec &E : Spec.Enums)
      if (E.Def && !E.Cases.empty())
        AttrPool.push_back(Ctx.getEnumAttr(
            EnumVal{E.Def, static_cast<unsigned>(Rng.below(E.Cases.size()))}));

    // Two rounds so dialect types whose parameters are themselves dialect
    // types (or attributes) can nest.
    for (int Round = 0; Round != 2; ++Round) {
      for (const TypeOrAttrSpec &TS : Spec.Types)
        addDialectType(TS);
      for (const TypeOrAttrSpec &TS : Spec.Attrs)
        addDialectAttr(TS);
    }
  }

  void addDialectType(const TypeOrAttrSpec &TS) {
    if (!TS.Def)
      return;
    std::vector<ParamValue> Params;
    for (const ParamSpec &P : TS.Params) {
      auto V = solve(*P.Constr, /*Depth=*/0);
      if (!V)
        return; // constraint too rich for the solver: skip the def
      Params.push_back(std::move(*V));
    }
    DiagnosticEngine Scratch;
    Type T = Ctx.getTypeChecked(static_cast<TypeDefinition *>(TS.Def),
                                std::move(Params), Scratch);
    if (T && std::find(TypePool.begin(), TypePool.end(), T) == TypePool.end())
      TypePool.push_back(T);
  }

  void addDialectAttr(const TypeOrAttrSpec &TS) {
    if (!TS.Def)
      return;
    std::vector<ParamValue> Params;
    for (const ParamSpec &P : TS.Params) {
      auto V = solve(*P.Constr, /*Depth=*/0);
      if (!V)
        return;
      Params.push_back(std::move(*V));
    }
    DiagnosticEngine Scratch;
    Attribute A = Ctx.getAttrChecked(static_cast<AttrDefinition *>(TS.Def),
                                     std::move(Params), Scratch);
    if (A && std::find(AttrPool.begin(), AttrPool.end(), A) == AttrPool.end())
      AttrPool.push_back(A);
  }

  //===------------------------------------------------------------------===//
  // A small constraint solver: find one ParamValue matching a constraint
  //===------------------------------------------------------------------===//

  bool matches(const Constraint &C, const ParamValue &V) {
    // Constraint variables only appear inside op specs, which the solver
    // never reaches (it runs over type/attr parameter constraints).
    if (C.referencesVar())
      return false;
    MatchContext MC;
    return C.matches(V, MC);
  }

  std::optional<ParamValue> checked(const Constraint &C, ParamValue V) {
    if (matches(C, V))
      return V;
    return std::nullopt;
  }

  std::optional<ParamValue> solve(const Constraint &C, unsigned Depth) {
    if (Depth > 6)
      return std::nullopt;
    switch (C.getKind()) {
    case Constraint::Kind::AnyType:
      return ParamValue(TypePool[Rng.below(TypePool.size())]);
    case Constraint::Kind::AnyAttr:
      return ParamValue(AttrPool[Rng.below(AttrPool.size())]);
    case Constraint::Kind::AnyParam:
      return ParamValue(IntVal{32, Signedness::Signless,
                               static_cast<int64_t>(Rng.below(16))});
    case Constraint::Kind::TypeParams:
    case Constraint::Kind::AttrParams: {
      bool IsType = C.getKind() == Constraint::Kind::TypeParams;
      // Prefer an existing pool entry; otherwise construct one by solving
      // each parameter constraint.
      size_t PoolSize = IsType ? TypePool.size() : AttrPool.size();
      for (size_t I = 0; I != PoolSize; ++I) {
        ParamValue Candidate = IsType ? ParamValue(TypePool[I])
                                      : ParamValue(AttrPool[I]);
        if (matches(C, Candidate))
          return Candidate;
      }
      if (C.isBaseOnly())
        return std::nullopt;
      std::vector<ParamValue> Params;
      for (const Constraint *Child : C.getChildren()) {
        auto V = solve(*Child, Depth + 1);
        if (!V)
          return std::nullopt;
        Params.push_back(std::move(*V));
      }
      DiagnosticEngine Scratch;
      if (C.getKind() == Constraint::Kind::TypeParams) {
        Type T =
            Ctx.getTypeChecked(C.getTypeDef(), std::move(Params), Scratch);
        return T ? checked(C, ParamValue(T)) : std::nullopt;
      }
      Attribute A =
          Ctx.getAttrChecked(C.getAttrDef(), std::move(Params), Scratch);
      return A ? checked(C, ParamValue(A)) : std::nullopt;
    }
    case Constraint::Kind::IntKind:
      return ParamValue(IntVal{static_cast<uint16_t>(C.getIntWidth()),
                               C.getIntSign(),
                               static_cast<int64_t>(Rng.below(8))});
    case Constraint::Kind::IntEq:
      return ParamValue(C.getIntVal());
    case Constraint::Kind::FloatKind:
      return ParamValue(FloatVal{
          static_cast<uint16_t>(C.getFloatVal().Width ? C.getFloatVal().Width
                                                      : 64),
          0.5});
    case Constraint::Kind::FloatEq:
      return ParamValue(C.getFloatVal());
    case Constraint::Kind::StringKind:
      return ParamValue(std::string("s") + std::to_string(Rng.below(10)));
    case Constraint::Kind::StringEq:
      return ParamValue(std::string(C.getString()));
    case Constraint::Kind::EnumKind:
      return ParamValue(EnumVal{
          C.getEnumDef(),
          static_cast<unsigned>(Rng.below(C.getEnumDef()->getCases().size()))});
    case Constraint::Kind::EnumEq:
      return ParamValue(C.getEnumVal());
    case Constraint::Kind::ArrayOf: {
      if (C.getChildren().empty())
        return ParamValue(std::vector<ParamValue>{});
      auto Elem = solve(*C.getChildren().front(), Depth + 1);
      if (!Elem)
        return std::nullopt;
      return ParamValue(std::vector<ParamValue>{std::move(*Elem)});
    }
    case Constraint::Kind::ArrayExact: {
      std::vector<ParamValue> Elems;
      for (const Constraint *Child : C.getChildren()) {
        auto V = solve(*Child, Depth + 1);
        if (!V)
          return std::nullopt;
        Elems.push_back(std::move(*V));
      }
      return ParamValue(std::move(Elems));
    }
    case Constraint::Kind::OpaqueKind:
      return ParamValue(OpaqueVal{std::string(C.getString()), "synth-payload"});
    case Constraint::Kind::AnyOf:
      for (const Constraint *Child : C.getChildren())
        if (auto V = solve(*Child, Depth + 1))
          if (auto Whole = checked(C, std::move(*V)))
            return Whole;
      return std::nullopt;
    case Constraint::Kind::And: {
      if (C.getChildren().empty())
        return std::nullopt;
      // Solve the first conjunct, then check the whole conjunction.
      auto V = solve(*C.getChildren().front(), Depth + 1);
      return V ? checked(C, std::move(*V)) : std::nullopt;
    }
    case Constraint::Kind::Not: {
      // Try a few generic values and keep whatever the negation accepts.
      ParamValue Candidates[] = {
          ParamValue(TypePool[Rng.below(TypePool.size())]),
          ParamValue(IntVal{32, Signedness::Signless, 3}),
          ParamValue(std::string("neg")),
          ParamValue(AttrPool[Rng.below(AttrPool.size())])};
      for (ParamValue &V : Candidates)
        if (matches(C, V))
          return V;
      return std::nullopt;
    }
    case Constraint::Kind::Var:
      return std::nullopt;
    case Constraint::Kind::Cpp:
    case Constraint::Kind::Native:
    case Constraint::Kind::Named: {
      auto V = solve(*C.getChildren().front(), Depth + 1);
      return V ? checked(C, std::move(*V)) : std::nullopt;
    }
    }
    return std::nullopt;
  }

  //===------------------------------------------------------------------===//
  // Operation synthesis
  //===------------------------------------------------------------------===//

  Type typeFor(const Constraint *C) {
    if (auto V = solve(*C, 0))
      if (V->isType())
        return V->getType();
    return TypePool[Rng.below(TypePool.size())];
  }

  unsigned countFor(VariadicKind VK) {
    switch (VK) {
    case VariadicKind::Single:
      return 1;
    case VariadicKind::Optional:
      return static_cast<unsigned>(Rng.below(2));
    case VariadicKind::Variadic:
      return static_cast<unsigned>(Rng.below(3));
    }
    return 1;
  }

  Operation *synthesizeOp(const OpSpec &OS, std::vector<Value> &ValuePool,
                          unsigned Depth) {
    OperationState State(Ctx, OS.Def);
    for (const OperandSpec &RS : OS.Results)
      for (unsigned I = 0, N = countFor(RS.VK); I != N; ++I)
        State.ResultTypes.push_back(typeFor(RS.Constr));
    if (!ValuePool.empty())
      for (const OperandSpec &Od : OS.Operands)
        for (unsigned I = 0, N = countFor(Od.VK); I != N; ++I)
          State.Operands.push_back(ValuePool[Rng.below(ValuePool.size())]);
    for (const ParamSpec &AS : OS.Attributes) {
      if (auto V = solve(*AS.Constr, 0); V && V->isAttr())
        State.addAttribute(AS.Name, V->getAttr());
      else
        State.addAttribute(AS.Name, AttrPool[Rng.below(AttrPool.size())]);
    }

    std::vector<std::pair<const RegionSpec *, Region *>> PendingRegions;
    if (Depth < Opts.MaxRegionDepth)
      for (const RegionSpec &RS : OS.Regions)
        PendingRegions.emplace_back(&RS, State.addRegion());

    // Region bodies are built into the OperationState's regions before
    // creation; their blocks move into the op wholesale.
    for (auto &[RS, R] : PendingRegions) {
      std::vector<Type> ArgTypes;
      for (const OperandSpec &AS : RS->Args)
        for (unsigned I = 0, N = countFor(AS.VK); I != N; ++I)
          ArgTypes.push_back(typeFor(AS.Constr));
      Block *B = Block::create(Ctx, ArgTypes);
      R->push_back(B);
      std::vector<Value> RegionPool = ValuePool;
      for (Value Arg : B->getArguments())
        RegionPool.push_back(Arg);
      // A couple of nested ops, then the required terminator (if any).
      for (unsigned I = 0; I != 2 && !Spec.Ops.empty(); ++I) {
        const OpSpec &Nested = Spec.Ops[Rng.below(Spec.Ops.size())];
        Operation *Op = synthesizeOp(Nested, RegionPool, Depth + 1);
        B->push_back(Op);
        for (unsigned J = 0, N = Op->getNumResults(); J != N; ++J)
          RegionPool.push_back(Op->getResult(J));
      }
      if (!RS->TerminatorOpName.empty()) {
        if (const OpDefinition *TermDef =
                Ctx.resolveOpDef(RS->TerminatorOpName)) {
          OperationState TermState(Ctx, TermDef);
          B->push_back(Operation::create(TermState));
        }
      }
    }
    return Operation::create(State);
  }

  IRContext &Ctx;
  const DialectSpec &Spec;
  const ModuleSynthOptions &Opts;
  Lcg Rng;
  std::vector<Type> TypePool;
  std::vector<Attribute> AttrPool;
};

} // namespace

OwningOpRef irdl::synthesizeModule(IRContext &Ctx, const DialectSpec &Spec,
                                   const ModuleSynthOptions &Opts) {
  return Synthesizer(Ctx, Spec, Opts).run();
}
