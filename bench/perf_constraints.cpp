//===- perf_constraints.cpp - Constraint evaluation ablations -----------===//
///
/// Ablation (DESIGN.md): AnyOf short-circuiting (match position matters),
/// the cost of constraint-variable binding with backtracking, and the
/// compiled constraint engine (docs/constraint-compiler.md) against the
/// tree interpreter on the same workloads. The phase breakdown emits
/// paired `<workload>-interpreted` / `<workload>-compiled` timing nodes;
/// tools/check_constraint_bench.py consumes the JSON and fails CI when
/// the compiled engine stops being faster on the large workload.

#include "PerfHarness.h"

#include "irdl/Constraint.h"
#include "irdl/ConstraintCompiler.h"

#include <benchmark/benchmark.h>

using namespace irdl;

namespace {

/// Plain pointers to the nodes of \p Trees, which MatchContext takes.
std::vector<const Constraint *>
nodesOf(const std::vector<ConstraintPtr> &Trees) {
  std::vector<const Constraint *> Nodes;
  for (const ConstraintPtr &C : Trees)
    Nodes.push_back(C.get());
  return Nodes;
}

struct Fixture {
  IRContext Ctx;
  /// The storage the fixture's trees (and those built over them) live in.
  SpecStoragePtr Store = std::make_shared<BumpStorage>();
  std::vector<ConstraintPtr> Branches;

  Fixture() {
    for (unsigned W = 1; W <= 16; ++W)
      Branches.push_back(Constraint::typeEq(Store, Ctx.getIntegerType(W)));
  }
};

/// An AnyOf-heavy fixture where every alternative is rooted in a
/// *distinct* type definition, the shape dispatch tables are built for
/// (a dialect's "one of our N types" constraint).
struct DispatchFixture {
  IRContext Ctx;
  SpecStoragePtr Store = std::make_shared<BumpStorage>();
  std::vector<TypeDefinition *> Defs;
  std::vector<ConstraintPtr> Branches;
  std::vector<Type> Values;

  explicit DispatchFixture(unsigned N = 16) {
    Dialect *D = Ctx.getOrCreateDialect("dsp");
    for (unsigned I = 0; I != N; ++I) {
      TypeDefinition *T = D->addType("t" + std::to_string(I));
      T->setParamNames({"elem"});
      Defs.push_back(T);
      Branches.push_back(Constraint::typeConstraint(
          Store, T, {Constraint::typeEq(Store, Ctx.getFloatType(32))},
          /*BaseOnly=*/false));
      Values.push_back(
          Ctx.getType(T, {ParamValue(Ctx.getFloatType(32))}));
    }
  }
};

void BM_AnyOf_MatchFirst(benchmark::State &State) {
  Fixture F;
  ConstraintPtr C = Constraint::anyOf(F.Store, F.Branches);
  ParamValue V(F.Ctx.getIntegerType(1));
  for (auto _ : State) {
    MatchContext MC;
    bool R = C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_AnyOf_MatchFirst);

void BM_AnyOf_MatchLast(benchmark::State &State) {
  Fixture F;
  ConstraintPtr C = Constraint::anyOf(F.Store, F.Branches);
  ParamValue V(F.Ctx.getIntegerType(16));
  for (auto _ : State) {
    MatchContext MC;
    bool R = C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_AnyOf_MatchLast);

void BM_AnyOf_NoMatch(benchmark::State &State) {
  Fixture F;
  ConstraintPtr C = Constraint::anyOf(F.Store, F.Branches);
  ParamValue V(F.Ctx.getFloatType(32));
  for (auto _ : State) {
    MatchContext MC;
    bool R = C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_AnyOf_NoMatch);

void BM_VarBind_FirstUse(benchmark::State &State) {
  Fixture F;
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(F.Store)};
  ConstraintPtr C = Constraint::var(F.Store, 0, "T");
  ParamValue V(F.Ctx.getIntegerType(32));
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  for (auto _ : State) {
    MatchContext MC(VarNodes);
    bool R = C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_VarBind_FirstUse);

void BM_VarBind_UnifyThreeUses(benchmark::State &State) {
  // The cmath.mul pattern: one var, three uses.
  Fixture F;
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(F.Store)};
  ConstraintPtr C = Constraint::var(F.Store, 0, "T");
  ParamValue V(F.Ctx.getIntegerType(32));
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  for (auto _ : State) {
    MatchContext MC(VarNodes);
    bool R = C->matches(V, MC) && C->matches(V, MC) && C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_VarBind_UnifyThreeUses);

void BM_AnyOf_BacktrackingWithVars(benchmark::State &State) {
  // Branches that bind a var before failing exercise the trail.
  Fixture F;
  Dialect *D = F.Ctx.getOrCreateDialect("bt");
  TypeDefinition *Pair = D->addType("pair");
  Pair->setParamNames({"a", "b"});
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(F.Store)};
  ConstraintPtr T = Constraint::var(F.Store, 0, "T");
  std::vector<ConstraintPtr> Branches;
  for (unsigned W = 1; W <= 8; ++W)
    Branches.push_back(Constraint::typeConstraint(
        F.Store, Pair,
        {T, Constraint::typeEq(F.Store, F.Ctx.getIntegerType(W))},
        /*BaseOnly=*/false));
  ConstraintPtr C = Constraint::anyOf(F.Store, Branches);
  Type V = F.Ctx.getType(Pair, {ParamValue(F.Ctx.getFloatType(32)),
                                ParamValue(F.Ctx.getIntegerType(8))});
  ParamValue PV(V);
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  for (auto _ : State) {
    MatchContext MC(VarNodes);
    bool R = C->matches(PV, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_AnyOf_BacktrackingWithVars);

//===----------------------------------------------------------------------===//
// Compiled-engine counterparts
//===----------------------------------------------------------------------===//

void BM_Compiled_AnyOf_MatchLast(benchmark::State &State) {
  Fixture F;
  ConstraintProgramPtr P =
      ConstraintCompiler::compile(Constraint::anyOf(F.Store, F.Branches));
  ParamValue V(F.Ctx.getIntegerType(16));
  for (auto _ : State) {
    MatchContext MC;
    bool R = P->run(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Compiled_AnyOf_MatchLast);

void BM_Compiled_DispatchTable_MatchLast(benchmark::State &State) {
  DispatchFixture F;
  ConstraintProgramPtr P =
      ConstraintCompiler::compile(Constraint::anyOf(F.Store, F.Branches));
  ParamValue V(F.Values.back());
  for (auto _ : State) {
    MatchContext MC;
    bool R = P->run(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Compiled_DispatchTable_MatchLast);

void BM_Interpreted_DispatchShape_MatchLast(benchmark::State &State) {
  DispatchFixture F;
  ConstraintPtr C = Constraint::anyOf(F.Store, F.Branches);
  ParamValue V(F.Values.back());
  for (auto _ : State) {
    MatchContext MC;
    bool R = C->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Interpreted_DispatchShape_MatchLast);

void BM_Compiled_AnyOf_BacktrackingWithVars(benchmark::State &State) {
  Fixture F;
  Dialect *D = F.Ctx.getOrCreateDialect("bt");
  TypeDefinition *Pair = D->addType("pair");
  Pair->setParamNames({"a", "b"});
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(F.Store)};
  ConstraintPtr T = Constraint::var(F.Store, 0, "T");
  std::vector<ConstraintPtr> Branches;
  for (unsigned W = 1; W <= 8; ++W)
    Branches.push_back(Constraint::typeConstraint(
        F.Store, Pair,
        {T, Constraint::typeEq(F.Store, F.Ctx.getIntegerType(W))},
        /*BaseOnly=*/false));
  ConstraintProgramPtr P =
      ConstraintCompiler::compile(Constraint::anyOf(F.Store, Branches));
  std::vector<const ConstraintProgram *> VarProgs =
      ConstraintCompiler::compileVarPrograms(Vars);
  Type V = F.Ctx.getType(Pair, {ParamValue(F.Ctx.getFloatType(32)),
                                ParamValue(F.Ctx.getIntegerType(8))});
  ParamValue PV(V);
  for (auto _ : State) {
    MatchContext MC(VarProgs);
    bool R = P->run(PV, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_Compiled_AnyOf_BacktrackingWithVars);

//===----------------------------------------------------------------------===//
// Phase breakdown
//===----------------------------------------------------------------------===//

/// Phase breakdown (PerfHarness.h): each ablation scenario runs a fixed
/// number of evaluations under its own timing scope; under --metrics the
/// registry then shows the compiled engine's program-run and dispatch
/// counters for the whole run. The `*-interpreted` / `*-compiled` pairs
/// run the *same* workload through both engines
/// (tools/check_constraint_bench.py keys on these names).
void runPhaseBreakdown() {
  Fixture F;
  ConstraintPtr AnyOfC = Constraint::anyOf(F.Store, F.Branches);
  auto RunMatches = [](const char *Phase, const ConstraintPtr &C,
                       const ParamValue &V,
                       std::span<const Constraint *const> Vars) {
    IRDL_TIME_SCOPE(Phase);
    for (int I = 0; I != 1000; ++I) {
      MatchContext MC(Vars);
      bool R = C->matches(V, MC);
      benchmark::DoNotOptimize(R);
    }
  };
  RunMatches("anyof-match-first-x1000", AnyOfC,
             ParamValue(F.Ctx.getIntegerType(1)), {});
  RunMatches("anyof-match-last-x1000", AnyOfC,
             ParamValue(F.Ctx.getIntegerType(16)), {});
  RunMatches("anyof-no-match-x1000", AnyOfC,
             ParamValue(F.Ctx.getFloatType(32)), {});

  std::vector<ConstraintPtr> Vars = {Constraint::anyType(F.Store)};
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  RunMatches("var-bind-first-use-x1000", Constraint::var(F.Store, 0, "T"),
             ParamValue(F.Ctx.getIntegerType(32)), VarNodes);

  {
    // The backtracking scenario of BM_AnyOf_BacktrackingWithVars.
    Dialect *D = F.Ctx.getOrCreateDialect("bt");
    TypeDefinition *Pair = D->addType("pair");
    Pair->setParamNames({"a", "b"});
    ConstraintPtr T = Constraint::var(F.Store, 0, "T");
    std::vector<ConstraintPtr> Branches;
    for (unsigned W = 1; W <= 8; ++W)
      Branches.push_back(Constraint::typeConstraint(
          F.Store, Pair,
          {T, Constraint::typeEq(F.Store, F.Ctx.getIntegerType(W))},
          /*BaseOnly=*/false));
    ConstraintPtr C = Constraint::anyOf(F.Store, Branches);
    Type V = F.Ctx.getType(Pair, {ParamValue(F.Ctx.getFloatType(32)),
                                  ParamValue(F.Ctx.getIntegerType(8))});
    RunMatches("anyof-backtracking-vars-x1000", C, ParamValue(V), VarNodes);
  }

  // Compiled-vs-interpreted pairs. Each pair evaluates the same values
  // against the same constraint; only the engine differs.
  auto RunPair = [](const char *Workload, const ConstraintPtr &C,
                    std::span<const ConstraintProgram *const> VarProgs,
                    const std::vector<ParamValue> &Values,
                    std::span<const Constraint *const> Vars, int Iters) {
    ConstraintProgramPtr P = ConstraintCompiler::compile(C);
    std::string Interp = std::string(Workload) + "-interpreted";
    std::string Compiled = std::string(Workload) + "-compiled";
    // Per-iteration samples alongside the aggregate timing scopes, so
    // the --json summary carries p50/p90/p99 for each engine
    // (check_constraint_bench.py prefers the p50s when both are there).
    PhaseSampler InterpSampler(Interp);
    PhaseSampler CompiledSampler(Compiled);
    {
      IRDL_TIME_SCOPE(Interp.c_str());
      for (int I = 0; I != Iters; ++I)
        InterpSampler.sample([&] {
          for (const ParamValue &V : Values) {
            MatchContext MC(Vars);
            bool R = C->matches(V, MC);
            benchmark::DoNotOptimize(R);
          }
        });
    }
    {
      IRDL_TIME_SCOPE(Compiled.c_str());
      for (int I = 0; I != Iters; ++I)
        CompiledSampler.sample([&] {
          for (const ParamValue &V : Values) {
            MatchContext MC(VarProgs);
            bool R = P->run(V, MC);
            benchmark::DoNotOptimize(R);
          }
        });
    }
  };

  {
    // AnyOf-heavy: 16 parametric alternatives over distinct definitions;
    // the values rotate over every alternative plus a miss.
    DispatchFixture DF;
    std::vector<ParamValue> Values;
    for (Type T : DF.Values)
      Values.emplace_back(T);
    Values.emplace_back(DF.Ctx.getFloatType(32));
    RunPair("anyof-heavy", Constraint::anyOf(DF.Store, DF.Branches), {}, Values,
            {}, 1000);
  }

  {
    // Variable-heavy: every branch binds !T then mostly fails, with a
    // var-free inner AnyOf.
    Dialect *D = F.Ctx.getOrCreateDialect("vh");
    TypeDefinition *Pair = D->addType("pair");
    Pair->setParamNames({"a", "b"});
    ConstraintPtr T = Constraint::var(F.Store, 0, "T");
    // 16 int widths.
    ConstraintPtr Widths = Constraint::anyOf(F.Store, F.Branches);
    std::vector<ConstraintPtr> Branches;
    for (unsigned W = 1; W <= 8; ++W)
      Branches.push_back(Constraint::typeConstraint(
          F.Store, Pair,
          {T, Constraint::conjunction(
                  F.Store,
                  {Constraint::typeEq(F.Store, F.Ctx.getIntegerType(W)),
                   Widths})},
          /*BaseOnly=*/false));
    ConstraintPtr C = Constraint::anyOf(F.Store, Branches);
    std::vector<ParamValue> Values;
    for (unsigned W = 1; W <= 8; ++W)
      Values.emplace_back(
          F.Ctx.getType(Pair, {ParamValue(F.Ctx.getFloatType(32)),
                               ParamValue(F.Ctx.getIntegerType(W))}));
    std::vector<const ConstraintProgram *> VarProgs =
        ConstraintCompiler::compileVarPrograms(Vars);
    RunPair("variable-heavy", C, VarProgs, Values, VarNodes, 1000);
  }

  {
    // Large: a 64-way dispatchable AnyOf over parametric types, every
    // value hit repeatedly — the aggregate workload the CI regression
    // guard compares across engines.
    DispatchFixture DF(64);
    std::vector<ParamValue> Values;
    for (Type T : DF.Values)
      Values.emplace_back(T);
    RunPair("large", Constraint::anyOf(DF.Store, DF.Branches), {}, Values, {},
            500);
  }
}

} // namespace

int main(int argc, char **argv) {
  return runPerfMain(argc, argv, "perf_constraints", runPhaseBreakdown);
}
