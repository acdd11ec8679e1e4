//===- perf_rewrite.cpp - Greedy pattern rewriting ----------------------===//
///
/// Measures the pattern-based compilation flow of Section 3: the Listing 1
/// conorm peephole applied over chains of norm/mul operations defined by a
/// dynamically loaded dialect.

#include "PerfHarness.h"

#include "ir/Block.h"
#include "ir/ConormPattern.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "ir/Rewrite.h"
#include "irdl/IRDL.h"

#include <benchmark/benchmark.h>

#include <sstream>

using namespace irdl;

namespace {

std::string buildConormChain(unsigned N) {
  std::ostringstream OS;
  OS << "std.func @f(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>) "
        "-> f32 {\n";
  OS << "  %acc0 = std.constant 1.0 : f32\n";
  for (unsigned I = 0; I != N; ++I) {
    OS << "  %np" << I << " = cmath.norm %p : f32\n";
    OS << "  %nq" << I << " = cmath.norm %q : f32\n";
    OS << "  %m" << I << " = std.mulf %np" << I << ", %nq" << I
       << " : f32\n";
    OS << "  %acc" << I + 1 << " = std.addf %acc" << I << ", %m" << I
       << " : f32\n";
  }
  OS << "  std.return %acc" << N << " : f32\n}\n";
  return OS.str();
}

void BM_GreedyRewrite_Conorm(benchmark::State &State) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDLFile(
      Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr, Diags);
  std::string Text = buildConormChain(
      static_cast<unsigned>(State.range(0)));

  for (auto _ : State) {
    State.PauseTiming();
    SourceMgr SM;
    DiagnosticEngine D(&SM);
    OwningOpRef M = parseSourceString(Ctx, Text, SM, D);
    RewritePatternSet Patterns(&Ctx);
    Patterns.add<ConormPattern>();
    State.ResumeTiming();

    RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
    eraseDeadOps(M.get(), {"cmath.norm", "cmath.mul", "std.mulf"});
    benchmark::DoNotOptimize(Stats.NumRewrites);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_GreedyRewrite_Conorm)->Arg(4)->Arg(16)->Arg(64);

void BM_OpCreateErase(benchmark::State &State) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDLFile(
      Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr, Diags);
  TypeDefinition *Complex = Ctx.resolveTypeDef("cmath.complex");
  Type C32 = Ctx.getType(Complex, {ParamValue(Ctx.getFloatType(32))});
  const OpDefinition *CreateConst =
      Ctx.resolveOpDef("cmath.create_constant");
  Attribute Zero = Ctx.getFloatAttr(0.0, 32);

  for (auto _ : State) {
    OperationState S(Ctx, CreateConst);
    S.ResultTypes = {C32};
    S.addAttribute("re", Zero);
    S.addAttribute("im", Zero);
    Operation *Op = Operation::create(S);
    benchmark::DoNotOptimize(Op);
    Op->destroy();
  }
}
BENCHMARK(BM_OpCreateErase);

/// Phase breakdown (PerfHarness.h): dialect load, parse, and the greedy
/// rewrite driver over a 64-element conorm chain.
void runPhaseBreakdown() {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  {
    IRDL_TIME_SCOPE("load-dialect");
    auto Module = loadIRDLFile(
        Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr,
        Diags);
    benchmark::DoNotOptimize(Module);
  }
  std::string Text = buildConormChain(64);
  for (int I = 0; I != 20; ++I) {
    OwningOpRef M;
    {
      IRDL_TIME_SCOPE("parse-chain-64");
      SourceMgr SM;
      DiagnosticEngine D(&SM);
      M = parseSourceString(Ctx, Text, SM, D);
    }
    {
      IRDL_TIME_SCOPE("greedy-rewrite-64");
      RewritePatternSet Patterns(&Ctx);
      Patterns.add<ConormPattern>();
      RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
      eraseDeadOps(M.get(), {"cmath.norm", "cmath.mul", "std.mulf"});
      benchmark::DoNotOptimize(Stats.NumRewrites);
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  return runPerfMain(argc, argv, "perf_rewrite", runPhaseBreakdown);
}
