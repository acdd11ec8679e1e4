//===- perf_verifier.cpp - Generated-verifier microbenchmarks -----------===//
///
/// Measures the IRDL-generated verifiers: per-op verification (constraint
/// variable unification included), constraint matching, and the IRDL-C++
/// expression interpreter.

#include "PerfHarness.h"

#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "irdl/ConstraintCompiler.h"
#include "irdl/IRDL.h"

#include <benchmark/benchmark.h>

using namespace irdl;

namespace {

struct Fixture {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags{&SrcMgr};
  std::unique_ptr<IRDLModule> Module;
  OwningOpRef IR;
  Operation *Mul = nullptr;

  Fixture() {
    Module = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                   "/cmath.irdl",
                          SrcMgr, Diags);
    IR = parseSourceString(Ctx, R"(
      std.func @f(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
          -> !cmath.complex<f32> {
        %r = cmath.mul %p, %q : f32
        std.return %r : !cmath.complex<f32>
      }
    )",
                           SrcMgr, Diags);
    IR->walk([&](Operation *Op) {
      if (Op->getName().str() == "cmath.mul")
        Mul = Op;
    });
  }
};

/// Builds the textual form of a module with \p NumFuncs functions, each a
/// chain of \p ChainLen cmath.mul ops: many isolated single-block
/// functions of equal weight.
std::string makeLargeModuleText(unsigned NumFuncs, unsigned ChainLen) {
  std::string Text;
  Text.reserve(NumFuncs * (ChainLen + 3) * 48);
  for (unsigned F = 0; F != NumFuncs; ++F) {
    Text += "std.func @f" + std::to_string(F) +
            "(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)"
            " -> !cmath.complex<f32> {\n";
    std::string Prev = "%p";
    for (unsigned I = 0; I != ChainLen; ++I) {
      std::string Cur = "%v" + std::to_string(I);
      Text += "  " + Cur + " = cmath.mul " + Prev + ", %q : f32\n";
      Prev = Cur;
    }
    Text += "  std.return " + Prev + " : !cmath.complex<f32>\n}\n";
  }
  return Text;
}

/// A module large enough that verification dominates fixed per-call
/// costs: 64 functions x 64 ops.
struct LargeModuleFixture {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags{&SrcMgr};
  std::unique_ptr<IRDLModule> Module;
  OwningOpRef IR;

  LargeModuleFixture(unsigned NumFuncs = 64, unsigned ChainLen = 64) {
    Module = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                   "/cmath.irdl",
                          SrcMgr, Diags);
    IR = parseSourceString(Ctx, makeLargeModuleText(NumFuncs, ChainLen),
                           SrcMgr, Diags);
  }
};

void BM_VerifyOp_CmathMul(benchmark::State &State) {
  Fixture F;
  const auto &Verifier = F.Mul->getDef()->getVerifier();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    LogicalResult R = Verifier(F.Mul, Diags);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_VerifyOp_CmathMul);

void BM_VerifyModule_Recursive(benchmark::State &State) {
  Fixture F;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    LogicalResult R = F.IR->verify(Diags);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_VerifyModule_Recursive);

/// The headline large-module verify.
void BM_VerifyLargeModule(benchmark::State &State) {
  LargeModuleFixture F;
  for (auto _ : State) {
    DiagnosticEngine Diags;
    LogicalResult R = F.IR->verify(Diags);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_VerifyLargeModule)->Unit(benchmark::kMillisecond);

/// The same large-module workload through the tree interpreter (the
/// compiled engine is the default; this is the ablation baseline).
void BM_VerifyLargeModule_Interpreted(benchmark::State &State) {
  LargeModuleFixture F;
  bool Prev = compiledConstraintsEnabled();
  setCompiledConstraintsEnabled(false);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    LogicalResult R = F.IR->verify(Diags);
    benchmark::DoNotOptimize(R);
  }
  setCompiledConstraintsEnabled(Prev);
}
BENCHMARK(BM_VerifyLargeModule_Interpreted)->Unit(benchmark::kMillisecond);

void BM_ConstraintMatch_Parametric(benchmark::State &State) {
  Fixture F;
  const DialectSpec *Cmath = F.Module->lookupDialect("cmath");
  const OpSpec *Norm = Cmath->lookupOp("norm");
  ParamValue V(F.Mul->getOperand(0).getType());
  for (auto _ : State) {
    MatchContext MC(&Norm->VarConstraints);
    bool R = Norm->Operands[0].Constr->matches(V, MC);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_ConstraintMatch_Parametric);

void BM_CppExprEval(benchmark::State &State) {
  DiagnosticEngine Diags;
  auto Expr = CppExpr::parse(
      "$_self * 2 + 1 <= 65 && $_self % 2 == 0", Diags);
  CppExpr::EvalContext Ctx;
  Ctx.Self = cppEvalFromParam(ParamValue(IntVal{32, {}, 16}));
  for (auto _ : State) {
    auto R = Expr->evaluateBool(Ctx);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_CppExprEval);

void BM_TypeVerifier_Checked(benchmark::State &State) {
  Fixture F;
  TypeDefinition *Complex = F.Ctx.resolveTypeDef("cmath.complex");
  // Alternate between two element types so the uniquer cache does not
  // absorb the verifier cost entirely... it does for repeats; measure the
  // cached path explicitly (first-creation cost shows in frontend bench).
  Type F32 = F.Ctx.getFloatType(32);
  for (auto _ : State) {
    DiagnosticEngine Diags;
    Type T = F.Ctx.getTypeChecked(Complex, {ParamValue(F32)}, Diags);
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TypeVerifier_Checked);

/// Phase breakdown (PerfHarness.h): runs each measured path a fixed
/// number of times under named timing scopes. The library's own scopes
/// (irdl-frontend, ir-parse, verify) nest inside.
void runPhaseBreakdown() {
  std::unique_ptr<Fixture> F;
  {
    IRDL_TIME_SCOPE("fixture-setup");
    F = std::make_unique<Fixture>();
  }
  {
    IRDL_TIME_SCOPE("op-verifier-x1000");
    const auto &Verifier = F->Mul->getDef()->getVerifier();
    for (int I = 0; I != 1000; ++I) {
      DiagnosticEngine Diags;
      LogicalResult R = Verifier(F->Mul, Diags);
      benchmark::DoNotOptimize(R);
    }
  }
  {
    IRDL_TIME_SCOPE("module-verify-x1000");
    for (int I = 0; I != 1000; ++I) {
      DiagnosticEngine Diags;
      LogicalResult R = F->IR->verify(Diags);
      benchmark::DoNotOptimize(R);
    }
  }
  {
    std::unique_ptr<LargeModuleFixture> LF;
    {
      IRDL_TIME_SCOPE("large-module-setup");
      LF = std::make_unique<LargeModuleFixture>();
    }
    {
      IRDL_TIME_SCOPE("large-module-verify-x10");
      for (int I = 0; I != 10; ++I) {
        DiagnosticEngine Diags;
        LogicalResult R = LF->IR->verify(Diags);
        benchmark::DoNotOptimize(R);
      }
    }
    // The same module through both constraint engines, for the
    // compiled-vs-interpreted JSON fields (the default engine above is
    // whatever --compiled-constraints selected).
    bool Prev = compiledConstraintsEnabled();
    {
      setCompiledConstraintsEnabled(false);
      IRDL_TIME_SCOPE("large-module-verify-interpreted-x30");
      PhaseSampler Sampler("large-module-verify-interpreted-x30");
      for (int I = 0; I != 30; ++I)
        Sampler.sample([&] {
          DiagnosticEngine Diags;
          LogicalResult R = LF->IR->verify(Diags);
          benchmark::DoNotOptimize(R);
        });
    }
    {
      setCompiledConstraintsEnabled(true);
      IRDL_TIME_SCOPE("large-module-verify-compiled-x30");
      PhaseSampler Sampler("large-module-verify-compiled-x30");
      for (int I = 0; I != 30; ++I)
        Sampler.sample([&] {
          DiagnosticEngine Diags;
          LogicalResult R = LF->IR->verify(Diags);
          benchmark::DoNotOptimize(R);
        });
    }
    setCompiledConstraintsEnabled(Prev);
  }
  {
    IRDL_TIME_SCOPE("constraint-match-x1000");
    const DialectSpec *Cmath = F->Module->lookupDialect("cmath");
    const OpSpec *Norm = Cmath->lookupOp("norm");
    ParamValue V(F->Mul->getOperand(0).getType());
    for (int I = 0; I != 1000; ++I) {
      MatchContext MC(&Norm->VarConstraints);
      bool R = Norm->Operands[0].Constr->matches(V, MC);
      benchmark::DoNotOptimize(R);
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  return runPerfMain(argc, argv, "perf_verifier", runPhaseBreakdown);
}
