//===- Pass.cpp -----------------------------------------------------===//

#include "ir/Pass.h"

#include "ir/Block.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"
#include "support/Statistic.h"

#include <algorithm>

using namespace irdl;

IRDL_STATISTIC(Pass, NumPassesRun, "passes run to completion");
IRDL_STATISTIC(Pass, NumPassFailures, "passes that returned failure");
IRDL_STATISTIC(Pass, NumInterPassVerifications,
               "inter-pass verifier runs by the pass manager");
IRDL_STATISTIC(Pass, NumFunctionsProcessed,
               "function roots processed by function passes");
IRDL_STATISTIC(DCE, NumOpsErased, "operations erased by dce");

Pass::~Pass() = default;

//===----------------------------------------------------------------------===//
// FunctionPass
//===----------------------------------------------------------------------===//

LogicalResult FunctionPass::run(Operation *Root, DiagnosticEngine &Diags) {
  std::vector<Operation *> Funcs;
  for (Region &R : Root->getRegions())
    for (Block &B : R)
      for (Operation &Op : B)
        if (isFunctionLike(&Op))
          Funcs.push_back(&Op);

  NumFunctionsProcessed += Funcs.size();
  for (Operation *F : Funcs)
    if (failed(runOnFunction(F, Diags)))
      return failure();
  return success();
}

//===----------------------------------------------------------------------===//
// PassInstrumentation
//===----------------------------------------------------------------------===//

PassInstrumentation::~PassInstrumentation() = default;

void PassInstrumentation::runBeforePipeline(Operation *) {}
void PassInstrumentation::runAfterPipeline(Operation *) {}
void PassInstrumentation::runBeforePass(const Pass *, Operation *) {}
void PassInstrumentation::runAfterPass(const Pass *, Operation *) {}
void PassInstrumentation::runAfterPassFailed(const Pass *, Operation *) {}
void PassInstrumentation::runBeforeVerifier(Operation *) {}
void PassInstrumentation::runAfterVerifier(Operation *, bool) {}

void PassTimingInstrumentation::open(std::string_view Name) {
#if IRDL_ENABLE_TIMING
  if (!Group)
    return;
  OpenScope S;
  S.Node = Group->startScope(Name, S.StartNs);
  Open.push_back(S);
#else
  (void)Name;
#endif
}

void PassTimingInstrumentation::close() {
#if IRDL_ENABLE_TIMING
  if (!Group || Open.empty())
    return;
  OpenScope S = Open.back();
  Open.pop_back();
  Group->endScope(S.Node, S.StartNs);
#endif
}

void PassTimingInstrumentation::runBeforePipeline(Operation *) {
  Group = FixedGroup ? FixedGroup : getActiveTimerGroup();
  open("pass-pipeline");
}

void PassTimingInstrumentation::runAfterPipeline(Operation *) {
  // Close the pipeline scope plus anything left open by a failure path.
  while (!Open.empty())
    close();
  Group = nullptr;
}

void PassTimingInstrumentation::runBeforePass(const Pass *P, Operation *) {
  open(P->getName());
}

void PassTimingInstrumentation::runAfterPass(const Pass *, Operation *) {
  close();
}

void PassTimingInstrumentation::runAfterPassFailed(const Pass *,
                                                   Operation *) {
  close();
}

void PassTimingInstrumentation::runBeforeVerifier(Operation *) {
  open("verify-each");
}

void PassTimingInstrumentation::runAfterVerifier(Operation *, bool) {
  close();
}

//===----------------------------------------------------------------------===//
// MetricsInstrumentation
//===----------------------------------------------------------------------===//

void MetricsInstrumentation::runBeforePass(const Pass *, Operation *) {
  StartNs.push_back(metricsEnabled() ? steadyNowNs() : 0);
}

void MetricsInstrumentation::finish(std::string_view PassName) {
  if (StartNs.empty())
    return;
  uint64_t Begin = StartNs.back();
  StartNs.pop_back();
  if (!Begin || !metricsEnabled())
    return;
  Histogram &H = MetricsRegistry::instance().getHistogram(
      "irdl_pass_duration_ns", "wall time of one pass (or verify-each) run",
      {{"pass", std::string(PassName)}});
  H.record(steadyNowNs() - Begin);
}

void MetricsInstrumentation::runAfterPass(const Pass *P, Operation *) {
  finish(P->getName());
}

void MetricsInstrumentation::runAfterPassFailed(const Pass *P, Operation *) {
  finish(P->getName());
}

void MetricsInstrumentation::runBeforeVerifier(Operation *) {
  StartNs.push_back(metricsEnabled() ? steadyNowNs() : 0);
}

void MetricsInstrumentation::runAfterVerifier(Operation *, bool) {
  finish("verify-each");
}

//===----------------------------------------------------------------------===//
// PassManager
//===----------------------------------------------------------------------===//

namespace {
/// Fills the legacy PassPipelineStatistics struct from the hooks, so the
/// pre-instrumentation consumers keep their exact behavior.
class PipelineStatsCollector : public PassInstrumentation {
public:
  explicit PipelineStatsCollector(PassPipelineStatistics *Stats)
      : Stats(Stats) {}

  void runAfterPass(const Pass *P, Operation *) override {
    ++Stats->PassesRun;
    LastFinishedPass = std::string(P->getName());
  }
  void runAfterPassFailed(const Pass *P, Operation *) override {
    Stats->FailedPass = std::string(P->getName());
  }
  void runAfterVerifier(Operation *, bool Succeeded) override {
    if (Succeeded)
      return;
    Stats->VerificationFailed = true;
    Stats->FailedPass = LastFinishedPass;
  }

private:
  PassPipelineStatistics *Stats;
  std::string LastFinishedPass; // empty during the initial verify
};
} // namespace

LogicalResult PassManager::run(Operation *Root, DiagnosticEngine &Diags,
                               PassPipelineStatistics *Stats) {
  // The legacy statistics struct rides along as one more (run-local)
  // instrumentation.
  PipelineStatsCollector StatsCollector(Stats);
  std::vector<PassInstrumentation *> Insts;
  Insts.reserve(Instrumentations.size() + 1);
  for (const auto &PI : Instrumentations)
    Insts.push_back(PI.get());
  if (Stats)
    Insts.push_back(&StatsCollector);

  auto Forward = [&](auto Hook) {
    for (PassInstrumentation *PI : Insts)
      Hook(PI);
  };
  auto Reverse = [&](auto Hook) {
    for (auto It = Insts.rbegin(), E = Insts.rend(); It != E; ++It)
      Hook(*It);
  };

  auto Verify = [&](const std::string &After) -> LogicalResult {
    if (!VerifyEach)
      return success();
    ++NumInterPassVerifications;
    Forward([&](PassInstrumentation *PI) { PI->runBeforeVerifier(Root); });
    bool Ok = succeeded(verifyOp(Root, Diags));
    Reverse(
        [&](PassInstrumentation *PI) { PI->runAfterVerifier(Root, Ok); });
    if (Ok)
      return success();
    Diags.emitError(Root->getLoc(),
                    After.empty()
                        ? "IR failed to verify before the pipeline"
                        : "IR failed to verify after pass '" + After +
                              "'");
    return failure();
  };

  Forward([&](PassInstrumentation *PI) { PI->runBeforePipeline(Root); });
  auto Finish = [&](LogicalResult Result) {
    Reverse([&](PassInstrumentation *PI) { PI->runAfterPipeline(Root); });
    return Result;
  };

  if (failed(Verify("")))
    return Finish(failure());

  for (const auto &P : Passes) {
    Forward(
        [&](PassInstrumentation *PI) { PI->runBeforePass(P.get(), Root); });
    if (failed(P->run(Root, Diags))) {
      ++NumPassFailures;
      Reverse([&](PassInstrumentation *PI) {
        PI->runAfterPassFailed(P.get(), Root);
      });
      return Finish(failure());
    }
    ++NumPassesRun;
    Reverse(
        [&](PassInstrumentation *PI) { PI->runAfterPass(P.get(), Root); });
    if (failed(Verify(std::string(P->getName()))))
      return Finish(failure());
  }
  return Finish(success());
}

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

LogicalResult DeadCodeEliminationPass::run(Operation *Root,
                                           DiagnosticEngine &Diags) {
  (void)Diags;
  // Per-run count: a reused pass instance must not accumulate across
  // run() invocations.
  NumErased = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Operation *> Dead;
    Root->walk([&](Operation *Op) {
      if (Op == Root || !Op->use_empty() || Op->getNumResults() == 0)
        return;
      if (Op->getNumRegions() != 0 || Op->getNumSuccessors() != 0 ||
          Op->isTerminator())
        return;
      bool Pure =
          std::find(PureOps.begin(), PureOps.end(),
                    Op->getName().str()) != PureOps.end() ||
          (AssumeRegisteredOpsPure && Op->isRegistered());
      if (!Pure)
        return;
      Dead.push_back(Op);
    });
    for (Operation *Op : Dead) {
      if (!Op->use_empty())
        continue;
      Op->erase();
      ++NumErased;
      ++NumOpsErased;
      Changed = true;
    }
  }
  return success();
}

LogicalResult GreedyRewritePass::run(Operation *Root,
                                     DiagnosticEngine &Diags) {
  LastStats = applyPatternsGreedily(Root, *Patterns);
  if (!LastStats.Converged) {
    Diags.emitError(Root->getLoc(),
                    "pattern application did not converge in pass '" +
                        PassName + "'");
    return failure();
  }
  return success();
}
