//===- Pass.cpp -----------------------------------------------------===//

#include "ir/Pass.h"

#include "ir/Block.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/Metrics.h"
#include "support/Statistic.h"

#include <algorithm>

using namespace irdl;

IRDL_STATISTIC(Pass, NumPassesRun, "irdl_pass_runs_total",
               "passes run to completion");
IRDL_STATISTIC(Pass, NumPassFailures, "irdl_pass_failures_total",
               "passes that returned failure");
IRDL_STATISTIC(Pass, NumInterPassVerifications,
               "irdl_pass_verifications_total",
               "inter-pass verifier runs by the pass manager");
IRDL_STATISTIC(Pass, NumFunctionsProcessed,
               "irdl_pass_functions_processed_total",
               "function roots processed by function passes");
IRDL_STATISTIC(DCE, NumOpsErased, "irdl_dce_ops_erased_total",
               "operations erased by dce");

Pass::~Pass() = default;

LogicalResult Pass::runAndRecord(Operation *Root, DiagnosticEngine &Diags,
                                 ChangeSet &Changes) {
  Changes.markUnlocalized();
  return run(Root, Diags);
}

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
  if (!Group)
    return;
  OpenScope S;
  S.Node = Group->startScope(Name, S.StartNs);
  Open.push_back(S);
}

void PassTimingInstrumentation::close() {
  if (!Group || Open.empty())
    return;
  OpenScope S = Open.back();
  Open.pop_back();
  Group->endScope(S.Node, S.StartNs);
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

  // Verifies \p Changes when given, else the whole root.
  auto Verify = [&](const std::string &After,
                    ChangeSet *Changes) -> LogicalResult {
    if (!VerifyEach)
      return success();
    ++NumInterPassVerifications;
    Forward([&](PassInstrumentation *PI) { PI->runBeforeVerifier(Root); });
    bool Ok = succeeded(Changes ? verifyChanges(Root, *Changes, Diags)
                                : verifyOp(Root, Diags));
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

  if (failed(Verify("", nullptr)))
    return Finish(failure());

  for (const auto &P : Passes) {
    Forward(
        [&](PassInstrumentation *PI) { PI->runBeforePass(P.get(), Root); });
    ChangeSet Changes;
    if (failed(VerifyEach ? P->runAndRecord(Root, Diags, Changes)
                          : P->run(Root, Diags))) {
      ++NumPassFailures;
      Reverse([&](PassInstrumentation *PI) {
        PI->runAfterPassFailed(P.get(), Root);
      });
      return Finish(failure());
    }
    ++NumPassesRun;
    Reverse(
        [&](PassInstrumentation *PI) { PI->runAfterPass(P.get(), Root); });
    if (failed(Verify(std::string(P->getName()), &Changes)))
      return Finish(failure());
  }
  return Finish(success());
}

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

LogicalResult DeadCodeEliminationPass::run(Operation *Root,
                                           DiagnosticEngine &) {
  eliminate(Root, nullptr);
  return success();
}

LogicalResult DeadCodeEliminationPass::runAndRecord(Operation *Root,
                                                    DiagnosticEngine &,
                                                    ChangeSet &Changes) {
  eliminate(Root, &Changes);
  return success();
}

void DeadCodeEliminationPass::eliminate(Operation *Root,
                                        ChangeSet *Changes) {
  // Per-run count: a reused pass instance must not accumulate across
  // run() invocations.
  NumErased = eraseDeadOps(
      Root,
      [&](Operation *Op) {
        if (Op->getNumSuccessors() != 0 || Op->isTerminator())
          return false;
        return (AssumeRegisteredOpsPure && Op->isRegistered()) ||
               std::find(PureOps.begin(), PureOps.end(),
                         Op->getName().str()) != PureOps.end();
      },
      Changes);
  NumOpsErased += NumErased;
}

LogicalResult GreedyRewritePass::run(Operation *Root,
                                     DiagnosticEngine &Diags) {
  return rewrite(Root, Diags, nullptr);
}

LogicalResult GreedyRewritePass::runAndRecord(Operation *Root,
                                              DiagnosticEngine &Diags,
                                              ChangeSet &Changes) {
  return rewrite(Root, Diags, &Changes);
}

LogicalResult GreedyRewritePass::rewrite(Operation *Root,
                                         DiagnosticEngine &Diags,
                                         ChangeSet *Changes) {
  LastStats = applyPatternsGreedily(Root, *Patterns, /*MaxIterations=*/10,
                                    Changes);
  if (!LastStats.Converged) {
    Diags.emitError(Root->getLoc(),
                    "pattern application did not converge in pass '" +
                        PassName + "'");
    return failure();
  }
  return success();
}
