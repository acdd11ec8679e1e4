//===- PassInstrumentationTest.cpp - Instrumentation hooks ------------===//
///
/// Locks in the hook-order contract documented in PassInstrumentation.h
/// and the per-run behavior of the pass statistics.

#include "common/ScopedMetrics.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "support/Metrics.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class PassInstrumentationTest : public ::testing::Test {
protected:
  PassInstrumentationTest() : Diags(&SrcMgr) {}

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

/// Appends every hook invocation to a shared event log.
struct RecordingInstrumentation : PassInstrumentation {
  RecordingInstrumentation(std::vector<std::string> *Log,
                           std::string Tag = "")
      : Log(Log), Tag(std::move(Tag)) {}

  void record(std::string Event) { Log->push_back(Tag + Event); }

  void runBeforePipeline(Operation *) override {
    record("before-pipeline");
  }
  void runAfterPipeline(Operation *) override { record("after-pipeline"); }
  void runBeforePass(const Pass *P, Operation *) override {
    record("before-pass:" + std::string(P->getName()));
  }
  void runAfterPass(const Pass *P, Operation *) override {
    record("after-pass:" + std::string(P->getName()));
  }
  void runAfterPassFailed(const Pass *P, Operation *) override {
    record("after-pass-failed:" + std::string(P->getName()));
  }
  void runBeforeVerifier(Operation *) override {
    record("before-verifier");
  }
  void runAfterVerifier(Operation *, bool Succeeded) override {
    record(Succeeded ? "after-verifier:ok" : "after-verifier:fail");
  }

  std::vector<std::string> *Log;
  std::string Tag;
};

struct NoopPass : Pass {
  explicit NoopPass(std::string Name = "noop") : Name(std::move(Name)) {}
  std::string_view getName() const override { return Name; }
  LogicalResult run(Operation *, DiagnosticEngine &) override {
    return success();
  }
  std::string Name;
};

struct FailingPass : Pass {
  std::string_view getName() const override { return "failing"; }
  LogicalResult run(Operation *Op, DiagnosticEngine &Diags) override {
    Diags.emitError(Op->getLoc(), "this pass always fails");
    return failure();
  }
};

TEST_F(PassInstrumentationTest, SuccessPathHookOrder) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::vector<std::string> Log;
  PassManager PM(&Ctx);
  PM.addInstrumentation<RecordingInstrumentation>(&Log);
  PM.addPass<NoopPass>("first");
  PM.addPass<NoopPass>("second");
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));

  std::vector<std::string> Expected = {
      "before-pipeline",
      "before-verifier", "after-verifier:ok", // initial verify
      "before-pass:first", "after-pass:first",
      "before-verifier", "after-verifier:ok",
      "before-pass:second", "after-pass:second",
      "before-verifier", "after-verifier:ok",
      "after-pipeline",
  };
  EXPECT_EQ(Log, Expected);
}

TEST_F(PassInstrumentationTest, VerifierHooksSkippedWhenDisabled) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::vector<std::string> Log;
  PassManager PM(&Ctx);
  PM.enableVerifier(false);
  PM.addInstrumentation<RecordingInstrumentation>(&Log);
  PM.addPass<NoopPass>();
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));

  std::vector<std::string> Expected = {
      "before-pipeline",
      "before-pass:noop", "after-pass:noop",
      "after-pipeline",
  };
  EXPECT_EQ(Log, Expected);
}

TEST_F(PassInstrumentationTest, FailurePathFiresFailedHookAndPipelineEnd) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::vector<std::string> Log;
  PassManager PM(&Ctx);
  PM.addInstrumentation<RecordingInstrumentation>(&Log);
  PM.addPass<FailingPass>();
  PM.addPass<NoopPass>("never-run");
  DiagnosticEngine PDiags;
  ASSERT_TRUE(failed(PM.run(M.get(), PDiags)));

  std::vector<std::string> Expected = {
      "before-pipeline",
      "before-verifier", "after-verifier:ok",
      "before-pass:failing", "after-pass-failed:failing",
      "after-pipeline", // fires on failure exits too
  };
  EXPECT_EQ(Log, Expected);
}

TEST_F(PassInstrumentationTest, InstrumentationsNestLikeScopes) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::vector<std::string> Log;
  PassManager PM(&Ctx);
  PM.enableVerifier(false);
  PM.addInstrumentation<RecordingInstrumentation>(&Log, "A:");
  PM.addInstrumentation<RecordingInstrumentation>(&Log, "B:");
  PM.addPass<NoopPass>();
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));

  // Before-hooks in registration order, after-hooks reversed.
  std::vector<std::string> Expected = {
      "A:before-pipeline", "B:before-pipeline",
      "A:before-pass:noop", "B:before-pass:noop",
      "B:after-pass:noop", "A:after-pass:noop",
      "B:after-pipeline", "A:after-pipeline",
  };
  EXPECT_EQ(Log, Expected);
}

TEST_F(PassInstrumentationTest, PassTimingBuildsPipelineTree) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  TimerGroup Timers("test");
  PassManager PM(&Ctx);
  PM.addInstrumentation<PassTimingInstrumentation>(&Timers);
  PM.addPass<NoopPass>("alpha");
  PM.addPass<NoopPass>("beta");
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));

  const TimerGroup::Node *Pipeline =
      Timers.getRoot().findChild("pass-pipeline");
  ASSERT_NE(Pipeline, nullptr);
  EXPECT_EQ(Pipeline->getCount(), 1u);
  EXPECT_NE(Pipeline->findChild("alpha"), nullptr);
  EXPECT_NE(Pipeline->findChild("beta"), nullptr);
  // Verifier runs (initial + after each pass) aggregate into one node.
  const TimerGroup::Node *Verify = Pipeline->findChild("verify-each");
  ASSERT_NE(Verify, nullptr);
  EXPECT_EQ(Verify->getCount(), 3u);
}

TEST_F(PassInstrumentationTest, PassTimingClosesScopesOnFailure) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  TimerGroup Timers("test");
  PassManager PM(&Ctx);
  PM.addInstrumentation<PassTimingInstrumentation>(&Timers);
  PM.addPass<FailingPass>();
  DiagnosticEngine PDiags;
  ASSERT_TRUE(failed(PM.run(M.get(), PDiags)));

  // The failed pass's scope and the pipeline scope are both closed, so
  // a subsequent run on the same group starts at the root again.
  const TimerGroup::Node *Pipeline =
      Timers.getRoot().findChild("pass-pipeline");
  ASSERT_NE(Pipeline, nullptr);
  EXPECT_EQ(Pipeline->getCount(), 1u);
  EXPECT_NE(Pipeline->findChild("failing"), nullptr);

  OwningOpRef M2 = parse("%c = std.constant 2.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M2)) << Diags.renderAll();
  PassManager PM2(&Ctx);
  PM2.addInstrumentation<PassTimingInstrumentation>(&Timers);
  PM2.addPass<NoopPass>();
  ASSERT_TRUE(succeeded(PM2.run(M2.get(), PDiags)));
  EXPECT_EQ(Pipeline->getCount(), 2u);
  EXPECT_NE(Pipeline->findChild("noop"), nullptr);
}

TEST_F(PassInstrumentationTest, DceCountsAreResetPerRun) {
  // Regression: a reused DCE pass instance must report per-run counts,
  // not a running total across pipelines.
  auto DCE = std::make_unique<DeadCodeEliminationPass>(
      std::vector<std::string>{}, /*AssumeRegisteredOpsPure=*/true);
  DeadCodeEliminationPass *DCEPtr = DCE.get();
  PassManager PM(&Ctx);
  PM.addPass(std::move(DCE));
  DiagnosticEngine PDiags;

  OwningOpRef M1 = parse(R"(
    std.func @f() {
      %dead1 = std.constant 1.0 : f32
      %dead2 = std.constant 2.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M1)) << Diags.renderAll();
  ASSERT_TRUE(succeeded(PM.run(M1.get(), PDiags)));
  EXPECT_EQ(DCEPtr->getNumErased(), 2u);

  OwningOpRef M2 = parse(R"(
    std.func @g() {
      %dead = std.constant 3.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M2)) << Diags.renderAll();
  ASSERT_TRUE(succeeded(PM.run(M2.get(), PDiags)));
  EXPECT_EQ(DCEPtr->getNumErased(), 1u) << "stale count from first run";
}

TEST_F(PassInstrumentationTest, DceExposesRegistryStatistic) {
  Statistic *NumOpsErased =
      StatisticRegistry::instance().lookup("DCE", "NumOpsErased");
  ASSERT_NE(NumOpsErased, nullptr)
      << "DCE.NumOpsErased not registered with the statistics registry";
  ScopedMetricsEnabled Metrics;
  uint64_t Before = NumOpsErased->get();

  OwningOpRef M = parse(R"(
    std.func @f() {
      %dead1 = std.constant 1.0 : f32
      %dead2 = std.constant 2.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  PassManager PM(&Ctx);
  PM.addPass<DeadCodeEliminationPass>(std::vector<std::string>{},
                                      /*AssumeRegisteredOpsPure=*/true);
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));
  // The registry counter accumulates across runs (two ops erased here).
  EXPECT_EQ(NumOpsErased->get(), Before + 2);

  // The pipeline counters are registered too.
  EXPECT_NE(StatisticRegistry::instance().lookup("Pass", "NumPassesRun"),
            nullptr);
}

TEST_F(PassInstrumentationTest, MetricsInstrumentationRecordsPassHistograms) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  setMetricsEnabled(true);
  MetricsRegistry::instance().resetAll();
  PassManager PM(&Ctx);
  PM.addInstrumentation<MetricsInstrumentation>();
  PM.addPass<NoopPass>("alpha");
  PM.addPass<NoopPass>("beta");
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));
  setMetricsEnabled(false);

  MetricsRegistry &R = MetricsRegistry::instance();
  EXPECT_EQ(R.getHistogram("irdl_pass_duration_ns", "", {{"pass", "alpha"}})
                .snapshot()
                .Count,
            1u);
  EXPECT_EQ(R.getHistogram("irdl_pass_duration_ns", "", {{"pass", "beta"}})
                .snapshot()
                .Count,
            1u);
  // Initial verify + one per pass.
  EXPECT_EQ(
      R.getHistogram("irdl_pass_duration_ns", "", {{"pass", "verify-each"}})
          .snapshot()
          .Count,
      3u);
}

TEST_F(PassInstrumentationTest, MetricsInstrumentationIsInertWhenDisabled) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  ASSERT_FALSE(metricsEnabled());
  MetricsRegistry::instance().resetAll();
  PassManager PM(&Ctx);
  PM.addInstrumentation<MetricsInstrumentation>();
  PM.addPass<NoopPass>("gamma");
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));

  EXPECT_EQ(MetricsRegistry::instance()
                .getHistogram("irdl_pass_duration_ns", "", {{"pass", "gamma"}})
                .snapshot()
                .Count,
            0u);
}

} // namespace
