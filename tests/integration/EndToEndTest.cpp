//===- EndToEndTest.cpp - Cross-module integration -----------------------===//
///
/// The complete paper story as one test suite: load a dialect from IRDL
/// text, parse IR that uses it (custom formats included), verify it with
/// the generated verifiers, transform it with a pass pipeline, clone it,
/// analyze it, and round-trip everything through text.

#include "analysis/DialectStatistics.h"
#include "ir/Block.h"
#include "ir/Cloning.h"
#include "ir/ConormPattern.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class EndToEndTest : public ::testing::Test {
protected:
  EndToEndTest() : Diags(&SrcMgr) {
    Module = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                   "/cmath.irdl",
                          SrcMgr, Diags);
  }

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  std::unique_ptr<IRDLModule> Module;
};

TEST_F(EndToEndTest, Listing1OptimizationPipeline) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  // Listing 1a.
  OwningOpRef M = parse(R"(
    std.func @conorm(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
        -> f32 {
      %norm_p = cmath.norm %p : f32
      %norm_q = cmath.norm %q : f32
      %pq = std.mulf %norm_p, %norm_q : f32
      std.return %pq : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  // A pipeline with the peephole followed by DCE, verified between
  // passes.
  PassManager PM(&Ctx);
  auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
  Patterns->add<ConormPattern>();
  PM.addPass<GreedyRewritePass>("conorm", Patterns);
  PM.addPass<DeadCodeEliminationPass>(std::vector<std::string>{},
                                      /*AssumeRegisteredOpsPure=*/true);
  DiagnosticEngine PDiags;
  PassPipelineStatistics Stats;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags, &Stats)))
      << PDiags.renderAll();
  EXPECT_EQ(Stats.PassesRun, 2u);

  // Listing 1b: exactly one mul and one norm remain, in that order.
  std::string Text = printOpToString(M.get());
  EXPECT_NE(Text.find("cmath.mul %0, %1 : f32"), std::string::npos)
      << Text;
  size_t MulPos = Text.find("cmath.mul");
  size_t NormPos = Text.find("cmath.norm");
  EXPECT_NE(MulPos, std::string::npos);
  EXPECT_NE(NormPos, std::string::npos);
  EXPECT_LT(MulPos, NormPos);
  EXPECT_EQ(Text.find("cmath.norm", NormPos + 1), std::string::npos);
  EXPECT_EQ(Text.find("std.mulf"), std::string::npos);
}

TEST_F(EndToEndTest, CloneThenTransformLeavesOriginalIntact) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  OwningOpRef M = parse(R"(
    std.func @conorm(%p: !cmath.complex<f64>, %q: !cmath.complex<f64>)
        -> f64 {
      %np = cmath.norm %p : f64
      %nq = cmath.norm %q : f64
      %r = std.mulf %np, %nq : f64
      std.return %r : f64
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  Operation &Func = M->getRegion(0).front().front();
  Operation *Clone = cloneOp(&Func);
  Clone->setAttr("sym_name", Ctx.getStringAttr("conorm_opt"));
  M->getRegion(0).front().push_back(Clone);

  // Optimize only the clone.
  RewritePatternSet Patterns(&Ctx);
  Patterns.add<ConormPattern>();
  applyPatternsGreedily(Clone, Patterns);
  eraseDeadOps(Clone, {"cmath.norm", "cmath.mul"});

  DiagnosticEngine V;
  ASSERT_TRUE(succeeded(M->verify(V))) << V.renderAll();

  std::string Text = printOpToString(M.get());
  // The original still contains std.mulf; the clone does not.
  size_t Original = Text.find("@conorm(");
  size_t Optimized = Text.find("@conorm_opt(");
  ASSERT_NE(Original, std::string::npos);
  ASSERT_NE(Optimized, std::string::npos);
  EXPECT_NE(Text.find("std.mulf", Original), std::string::npos);
  EXPECT_EQ(Text.find("std.mulf", Optimized), std::string::npos);
}

TEST_F(EndToEndTest, AnalysisSeesTheLoadedDialect) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  CorpusStatistics Stats = CorpusStatistics::compute(Module->Dialects);
  const DialectStatistics *Cmath = Stats.lookup("cmath");
  ASSERT_NE(Cmath, nullptr);
  EXPECT_EQ(Cmath->numOps(), 7u);
  EXPECT_EQ(Cmath->numTypes(), 1u);
  // Everything in cmath is pure IRDL.
  auto Local = Stats.opLocalConstraintExpressibility();
  EXPECT_EQ(Local.NeedsCpp, 0u);
  auto Verifiers = Stats.opVerifierExpressibility();
  EXPECT_EQ(Verifiers.NeedsCpp, 0u);
}

TEST_F(EndToEndTest, TextRoundTripAfterTransformation) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  OwningOpRef M = parse(R"(
    std.func @f(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
        -> f32 {
      %np = cmath.norm %p : f32
      %nq = cmath.norm %q : f32
      %r = std.mulf %np, %nq : f32
      std.return %r : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  RewritePatternSet Patterns(&Ctx);
  Patterns.add<ConormPattern>();
  applyPatternsGreedily(M.get(), Patterns);
  eraseDeadOps(M.get(), {"cmath.norm", "cmath.mul"});

  std::string Once = printOpToString(M.get());
  OwningOpRef M2 = parse(Once);
  ASSERT_TRUE(static_cast<bool>(M2)) << Once << "\n" << Diags.renderAll();
  EXPECT_EQ(printOpToString(M2.get()), Once);
  DiagnosticEngine V;
  EXPECT_TRUE(succeeded(M2->verify(V))) << V.renderAll();
}

TEST_F(EndToEndTest, SecondDialectCoexists) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  // Load arith alongside cmath in the same context and mix both in one
  // function.
  auto Arith = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                     "/arith.irdl",
                            SrcMgr, Diags);
  ASSERT_NE(Arith, nullptr) << Diags.renderAll();

  OwningOpRef M = parse(R"(
    std.func @mixed(%p: !cmath.complex<f32>) -> f32 {
      %n = cmath.norm %p : f32
      %d = "arith.mulf"(%n, %n) {fm = arith.fastmath.fast}
          : (f32, f32) -> (f32)
      std.return %d : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  DiagnosticEngine V;
  EXPECT_TRUE(succeeded(M->verify(V))) << V.renderAll();
}

} // namespace
