//===- VerifierTest.cpp - Structural verification ----------------------===//

#include "common/ScopedMetrics.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "ir/Block.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace irdl;

namespace {

class VerifierTest : public ::testing::Test {
protected:
  VerifierTest() : Diags(&SrcMgr) {
    Dialect *D = Ctx.getOrCreateDialect("test");
    D->addOp("source");
    D->addOp("sink");
    D->addOp("wrap");
  }

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  LogicalResult verify(OwningOpRef &Module) {
    VDiags.clear();
    return Module->verify(VDiags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  DiagnosticEngine VDiags;
};

TEST_F(VerifierTest, StraightLineCodeVerifies) {
  OwningOpRef M = parse(R"(
    %0 = "test.source"() : () -> (f32)
    "test.sink"(%0) : (f32) -> ()
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
}

TEST_F(VerifierTest, UseBeforeDefInSameBlockFails) {
  // Build by hand: the parser would catch this via forward-ref typing, so
  // construct directly.
  OwningOpRef M = parse(R"(
    %0 = "test.source"() : () -> (f32)
    "test.sink"(%0) : (f32) -> ()
  )");
  ASSERT_TRUE(static_cast<bool>(M));
  Block &Body = M->getRegion(0).front();
  Operation &Source = Body.front();
  Operation &Sink = Body.back();
  // Move sink before source.
  Sink.removeFromBlock();
  Body.insert(Block::iterator(&Source), &Sink);
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find("does not dominate"),
            std::string::npos);
}

TEST_F(VerifierTest, DominanceAcrossBlocks) {
  OwningOpRef M = parse(R"(
    std.func @f(%c: i1) {
      %x = "test.source"() : () -> (f32)
      "std.cond_br"(%c)[^a, ^b] : (i1) -> ()
    ^a:
      "test.sink"(%x) : (f32) -> ()
      "std.return"() : () -> ()
    ^b:
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
}

TEST_F(VerifierTest, NonDominatingUseAcrossBlocksFails) {
  OwningOpRef M = parse(R"(
    std.func @f(%c: i1) {
      "std.cond_br"(%c)[^a, ^b] : (i1) -> ()
    ^a:
      %x = "test.source"() : () -> (f32)
      "std.br"()[^b] : () -> ()
    ^b:
      "test.sink"(%x) : (f32) -> ()
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(failed(verify(M)));
}

TEST_F(VerifierTest, ValuesVisibleInNestedRegions) {
  OwningOpRef M = parse(R"(
    %x = "test.source"() : () -> (f32)
    module {
      "test.sink"(%x) : (f32) -> ()
    }
  )");
  // Region capture: the nested module body uses an outer value.
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
}

TEST_F(VerifierTest, TerminatorMustBeLast) {
  OwningOpRef M = parse(R"(
    std.func @f() {
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  // Append an op after the terminator.
  Block &Body = M->getRegion(0).front().front().getRegion(0).front();
  Dialect *D = Ctx.lookupDialect("test");
  OperationState S(Ctx, OperationName(D->lookupOp("source")));
  S.ResultTypes.push_back(Ctx.getFloatType(32));
  Body.push_back(Operation::create(S));
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find("must be the last operation"),
            std::string::npos);
}

TEST_F(VerifierTest, MultiBlockRegionRequiresTerminators) {
  OwningOpRef M = parse(R"(
    std.func @f() {
      "std.br"()[^next] : () -> ()
    ^next:
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  ASSERT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  // Drop ^next's terminator: now the multi-block region is invalid.
  Region &Body = M->getRegion(0).front().front().getRegion(0);
  Body.back().back().erase();
  EXPECT_TRUE(failed(verify(M)));
}

TEST_F(VerifierTest, SuccessorCountChecked) {
  OwningOpRef M = parse(R"(
    std.func @f(%c: i1) {
      "std.cond_br"(%c)[^a, ^b] : (i1) -> ()
    ^a:
      "std.return"() : () -> ()
    ^b:
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  Operation *CondBr =
      M->getRegion(0).front().front().getRegion(0).front().getTerminator();
  // Registered NumSuccessors == 2; break it.
  CondBr->setSuccessor(1, CondBr->getSuccessor(0));
  EXPECT_TRUE(succeeded(verify(M))); // Same block twice is fine.
}

TEST_F(VerifierTest, RegisteredVerifierRuns) {
  Dialect *D = Ctx.lookupDialect("test");
  OpDefinition *Strict = D->addOp("strict");
  Strict->setVerifier(
      [](Operation *Op, DiagnosticEngine &Diags) -> LogicalResult {
        if (Op->getAttr("required"))
          return success();
        Diags.emitError(Op->getLoc(), "missing 'required' attribute");
        return failure();
      });
  OwningOpRef M = parse(R"("test.strict"() : () -> ())");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(failed(verify(M)));
  M->getRegion(0).front().front().setAttr("required", Ctx.getUnitAttr());
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
}

TEST_F(VerifierTest, DominanceInfoDirectQueries) {
  OwningOpRef M = parse(R"(
    std.func @f(%c: i1) {
      "std.cond_br"(%c)[^a, ^b] : (i1) -> ()
    ^a:
      "std.br"()[^join] : () -> ()
    ^b:
      "std.br"()[^join] : () -> ()
    ^join:
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  Region &Body = M->getRegion(0).front().front().getRegion(0);
  std::vector<Block *> Blocks;
  for (Block &B : Body)
    Blocks.push_back(&B);
  ASSERT_EQ(Blocks.size(), 4u);
  DominanceInfo Dom;
  EXPECT_TRUE(Dom.dominates(Blocks[0], Blocks[3]));
  EXPECT_TRUE(Dom.dominates(Blocks[0], Blocks[1]));
  EXPECT_FALSE(Dom.dominates(Blocks[1], Blocks[3]));
  EXPECT_FALSE(Dom.dominates(Blocks[2], Blocks[3]));
  EXPECT_TRUE(Dom.dominates(Blocks[3], Blocks[3]));
}

TEST_F(VerifierTest, SameBlockDominanceIsLinear) {
  // Every op of one block uses the block's first value, so each operand
  // is a same-block dominance query. Numbering the block's ops once is
  // linear; any re-walk of the block numbers some op twice.
  auto AddUsers = [&](OwningOpRef &M, unsigned NumUsers) {
    Block &Body = M->getRegion(0).front();
    Value Def = Body.front().getResult(0);
    for (unsigned I = 0; I != NumUsers; ++I) {
      OperationState S(Ctx, Ctx.resolveOpDef("test.sink"));
      S.Operands = {Def};
      Body.push_back(Operation::create(S));
    }
  };
  Statistic *Numbered =
      StatisticRegistry::instance().lookup("Verifier", "NumOpsNumbered");
  ASSERT_NE(Numbered, nullptr);
  ScopedMetricsEnabled Metrics;
  auto OpsNumbered = [&](OwningOpRef &M) {
    uint64_t Before = Numbered->get();
    EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
    return Numbered->get() - Before;
  };
  OwningOpRef M20k = parse(R"(%0 = "test.source"() : () -> (f32))");
  OwningOpRef M40k = parse(R"(%0 = "test.source"() : () -> (f32))");
  ASSERT_TRUE(M20k && M40k) << Diags.renderAll();
  AddUsers(M20k, 20000);
  AddUsers(M40k, 40000);
  EXPECT_EQ(OpsNumbered(M20k), 20001u);
  EXPECT_EQ(OpsNumbered(M40k), 40001u);
}

TEST_F(VerifierTest, AlternatingBlocksAreNumberedOnce) {
  // Uses alternate between a nested block's own value and its parent
  // block's: each block is still numbered once per DominanceInfo.
  OwningOpRef M = parse(R"(
    %0 = "test.source"() : () -> (f32)
    %1 = "test.source"() : () -> (f32)
    "test.wrap"() ({
      %2 = "test.source"() : () -> (f32)
      "test.sink"(%2, %1) : (f32, f32) -> ()
      "test.sink"(%1, %2) : (f32, f32) -> ()
      "test.sink"(%2, %0) : (f32, f32) -> ()
    }) : () -> ()
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  Block &Outer = M->getRegion(0).front();
  Block &Inner = Outer.back().getRegion(0).front();
  DominanceInfo Dom;
  for (Operation &User : Inner)
    for (unsigned I = 0, E = User.getNumOperands(); I != E; ++I)
      EXPECT_TRUE(Dom.properlyDominates(User.getOperand(I), &User));
  // The outer block (3 ops) and the inner one (4 ops), once each.
  EXPECT_EQ(Dom.getNumOpsNumbered(), 7u);
  // Later queries reuse the positions: a later op's value does not
  // dominate an earlier op, and nothing is renumbered.
  Operation &Second = *std::next(Outer.begin());
  EXPECT_FALSE(Dom.properlyDominates(Second.getResult(0), &Outer.front()));
  EXPECT_EQ(Dom.getNumOpsNumbered(), 7u);

  // A second DominanceInfo numbers afresh rather than trusting positions
  // written by the first.
  DominanceInfo Again;
  EXPECT_TRUE(Again.properlyDominates(Outer.front().getResult(0),
                                      &Outer.back()));
  EXPECT_EQ(Again.getNumOpsNumbered(), 3u);
}

TEST_F(VerifierTest, IsolatedFromAbove) {
  // Isolation is declared at registration, not computed from the body.
  EXPECT_TRUE(Ctx.resolveOpDef("builtin.module")->isIsolatedFromAbove());
  EXPECT_TRUE(Ctx.resolveOpDef("std.func")->isIsolatedFromAbove());
  EXPECT_FALSE(Ctx.resolveOpDef("std.return")->isIsolatedFromAbove());
  EXPECT_FALSE(Ctx.resolveOpDef("test.wrap")->isIsolatedFromAbove());

  OwningOpRef M = parse(R"(
    %x = "test.source"() : () -> (f32)
    std.func @f(%p: f32) {
      "test.sink"(%p) : (f32) -> ()
      "std.return"() : () -> ()
    }
    std.func @g() {
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  // With collection on, a verify times the module and each function once
  // (not every leaf op, whose empty body uses nothing from outside) and
  // checks each op once.
  ScopedMetricsEnabled Metrics;
  Histogram &FuncLatency = MetricsRegistry::instance().getHistogram(
      "irdl_verify_function_duration_ns",
      "wall time verifying one isolated-from-above operation");
  Counter &OpsVerified = MetricsRegistry::instance().getCounter(
      "irdl_verify_ops_total", "operations structurally verified");
  uint64_t SamplesBefore = FuncLatency.snapshot().Count;
  uint64_t OpsBefore = OpsVerified.get();
  ASSERT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  EXPECT_EQ(FuncLatency.snapshot().Count - SamplesBefore, 3u);
  EXPECT_EQ(OpsVerified.get() - OpsBefore, 7u);
}

} // namespace
