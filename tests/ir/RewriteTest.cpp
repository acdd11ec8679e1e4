//===- RewriteTest.cpp - Pattern rewriting -----------------------------===//

#include "ir/Context.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Rewrite.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class RewriteTest : public ::testing::Test {
protected:
  RewriteTest() : Diags(&SrcMgr) {}

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

/// Rewrites x + x into x * 2... actually into mulf(x, x) to stay in the
/// float domain: addf(%a, %a) -> mulf(%a, %a) for test purposes.
struct AddSelfToMul : RewritePattern {
  AddSelfToMul() : RewritePattern("std.addf") {}

  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    if (Op->getOperand(0) != Op->getOperand(1))
      return failure();
    OperationState State(*Rewriter.getContext(),
                         Rewriter.getContext()->resolveOpDef("std.mulf"),
                         Op->getLoc());
    State.Operands = {Op->getOperand(0), Op->getOperand(1)};
    State.ResultTypes = {Op->getResult(0).getType()};
    Operation *Mul = Rewriter.createOp(State);
    Rewriter.replaceOp(Op, {Mul->getResult(0)});
    return success();
  }
};

/// Folds mulf(constant, constant) into a constant.
struct FoldMulOfConstants : RewritePattern {
  FoldMulOfConstants() : RewritePattern("std.mulf", /*Benefit=*/2) {}

  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *L = Op->getOperand(0).getDefiningOp();
    Operation *R = Op->getOperand(1).getDefiningOp();
    auto IsConst = [](Operation *D) {
      return D && D->getName().str() == "std.constant";
    };
    if (!IsConst(L) || !IsConst(R))
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    double LV = L->getAttr("value").getParams()[0].getFloat().Value;
    double RV = R->getAttr("value").getParams()[0].getFloat().Value;
    unsigned Width = L->getAttr("value").getParams()[0].getFloat().Width;
    OperationState State(*Ctx, Ctx->resolveOpDef("std.constant"), Op->getLoc());
    State.addAttribute("value", Ctx->getFloatAttr(LV * RV, Width));
    State.ResultTypes = {Op->getResult(0).getType()};
    Operation *Folded = Rewriter.createOp(State);
    Rewriter.replaceOp(Op, {Folded->getResult(0)});
    return success();
  }
};

TEST_F(RewriteTest, SimpleRewrite) {
  OwningOpRef M = parse(R"(
    std.func @f(%a: f32) -> f32 {
      %s = std.addf %a, %a : f32
      std.return %s : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  RewritePatternSet Patterns(&Ctx);
  Patterns.add<AddSelfToMul>();
  RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
  EXPECT_EQ(Stats.NumRewrites, 1u);
  EXPECT_TRUE(Stats.Converged);

  std::string Text = printOpToString(M.get());
  EXPECT_NE(Text.find("std.mulf"), std::string::npos);
  EXPECT_EQ(Text.find("std.addf"), std::string::npos);
}

TEST_F(RewriteTest, CascadingRewrites) {
  // Folding proceeds bottom-up: two folds collapse the whole chain.
  OwningOpRef M = parse(R"(
    std.func @f() -> f32 {
      %a = std.constant 2.0 : f32
      %b = std.constant 3.0 : f32
      %c = std.mulf %a, %b : f32
      %d = std.mulf %c, %c : f32
      std.return %d : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  RewritePatternSet Patterns(&Ctx);
  Patterns.add<FoldMulOfConstants>();
  RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
  EXPECT_EQ(Stats.NumRewrites, 2u);

  unsigned Erased = eraseDeadOps(M.get(), {"std.constant", "std.mulf"});
  EXPECT_GE(Erased, 2u);

  std::string Text = printOpToString(M.get());
  EXPECT_EQ(Text.find("std.mulf"), std::string::npos);
  EXPECT_NE(Text.find("36"), std::string::npos); // (2*3)^2
}

TEST_F(RewriteTest, NoMatchMeansNoChange) {
  OwningOpRef M = parse(R"(
    std.func @f(%a: f32, %b: f32) -> f32 {
      %s = std.addf %a, %b : f32
      std.return %s : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::string Before = printOpToString(M.get());

  RewritePatternSet Patterns(&Ctx);
  Patterns.add<AddSelfToMul>(); // Requires equal operands.
  RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
  EXPECT_EQ(Stats.NumRewrites, 0u);
  EXPECT_EQ(printOpToString(M.get()), Before);
}

TEST_F(RewriteTest, BenefitOrdersPatterns) {
  // Both patterns match mulf of constants; the higher-benefit one (the
  // fold) must win over a lower-benefit one that would rename it.
  struct RenameMul : RewritePattern {
    RenameMul() : RewritePattern("std.mulf", /*Benefit=*/1) {}
    LogicalResult
    matchAndRewrite(Operation *Op,
                    PatternRewriter &Rewriter) const override {
      if (Op->getAttr("renamed"))
        return failure();
      Op->setAttr("renamed",
                  Rewriter.getContext()->getUnitAttr());
      Rewriter.notifyOpModified(Op);
      return success();
    }
  };

  OwningOpRef M = parse(R"(
    std.func @f() -> f32 {
      %a = std.constant 2.0 : f32
      %c = std.mulf %a, %a : f32
      std.return %c : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  RewritePatternSet Patterns(&Ctx);
  Patterns.add<RenameMul>();
  Patterns.add<FoldMulOfConstants>();
  applyPatternsGreedily(M.get(), Patterns);

  std::string Text = printOpToString(M.get());
  // The fold ran; the mulf is gone (after DCE) rather than renamed.
  eraseDeadOps(M.get(), {"std.constant", "std.mulf"});
  Text = printOpToString(M.get());
  EXPECT_EQ(Text.find("renamed"), std::string::npos);
  EXPECT_EQ(Text.find("std.mulf"), std::string::npos);
}

TEST_F(RewriteTest, EraseDeadOpsRespectsUses) {
  OwningOpRef M = parse(R"(
    std.func @f() -> f32 {
      %a = std.constant 2.0 : f32
      %b = std.constant 3.0 : f32
      std.return %a : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  unsigned Erased = eraseDeadOps(M.get(), {"std.constant"});
  EXPECT_EQ(Erased, 1u); // Only %b is dead.
  std::string Text = printOpToString(M.get());
  EXPECT_NE(Text.find("std.constant 2"), std::string::npos);
}

/// Logs every op it is tried on and never matches; benefit 0, so it runs
/// after every other pattern.
struct LogVisits : RewritePattern {
  explicit LogVisits(std::vector<std::string> *Seen)
      : RewritePattern("", /*Benefit=*/0), Seen(Seen) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &) const override {
    Seen->push_back(Op->getName().str());
    return failure();
  }
  std::vector<std::string> *Seen;
};

TEST_F(RewriteTest, NewOpAtAnErasedQueuedOpsAddressRunsAtItsOwnPosition) {
  Dialect *D = Ctx.getOrCreateDialect("t");
  for (const char *Name : {"a", "b", "c", "d"})
    D->addOp(Name);
  OwningOpRef M = parse(R"(
    std.func @f() {
      "t.a"() : () -> ()
      "t.b"() : () -> ()
      "t.d"() : () -> ()
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  // On t.a, once: erases t.b, which is still queued, then creates t.c
  // in its place. t.c has t.b's shape, so the arena hands it t.b's slot.
  struct ReplaceNext : RewritePattern {
    ReplaceNext(uintptr_t *Erased, uintptr_t *Created)
        : RewritePattern("t.a"), Erased(Erased), Created(Created) {}
    LogicalResult matchAndRewrite(Operation *Op,
                                  PatternRewriter &Rewriter) const override {
      if (*Created)
        return failure();
      Operation *Next = Op->getNextNode();
      *Erased = reinterpret_cast<uintptr_t>(Next);
      Rewriter.eraseOp(Next);
      OperationState State(*Rewriter.getContext(),
                           Rewriter.getContext()->resolveOpDef("t.c"),
                           Op->getLoc());
      Rewriter.setInsertionPointAfter(Op);
      *Created = reinterpret_cast<uintptr_t>(Rewriter.createOp(State));
      return success();
    }
    uintptr_t *Erased;
    uintptr_t *Created;
  };

  uintptr_t Erased = 0, Created = 0;
  std::vector<std::string> Seen;
  RewritePatternSet Patterns(&Ctx);
  Patterns.add<ReplaceNext>(&Erased, &Created);
  Patterns.add<LogVisits>(&Seen);
  RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
  ASSERT_EQ(Created, Erased) << "the arena did not reuse the erased slot";
  EXPECT_EQ(Stats.NumRewrites, 1u);
  EXPECT_TRUE(Stats.Converged);
  // First sweep: t.b's queue slot is dead, and t.c runs once, after the
  // ops queued before it. Second sweep: walk order, nothing matches.
  std::vector<std::string> Expected = {
      "std.func", "t.d", "std.return", "t.c",                  // sweep 1
      "std.func", "t.a", "t.c",        "t.d", "std.return"};   // sweep 2
  EXPECT_EQ(Seen, Expected);
}

TEST_F(RewriteTest, NonConvergenceIsReported) {
  // A pattern that claims a change every time it runs never converges.
  struct AlwaysChanged : RewritePattern {
    AlwaysChanged() : RewritePattern("std.addf") {}
    LogicalResult matchAndRewrite(Operation *,
                                  PatternRewriter &) const override {
      return success();
    }
  };
  OwningOpRef M = parse(R"(
    std.func @f(%a: f32) -> f32 {
      %s = std.addf %a, %a : f32
      std.return %s : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  RewritePatternSet Patterns(&Ctx);
  Patterns.add<AlwaysChanged>();
  RewriteStatistics Stats =
      applyPatternsGreedily(M.get(), Patterns, /*MaxIterations=*/3);
  EXPECT_FALSE(Stats.Converged);
  EXPECT_EQ(Stats.NumIterations, 3u);
  EXPECT_EQ(Stats.NumRewrites, 4u); // three sweeps plus the probe
}

TEST_F(RewriteTest, PatternsRootedAtUnregisteredNamesCompareNames) {
  // "t.x" is not registered: its pattern is tried on unregistered ops by
  // name, and never on registered ones.
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef M = parse(R"(
    std.func @f(%a: f32) -> f32 {
      "t.x"() : () -> ()
      "t.y"() : () -> ()
      %s = std.addf %a, %a : f32
      std.return %s : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  struct LogX : RewritePattern {
    explicit LogX(std::vector<std::string> *Seen)
        : RewritePattern("t.x"), Seen(Seen) {}
    LogicalResult matchAndRewrite(Operation *Op,
                                  PatternRewriter &) const override {
      Seen->push_back(Op->getName().str());
      return failure();
    }
    std::vector<std::string> *Seen;
  };
  std::vector<std::string> Seen;
  RewritePatternSet Patterns(&Ctx);
  Patterns.add<LogX>(&Seen);
  applyPatternsGreedily(M.get(), Patterns);
  EXPECT_EQ(Seen, std::vector<std::string>{"t.x"});
}

} // namespace
