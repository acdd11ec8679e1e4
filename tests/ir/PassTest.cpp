//===- PassTest.cpp - Pass manager -----------------------------------===//

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class PassTest : public ::testing::Test {
protected:
  PassTest() : Diags(&SrcMgr) {}

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

struct CountingPass : Pass {
  explicit CountingPass(int *Counter) : Counter(Counter) {}
  std::string_view getName() const override { return "counting"; }
  LogicalResult run(Operation *, DiagnosticEngine &) override {
    ++*Counter;
    return success();
  }
  int *Counter;
};

struct FailingPass : Pass {
  std::string_view getName() const override { return "failing"; }
  LogicalResult run(Operation *Op, DiagnosticEngine &Diags) override {
    Diags.emitError(Op->getLoc(), "this pass always fails");
    return failure();
  }
};

struct CorruptingPass : Pass {
  std::string_view getName() const override { return "corrupting"; }
  LogicalResult run(Operation *Root, DiagnosticEngine &) override {
    // Moves a terminator away from the end of its block.
    Operation *Return = nullptr;
    Root->walk([&](Operation *Op) {
      if (Op->getName().str() == "std.return")
        Return = Op;
    });
    if (Return) {
      Block *B = Return->getBlock();
      Return->removeFromBlock();
      B->push_front(Return);
    }
    return success();
  }
};

TEST_F(PassTest, RunsPassesInOrder) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  int Counter = 0;
  PassManager PM(&Ctx);
  PM.addPass<CountingPass>(&Counter);
  PM.addPass<CountingPass>(&Counter);
  PassPipelineStatistics Stats;
  DiagnosticEngine PDiags;
  EXPECT_TRUE(succeeded(PM.run(M.get(), PDiags, &Stats)));
  EXPECT_EQ(Counter, 2);
  EXPECT_EQ(Stats.PassesRun, 2u);
}

TEST_F(PassTest, FailureStopsPipeline) {
  OwningOpRef M = parse("%c = std.constant 1.0 : f32");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  int Counter = 0;
  PassManager PM(&Ctx);
  PM.addPass<FailingPass>();
  PM.addPass<CountingPass>(&Counter);
  PassPipelineStatistics Stats;
  DiagnosticEngine PDiags;
  EXPECT_TRUE(failed(PM.run(M.get(), PDiags, &Stats)));
  EXPECT_EQ(Counter, 0);
  EXPECT_EQ(Stats.FailedPass, "failing");
}

TEST_F(PassTest, InterPassVerificationCatchesCorruption) {
  OwningOpRef M = parse(R"(
    std.func @f() {
      %c = std.constant 1.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  PassManager PM(&Ctx);
  PM.addPass<CorruptingPass>();
  PassPipelineStatistics Stats;
  DiagnosticEngine PDiags;
  EXPECT_TRUE(failed(PM.run(M.get(), PDiags, &Stats)));
  EXPECT_TRUE(Stats.VerificationFailed);
  EXPECT_EQ(Stats.FailedPass, "corrupting");
  EXPECT_NE(PDiags.renderAll().find("after pass 'corrupting'"),
            std::string::npos);
}

TEST_F(PassTest, VerifierCanBeDisabled) {
  OwningOpRef M = parse(R"(
    std.func @f() {
      %c = std.constant 1.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  PassManager PM(&Ctx);
  PM.enableVerifier(false);
  PM.addPass<CorruptingPass>();
  DiagnosticEngine PDiags;
  EXPECT_TRUE(succeeded(PM.run(M.get(), PDiags)));
}

TEST_F(PassTest, DeadCodeElimination) {
  OwningOpRef M = parse(R"(
    std.func @f() -> f32 {
      %used = std.constant 1.0 : f32
      %dead1 = std.constant 2.0 : f32
      %dead2 = std.mulf %dead1, %dead1 : f32
      std.return %used : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  PassManager PM(&Ctx);
  auto DCE = std::make_unique<DeadCodeEliminationPass>(
      std::vector<std::string>{}, /*AssumeRegisteredOpsPure=*/true);
  DeadCodeEliminationPass *DCEPtr = DCE.get();
  PM.addPass(std::move(DCE));
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags))) << PDiags.renderAll();
  // Both dead ops go (the mul first, freeing the constant).
  EXPECT_EQ(DCEPtr->getNumErased(), 2u);
  std::string Text = printOpToString(M.get());
  EXPECT_EQ(Text.find("2.0"), std::string::npos);
  EXPECT_NE(Text.find("1.0"), std::string::npos);
}

TEST_F(PassTest, DceConservativeWithoutPurity) {
  OwningOpRef M = parse(R"(
    std.func @f() {
      %dead = std.constant 2.0 : f32
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  PassManager PM(&Ctx);
  // No purity info at all: nothing may be erased.
  PM.addPass<DeadCodeEliminationPass>();
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags)));
  EXPECT_NE(printOpToString(M.get()).find("std.constant"),
            std::string::npos);

  // Explicit pure-op list enables it.
  PassManager PM2(&Ctx);
  PM2.addPass<DeadCodeEliminationPass>(
      std::vector<std::string>{"std.constant"});
  ASSERT_TRUE(succeeded(PM2.run(M.get(), PDiags)));
  EXPECT_EQ(printOpToString(M.get()).find("std.constant"),
            std::string::npos);
}

TEST_F(PassTest, GreedyRewritePassReportsStatistics) {
  OwningOpRef M = parse(R"(
    std.func @f(%a: f32) -> f32 {
      %s = std.addf %a, %a : f32
      std.return %s : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  struct AddToMul : RewritePattern {
    AddToMul() : RewritePattern("std.addf") {}
    LogicalResult
    matchAndRewrite(Operation *Op,
                    PatternRewriter &Rewriter) const override {
      OperationState S(*Rewriter.getContext(),
                       Rewriter.getContext()->resolveOpDef("std.mulf"),
                       Op->getLoc());
      S.Operands = {Op->getOperand(0), Op->getOperand(1)};
      S.ResultTypes = {Op->getResult(0).getType()};
      Operation *Mul = Rewriter.createOp(S);
      Rewriter.replaceOp(Op, {Mul->getResult(0)});
      return success();
    }
  };

  auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
  Patterns->add<AddToMul>();
  PassManager PM(&Ctx);
  auto RewritePass =
      std::make_unique<GreedyRewritePass>("add-to-mul", Patterns);
  GreedyRewritePass *PassPtr = RewritePass.get();
  PM.addPass(std::move(RewritePass));
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(PM.run(M.get(), PDiags))) << PDiags.renderAll();
  EXPECT_EQ(PassPtr->getLastStatistics().NumRewrites, 1u);
  EXPECT_TRUE(PassPtr->getLastStatistics().Converged);
}

/// A module of \p NumFuncs single-block functions @f0..@f<N-1>.
std::string functionsText(unsigned NumFuncs) {
  std::string Text;
  for (unsigned F = 0; F != NumFuncs; ++F)
    Text += "std.func @f" + std::to_string(F) +
            "() {\n  \"std.return\"() : () -> ()\n}\n";
  return Text;
}

/// The sym_name of a function root.
std::string funcName(Operation *Func) {
  Attribute SymName = Func->getAttr("sym_name");
  return SymName ? SymName.getParams()[0].getString() : "";
}

TEST_F(PassTest, FunctionPassVisitsFunctionsInSourceOrder) {
  OwningOpRef M = parse(functionsText(12));
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  LambdaFunctionPass Pass("annotate", [](Operation *Func,
                                         DiagnosticEngine &D) {
    D.emitWarning(Func->getLoc(), "visiting " + funcName(Func));
    return success();
  });
  DiagnosticEngine PDiags;
  ASSERT_TRUE(succeeded(Pass.run(M.get(), PDiags)));
  std::string Expected;
  for (unsigned F = 0; F != 12; ++F)
    Expected += "warning: visiting f" + std::to_string(F) + "\n";
  EXPECT_EQ(PDiags.renderAll(), Expected);
}

TEST_F(PassTest, FunctionPassStopsAtFirstFailure) {
  OwningOpRef M = parse(functionsText(12));
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  LambdaFunctionPass Pass("fail-at-3", [](Operation *Func,
                                          DiagnosticEngine &D) {
    std::string Name = funcName(Func);
    D.emitWarning(Func->getLoc(), "visiting " + Name);
    if (Name == "f3") {
      D.emitError(Func->getLoc(), "rejecting " + Name);
      return failure();
    }
    return success();
  });
  DiagnosticEngine PDiags;
  EXPECT_TRUE(failed(Pass.run(M.get(), PDiags)));
  std::string Out = PDiags.renderAll();
  EXPECT_NE(Out.find("rejecting f3"), std::string::npos) << Out;
  // Nothing from the functions after the failing one.
  EXPECT_EQ(Out.find("f4"), std::string::npos) << Out;
}

} // namespace
