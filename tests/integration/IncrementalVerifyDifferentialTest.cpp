//===- IncrementalVerifyDifferentialTest.cpp - change-set verify oracle ---===//
///
/// The pass manager's verify-each after conorm and dce checks only what
/// the pass recorded changing. Its oracle is the full verify: the same
/// pipeline with every pass wrapped in FullVerifyPass, which records
/// nothing and so gets the whole root verified. Over synthesized
/// conorm/large modules and examples/testdata/conorm.mlir, both runs must
/// agree byte for byte on the verdict, the printed IR and the rendered
/// diagnostics. Mutating patterns break the IR in the ways a change set
/// must catch: a created op violating its IRDL constraint, an op inserted
/// before the definition of its operand, a region terminator erased or
/// replaced, and a replacement value of another type (where an op the
/// pattern never touched is the one that fails).

#include "common/ScopedMetrics.h"
#include "ir/Block.h"
#include "ir/ConormPattern.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace irdl;

namespace {

/// Runs \p Inner without recording its changes, so the verify after it
/// checks the whole root: the oracle for the change-set verify.
class FullVerifyPass : public Pass {
public:
  explicit FullVerifyPass(std::unique_ptr<Pass> Inner)
      : Inner(std::move(Inner)) {}
  std::string_view getName() const override { return Inner->getName(); }
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags) override {
    return Inner->run(Root, Diags);
  }

private:
  std::unique_ptr<Pass> Inner;
};

/// Runs \p Inner recording its changes, and expects them localized, so
/// the differential really compares a change-set verify with a full one.
class ExpectLocalizedPass : public Pass {
public:
  explicit ExpectLocalizedPass(std::unique_ptr<Pass> Inner)
      : Inner(std::move(Inner)) {}
  std::string_view getName() const override { return Inner->getName(); }
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags) override {
    return Inner->run(Root, Diags);
  }
  LogicalResult runAndRecord(Operation *Root, DiagnosticEngine &Diags,
                             ChangeSet &Changes) override {
    LogicalResult Result = Inner->runAndRecord(Root, Diags, Changes);
    EXPECT_TRUE(Changes.isLocalized()) << "pass " << getName();
    return Result;
  }

private:
  std::unique_ptr<Pass> Inner;
};

/// Deterministic generator state (splitmix64).
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ull);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
    return Z ^ (Z >> 31);
  }
  unsigned below(unsigned N) { return static_cast<unsigned>(next() % N); }

private:
  uint64_t State;
};

/// Builds module text one line at a time with fresh SSA names.
struct TextBuilder {
  std::string Text;
  unsigned NextValue = 0;

  std::string fresh() { return "%v" + std::to_string(NextValue++); }
  void line(const std::string &L) { Text += L + "\n"; }

  /// acc' = acc + norm(p) * norm(q), which conorm rewrites, or
  /// acc' = acc + norm(p) * 2.0, which it leaves alone.
  std::string conormStep(const std::string &Acc, const std::string &E,
                         bool Matched) {
    std::string NP = fresh(), Other = fresh(), Mul = fresh(), Sum = fresh();
    line("  " + NP + " = cmath.norm %p : " + E);
    line(Matched ? "  " + Other + " = cmath.norm %q : " + E
                 : "  " + Other + " = std.constant 2.0 : " + E);
    line("  " + Mul + " = std.mulf " + NP + ", " + Other + " : " + E);
    line("  " + Sum + " = std.addf " + Acc + ", " + Mul + " : " + E);
    return Sum;
  }
};

/// Functions that accumulate conorm steps over f32 or f64.
std::string conormModule(uint64_t Seed, unsigned NumFuncs) {
  Rng R(Seed);
  TextBuilder B;
  for (unsigned F = 0; F != NumFuncs; ++F) {
    std::string E = R.below(2) ? "f32" : "f64";
    B.line("std.func @conorm" + std::to_string(F) + "(%p: !cmath.complex<" +
           E + ">, %q: !cmath.complex<" + E + ">) -> " + E + " {");
    std::string Acc = B.fresh();
    B.line("  " + Acc + " = std.constant 1.0 : " + E);
    for (unsigned I = 0, N = 4 + R.below(8); I != N; ++I)
      Acc = B.conormStep(Acc, E, R.below(5) != 0);
    B.line("  std.return " + Acc + " : " + E);
    B.line("}");
  }
  return B.Text;
}

/// Functions over all five dialects with conorm steps, complex, math and
/// arith chains, and scf.for / scf.if regions, about \p OpsPerFunc ops
/// each.
std::string largeModule(uint64_t Seed, unsigned NumFuncs,
                        unsigned OpsPerFunc) {
  Rng R(Seed);
  TextBuilder B;
  for (unsigned F = 0; F != NumFuncs; ++F) {
    B.line("std.func @large" + std::to_string(F) +
           "(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>, "
           "%c: !complex.cplx<f32>, %a: i32) -> f32 {");
    B.line("  %b = \"arith.addi\"(%a, %a) : (i32, i32) -> (i32)");
    B.line("  %lo = \"arith.index_cast\"(%a) : (i32) -> (index)");
    B.line("  %hi = \"arith.index_cast\"(%b) : (i32) -> (index)");
    B.line("  %cond = \"arith.trunci\"(%b) : (i32) -> (i1)");
    std::string Acc = B.fresh();
    B.line("  " + Acc + " = std.constant 1.0 : f32");
    size_t Start = B.Text.size();
    for (unsigned Step = 0;
         Step < 2 || (B.Text.size() - Start) / 40 < OpsPerFunc; ++Step) {
      unsigned Pick = Step == 0 ? 4 : Step == 1 ? 5 : R.below(6);
      std::string Sum = B.fresh();
      switch (Pick) {
      case 0:
        Acc = B.conormStep(Acc, "f32", R.below(4) != 0);
        continue;
      case 1: {
        std::string X = B.fresh(), Y = B.fresh(), Abs = B.fresh();
        B.line("  " + X + " = complex.add %c, %c : f32");
        B.line("  " + Y + " = complex.mul " + X + ", %c : f32");
        B.line("  " + Abs + " = complex.abs " + Y + " : f32");
        B.line("  " + Sum + " = std.addf " + Acc + ", " + Abs + " : f32");
        break;
      }
      case 2: {
        std::string S = B.fresh(), X = B.fresh();
        B.line("  " + S + " = math.sqrt " + Acc + " : f32");
        B.line("  " + X + " = math.exp " + S + " : f32");
        B.line("  " + Sum + " = std.addf " + Acc + ", " + X + " : f32");
        break;
      }
      case 3: {
        std::string I1 = B.fresh(), I2 = B.fresh(), FP = B.fresh();
        B.line("  " + I1 + " = \"arith.muli\"(%a, %b) : (i32, i32) -> (i32)");
        B.line("  " + I2 + " = \"arith.subi\"(" + I1 +
               ", %a) : (i32, i32) -> (i32)");
        B.line("  " + FP + " = \"arith.sitofp\"(" + I2 +
               ") : (i32) -> (f32)");
        B.line("  " + Sum + " = std.addf " + Acc + ", " + FP + " : f32");
        break;
      }
      case 4: {
        std::string Loop = B.fresh(), IV = B.fresh(), T = B.fresh();
        B.line("  " + Loop + " = \"scf.for\"(%lo, %hi, %lo, " + Acc +
               ") ({");
        B.line("  ^bb0(" + IV + ": index):");
        B.line("    " + T + " = math.sqrt " + Acc + " : f32");
        B.line("    \"scf.yield\"(" + T + ") : (f32) -> ()");
        B.line("  }) : (index, index, index, f32) -> (f32)");
        B.line("  " + Sum + " = std.addf " + Acc + ", " + Loop + " : f32");
        break;
      }
      default: {
        std::string If = B.fresh(), Abs = B.fresh();
        B.line("  " + If + " = \"scf.if\"(%cond) ({");
        B.line("    \"scf.yield\"(" + Acc + ") : (f32) -> ()");
        B.line("  }, {");
        B.line("    " + Abs + " = math.absf " + Acc + " : f32");
        B.line("    \"scf.yield\"(" + Abs + ") : (f32) -> ()");
        B.line("  }) : (i1) -> (f32)");
        B.line("  " + Sum + " = std.addf " + Acc + ", " + If + " : f32");
        break;
      }
      }
      Acc = Sum;
    }
    B.line("  std.return " + Acc + " : f32");
    B.line("}");
  }
  return B.Text;
}

//===----------------------------------------------------------------------===//
// Mutating patterns
//===----------------------------------------------------------------------===//

/// conorm, but the created cmath.mul gets the float result type, which
/// its IRDL constraint `!T` (a complex) rejects.
struct MulWithBadResultType : RewritePattern {
  MulWithBadResultType() : RewritePattern("std.mulf") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *L = Op->getOperand(0).getDefiningOp();
    Operation *R = Op->getOperand(1).getDefiningOp();
    if (!L || !R || L->getName().str() != "cmath.norm" ||
        R->getName().str() != "cmath.norm")
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState MulState(*Ctx, Ctx->resolveOpDef("cmath.mul"),
                            Op->getLoc());
    MulState.Operands = {L->getOperand(0), R->getOperand(0)};
    MulState.ResultTypes = {Op->getResult(0).getType()};
    Operation *Mul = Rewriter.createOp(MulState);
    Rewriter.replaceOp(Op, {Mul->getResult(0)});
    return success();
  }
};

/// Puts a math.sqrt of an addf's second operand at the start of its
/// block, before that operand is defined.
struct SqrtBeforeDef : RewritePattern {
  SqrtBeforeDef() : RewritePattern("std.addf") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Block *B = Op->getBlock();
    Value V = Op->getOperand(1);
    if (!V.getDefiningOp() || B->front().getName().str() == "math.sqrt")
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState State(*Ctx, Ctx->resolveOpDef("math.sqrt"), Op->getLoc());
    State.Operands = {V};
    State.ResultTypes = {V.getType()};
    Rewriter.setInsertionPointToStart(B);
    Rewriter.createOp(State);
    return success();
  }
};

/// Erases an scf.yield, or with \p Replace puts a cmath.norm of its float
/// operand in its place, so its region no longer ends with the terminator
/// scf requires. The norm fails its own constraint too, but its parent
/// comes first in walk order and is the one reported.
struct BreakYield : RewritePattern {
  explicit BreakYield(bool Replace)
      : RewritePattern("scf.yield"), Replace(Replace) {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    if (Replace) {
      IRContext *Ctx = Rewriter.getContext();
      OperationState State(*Ctx, Ctx->resolveOpDef("cmath.norm"),
                           Op->getLoc());
      State.Operands = {Op->getOperand(0)};
      State.ResultTypes = {Op->getOperand(0).getType()};
      Rewriter.createOp(State);
    }
    Rewriter.eraseOp(Op);
    return success();
  }
  bool Replace;
};

/// Replaces a mulf of two norms with the first norm's complex operand:
/// the users of the mulf, which the pattern never touches, now see a
/// value of the wrong type.
struct ReplaceWithOtherType : RewritePattern {
  ReplaceWithOtherType() : RewritePattern("std.mulf") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *L = Op->getOperand(0).getDefiningOp();
    if (!L || L->getName().str() != "cmath.norm")
      return failure();
    Rewriter.replaceOp(Op, {L->getOperand(0)});
    return success();
  }
};

/// Puts a cmath.range_loop before a std.return whose body, all of it
/// new, holds a cmath.norm of the returned float, which the norm's
/// constraint rejects; the loop itself is well formed.
struct LoopWithBadBody : RewritePattern {
  LoopWithBadBody() : RewritePattern("std.return") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *Prev = Op->getPrevNode();
    if (Prev && Prev->getName().str() == "cmath.range_loop")
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    Value Bound = Op->getBlock()->getArgument(3); // the i32 %a
    Value Float = Op->getOperand(0);
    OperationState Loop(*Ctx, Ctx->resolveOpDef("cmath.range_loop"),
                        Op->getLoc());
    Loop.Operands = {Bound, Bound, Bound};
    Type ArgTypes[] = {Bound.getType()};
    Block *Body = Block::create(*Ctx, ArgTypes);
    Loop.addRegion()->push_back(Body);
    OperationState Norm(*Ctx, Ctx->resolveOpDef("cmath.norm"), Op->getLoc());
    Norm.Operands = {Float};
    Norm.ResultTypes = {Float.getType()};
    Body->push_back(Operation::create(Norm));
    OperationState Term(*Ctx,
                        Ctx->resolveOpDef("cmath.range_loop_terminator"),
                        Op->getLoc());
    Body->push_back(Operation::create(Term));
    Rewriter.createOp(Loop);
    return success();
  }
};

/// Points a std.return at its function's first argument in place, which
/// only the function's own check of its return types rejects.
struct ReturnFirstArgument : RewritePattern {
  ReturnFirstArgument() : RewritePattern("std.return") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Value Arg = Op->getBlock()->getArgument(0);
    if (!Op->getNumOperands() || Op->getOperand(0) == Arg)
      return failure();
    Op->setOperand(0, Arg);
    Rewriter.notifyOpModified(Op);
    return success();
  }
};

/// Appends a constant after a std.return, which then is no longer the
/// last op of its block; the return itself is what fails.
struct ConstantAfterReturn : RewritePattern {
  ConstantAfterReturn() : RewritePattern("std.return") {}
  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    if (Op->getNextNode() || !Op->getNumOperands())
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState State(*Ctx, Ctx->resolveOpDef("std.constant"),
                         Op->getLoc());
    State.addAttribute("value", Ctx->getFloatAttr(0.0, 32));
    State.ResultTypes = {Ctx->getFloatType(32)};
    Rewriter.setInsertionPointAfter(Op);
    Rewriter.createOp(State);
    return success();
  }
};

//===----------------------------------------------------------------------===//
// The differential
//===----------------------------------------------------------------------===//

struct PipelineResult {
  bool Ok;
  std::string Printed;
  std::string Diagnostics;
};

class IncrementalVerifyDifferentialTest : public ::testing::Test {
protected:
  IncrementalVerifyDifferentialTest() : Diags(&SrcMgr) {
    for (const char *Name : {"cmath", "arith", "scf", "complex", "math"}) {
      auto M = loadIRDLFile(Ctx,
                            std::string(IRDL_DIALECTS_DIR) + "/" + Name +
                                ".irdl",
                            SrcMgr, Diags);
      EXPECT_NE(M, nullptr) << Diags.renderAll();
      Loaded.push_back(std::move(M));
    }
  }

  /// Parses \p Text and runs conorm, or the patterns \p Mutate adds, then
  /// dce, with verify-each. \p Oracle wraps every pass in FullVerifyPass.
  PipelineResult
  runPipeline(const std::string &Text, bool Oracle,
              const std::function<void(RewritePatternSet &)> &Mutate) {
    SourceMgr SM;
    DiagnosticEngine ParseDiags(&SM);
    OwningOpRef M = parseSourceString(Ctx, Text, SM, ParseDiags, "input.mlir");
    EXPECT_TRUE(static_cast<bool>(M)) << ParseDiags.renderAll();
    if (!M)
      return {false, "", ""};
    auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
    if (Mutate)
      Mutate(*Patterns);
    else
      Patterns->add<ConormPattern>();
    std::vector<std::unique_ptr<Pass>> Passes;
    Passes.push_back(std::make_unique<GreedyRewritePass>("conorm", Patterns));
    Passes.push_back(std::make_unique<DeadCodeEliminationPass>(
        std::vector<std::string>{}, /*AssumeRegisteredOpsPure=*/true));
    PassManager PM(&Ctx);
    for (std::unique_ptr<Pass> &P : Passes)
      if (Oracle)
        PM.addPass<FullVerifyPass>(std::move(P));
      else
        PM.addPass<ExpectLocalizedPass>(std::move(P));
    DiagnosticEngine PipelineDiags(&SM);
    bool Ok = succeeded(PM.run(M.get(), PipelineDiags));
    return {Ok, printOpToString(M.get()), PipelineDiags.renderAll()};
  }

  /// Runs both ways and requires identical results; returns them.
  PipelineResult
  expectSameBothWays(const std::string &Text,
                     const std::function<void(RewritePatternSet &)> &Mutate =
                         nullptr) {
    PipelineResult Changes = runPipeline(Text, /*Oracle=*/false, Mutate);
    PipelineResult Full = runPipeline(Text, /*Oracle=*/true, Mutate);
    EXPECT_EQ(Changes.Ok, Full.Ok);
    EXPECT_EQ(Changes.Diagnostics, Full.Diagnostics);
    EXPECT_EQ(Changes.Printed, Full.Printed);
    return Changes;
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<IRDLModule>> Loaded;
};

std::string conormExample() {
  std::ifstream In(std::string(IRDL_DIALECTS_DIR) +
                   "/../examples/testdata/conorm.mlir");
  std::stringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

TEST_F(IncrementalVerifyDifferentialTest, ConormAndDceAgreeWithFullVerify) {
  std::vector<std::string> Inputs = {conormExample()};
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Inputs.push_back(conormModule(Seed, 2 + Seed % 5));
  for (uint64_t Seed = 1; Seed <= 12; ++Seed)
    Inputs.push_back(largeModule(Seed, 2 + Seed % 4, 30 + 5 * Seed));
  for (const std::string &Text : Inputs) {
    SCOPED_TRACE(Text.substr(0, 200));
    PipelineResult R = expectSameBothWays(Text);
    EXPECT_TRUE(R.Ok) << R.Diagnostics;
  }
}

TEST_F(IncrementalVerifyDifferentialTest, CreatedOpViolatingItsConstraint) {
  PipelineResult R = expectSameBothWays(
      conormModule(3, 3),
      [](RewritePatternSet &P) { P.add<MulWithBadResultType>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("result 'res' of 'cmath.mul'"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, OpInsertedBeforeItsOperand) {
  PipelineResult R = expectSameBothWays(
      largeModule(5, 2, 40),
      [](RewritePatternSet &P) { P.add<SqrtBeforeDef>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("operand #0 of 'math.sqrt' does not "
                               "dominate its use"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, RegionTerminatorErasedOrReplaced) {
  for (bool Replace : {false, true}) {
    SCOPED_TRACE(Replace ? "replaced" : "erased");
    PipelineResult R = expectSameBothWays(
        largeModule(7, 2, 40),
        [&](RewritePatternSet &P) { P.add<BreakYield>(Replace); });
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Diagnostics.find("must end with 'scf.yield'"),
              std::string::npos)
        << R.Diagnostics;
  }
}

TEST_F(IncrementalVerifyDifferentialTest, ReplacementOfAnotherTypeFailsUser) {
  // The mulf feeds an addf in a generated module, and the std.return of
  // @conorm in the example: the addf, and the func checking what its
  // return returns, are what fail.
  PipelineResult R = expectSameBothWays(
      conormModule(4, 2),
      [](RewritePatternSet &P) { P.add<ReplaceWithOtherType>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("std.addf"), std::string::npos)
      << R.Diagnostics;

  R = expectSameBothWays(conormExample(), [](RewritePatternSet &P) {
    P.add<ReplaceWithOtherType>();
  });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("does not match function result type"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, CreatedOpWithABadBody) {
  PipelineResult R = expectSameBothWays(
      largeModule(9, 2, 30),
      [](RewritePatternSet &P) { P.add<LoopWithBadBody>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("operand 'c' of 'cmath.norm'"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, TerminatorModifiedInPlace) {
  PipelineResult R = expectSameBothWays(
      conormModule(8, 2),
      [](RewritePatternSet &P) { P.add<ReturnFirstArgument>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("does not match function result type"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, OpAppendedAfterTerminator) {
  PipelineResult R = expectSameBothWays(
      conormModule(6, 2),
      [](RewritePatternSet &P) { P.add<ConstantAfterReturn>(); });
  EXPECT_FALSE(R.Ok);
  EXPECT_NE(R.Diagnostics.find("terminator 'std.return' must be the last "
                               "operation of its block"),
            std::string::npos)
      << R.Diagnostics;
}

TEST_F(IncrementalVerifyDifferentialTest, MetricsTimeModuleAndFunctionsOnly) {
  // With collection on, one verify of a 64-function module records one
  // histogram sample for the module and one per function, and checks
  // each op once.
  SourceMgr SM;
  DiagnosticEngine D(&SM);
  OwningOpRef M = parseSourceString(Ctx, largeModule(11, 64, 60), SM, D);
  ASSERT_TRUE(static_cast<bool>(M)) << D.renderAll();
  uint64_t NumOps = 0;
  M->walk([&](Operation *) { ++NumOps; });

  ScopedMetricsEnabled Metrics;
  Histogram &FuncLatency = MetricsRegistry::instance().getHistogram(
      "irdl_verify_function_duration_ns",
      "wall time verifying one isolated-from-above operation");
  Counter &OpsVerified =
      MetricsRegistry::instance().getCounter("irdl_verify_ops_total", "");
  uint64_t SamplesBefore = FuncLatency.snapshot().Count;
  uint64_t OpsBefore = OpsVerified.get();
  ASSERT_TRUE(succeeded(verifyOp(M.get(), D))) << D.renderAll();
  EXPECT_EQ(FuncLatency.snapshot().Count - SamplesBefore, 65u);
  EXPECT_EQ(OpsVerified.get() - OpsBefore, NumOps);
}

} // namespace
