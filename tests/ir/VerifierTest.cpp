//===- VerifierTest.cpp - Structural verification ----------------------===//

#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "ir/Block.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>

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
  // is a same-block dominance query; none may walk the block.
  auto AddUsers = [&](OwningOpRef &M, unsigned NumUsers) {
    Block &Body = M->getRegion(0).front();
    Value Def = Body.front().getResult(0);
    for (unsigned I = 0; I != NumUsers; ++I) {
      OperationState S(Ctx, Ctx.resolveOpDef("test.sink"));
      S.Operands = {Def};
      Body.push_back(Operation::create(S));
    }
  };
  auto VerifySeconds = [&](OwningOpRef &M) {
    auto Begin = std::chrono::steady_clock::now();
    EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         Begin)
        .count();
  };
  OwningOpRef M20k = parse(R"(%0 = "test.source"() : () -> (f32))");
  OwningOpRef M40k = parse(R"(%0 = "test.source"() : () -> (f32))");
  ASSERT_TRUE(M20k && M40k) << Diags.renderAll();
  AddUsers(M20k, 20000);
  AddUsers(M40k, 40000);
  // The minimum of 3 runs of each, interleaved so a burst of load on the
  // host does not land on one size only.
  double T20k = VerifySeconds(M20k);
  double T40k = VerifySeconds(M40k);
  for (int Run = 1; Run != 3; ++Run) {
    T20k = std::min(T20k, VerifySeconds(M20k));
    T40k = std::min(T40k, VerifySeconds(M40k));
  }
  EXPECT_LE(T40k, 2.5 * T20k)
      << "20k ops: " << T20k << " s, 40k ops: " << T40k << " s";
}

TEST_F(VerifierTest, IsolatedFromAbove) {
  OwningOpRef M = parse(R"(
    %x = "test.source"() : () -> (f32)
    std.func @f(%p: f32) {
      "test.sink"(%p) : (f32) -> ()
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  Operation *Func = nullptr;
  M->walk([&](Operation *Op) {
    if (Op->getName().str() == "std.func")
      Func = Op;
  });
  ASSERT_NE(Func, nullptr);
  // The func's body only reaches its own block arguments.
  EXPECT_TRUE(Func->isIsolatedFromAbove());
  // The module's body reaches nothing outside the module.
  EXPECT_TRUE(M->isIsolatedFromAbove());

  // An op whose region uses a value defined outside it is not isolated.
  Operation &Source = M->getRegion(0).front().front();
  OperationState WrapState(Ctx, Ctx.resolveOpDef("test.wrap"));
  Region *R = WrapState.addRegion();
  Block *B = Block::create(Ctx);
  R->push_back(B);
  OperationState SinkState(Ctx, Ctx.resolveOpDef("test.sink"));
  SinkState.Operands = {Source.getResult(0)};
  B->push_back(Operation::create(SinkState));
  Operation *Wrap = Operation::create(WrapState);
  EXPECT_FALSE(Wrap->isIsolatedFromAbove());
  Wrap->erase();
}

} // namespace
