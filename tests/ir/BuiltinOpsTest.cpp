//===- BuiltinOpsTest.cpp - builtin/std op semantics --------------------===//

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

#include <iterator>

using namespace irdl;

namespace {

class BuiltinOpsTest : public ::testing::Test {
protected:
  BuiltinOpsTest() : Diags(&SrcMgr) {}

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  LogicalResult verify(OwningOpRef &M) {
    VDiags.clear();
    return M->verify(VDiags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  DiagnosticEngine VDiags;
};

TEST_F(BuiltinOpsTest, FuncParsesAndVerifies) {
  OwningOpRef M = parse(R"(
    std.func @norm(%a: f32, %b: f32) -> f32 {
      %p = std.mulf %a, %b : f32
      std.return %p : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();

  Operation &Func = M->getRegion(0).front().front();
  EXPECT_EQ(Func.getName().str(), "std.func");
  EXPECT_EQ(Func.getAttr("sym_name").getParams()[0].getString(), "norm");
  Type FT = Func.getAttr("function_type").getParams()[0].getType();
  EXPECT_EQ(FT, Ctx.getFunctionType(
                    {Ctx.getFloatType(32), Ctx.getFloatType(32)},
                    {Ctx.getFloatType(32)}));
}

TEST_F(BuiltinOpsTest, FuncPrintsCustomSyntax) {
  OwningOpRef M = parse(R"(
    std.func @id(%a: f32) -> f32 {
      std.return %a : f32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  std::string Text = printOpToString(M.get());
  EXPECT_NE(Text.find("std.func @id(%0: f32) -> f32 {"), std::string::npos);
  EXPECT_NE(Text.find("std.return %0 : f32"), std::string::npos);
}

TEST_F(BuiltinOpsTest, ReturnTypeMismatchCaughtByFuncVerifier) {
  OwningOpRef M = parse(R"(
    std.func @bad(%a: i32) -> i32 {
      std.return %a : i32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  ASSERT_TRUE(succeeded(verify(M)));

  // Break it: change the declared result type.
  Operation &Func = M->getRegion(0).front().front();
  Func.setAttr("function_type",
               Ctx.getTypeAttr(Ctx.getFunctionType(
                   {Ctx.getIntegerType(32)}, {Ctx.getFloatType(32)})));
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find("does not match function result type"),
            std::string::npos);
}

TEST_F(BuiltinOpsTest, MulfRequiresMatchingFloatTypes) {
  OwningOpRef M = parse(R"(
    std.func @bad(%a: i32) -> i32 {
      std.return %a : i32
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M));
  // Build a mulf over integers by hand (the custom parser would reject the
  // types only at verification).
  Block &Body = M->getRegion(0).front().front().getRegion(0).front();
  Value Arg = Body.getArgument(0);
  OperationState S(Ctx, Ctx.resolveOpDef("std.mulf"));
  S.Operands = {Arg, Arg};
  S.ResultTypes = {Arg.getType()};
  Body.push_front(Operation::create(S));
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find("floating-point"), std::string::npos);
}

TEST_F(BuiltinOpsTest, ConstantTypesChecked) {
  OwningOpRef M = parse(R"(
    %c = std.constant 2.5 : f32
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  Operation &C = M->getRegion(0).front().front();
  EXPECT_EQ(C.getResult(0).getType(), Ctx.getFloatType(32));

  // Mismatched result type trips the verifier.
  C.getResult(0).setType(Ctx.getFloatType(64));
  EXPECT_TRUE(failed(verify(M)));
}

TEST_F(BuiltinOpsTest, IntegerConstant) {
  OwningOpRef M = parse(R"(%c = std.constant 42 : i32)");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  Operation &C = M->getRegion(0).front().front();
  EXPECT_EQ(C.getResult(0).getType(), Ctx.getIntegerType(32));
  EXPECT_EQ(C.getAttr("value"), Ctx.getIntegerAttr(42, 32));
}

TEST_F(BuiltinOpsTest, IntegerConstantMustFitItsType) {
  // siN holds [-2^(N-1), 2^(N-1)-1], uiN holds [0, 2^N-1], and a signless
  // iN takes either reading.
  for (const char *Bad : {"999 : i1", "-5 : ui8", "128 : si8", "256 : i8",
                          "-129 : i8", "2 : ui1", "-2 : i1"}) {
    OwningOpRef M = parse(std::string("%c = std.constant ") + Bad);
    ASSERT_TRUE(static_cast<bool>(M)) << Bad << ": " << Diags.renderAll();
    EXPECT_TRUE(failed(verify(M))) << Bad;
  }
  OwningOpRef M = parse("%c = std.constant 999 : i1");
  ASSERT_TRUE(static_cast<bool>(M));
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find(
                "integer constant 999 does not fit its type i1"),
            std::string::npos)
      << VDiags.renderAll();

  for (const char *Good :
       {"255 : i8", "-128 : si8", "255 : ui8", "-128 : i8", "127 : si8",
        "0 : ui1", "1 : i1", "-1 : i1", "-1 : si1",
        "9223372036854775807 : ui64", "-9223372036854775808 : si64",
        "-9223372036854775808 : i128"}) {
    OwningOpRef M = parse(std::string("%c = std.constant ") + Good);
    ASSERT_TRUE(static_cast<bool>(M)) << Good << ": " << Diags.renderAll();
    EXPECT_TRUE(succeeded(verify(M))) << Good << ": " << VDiags.renderAll();
  }
}

TEST_F(BuiltinOpsTest, VerificationInternsNoTypes) {
  // Constants of every kind and a cond_br: their verifiers compare the
  // result and condition types in place instead of building the types
  // they expect.
  OwningOpRef M = parse(R"(
    std.func @f(%c: i1) -> f64 {
      %a = std.constant 1.5 : f16
      %b = std.constant 7 : si8
      %d = std.constant 9 : ui64
      "std.cond_br"(%c)[^x, ^y] : (i1) -> ()
    ^x:
      %e = std.constant 2.0 : f64
      std.return %e : f64
    ^y:
      %g = std.constant 3.0 : f64
      std.return %g : f64
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  size_t Before = Ctx.getNumUniquedTypes();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  EXPECT_EQ(Ctx.getNumUniquedTypes(), Before);

  // A mismatch is still caught, still without interning: no i17 type
  // exists, and checking the constant against its i17 value makes none.
  Operation &Si8 = *std::next(M->getRegion(0).front().front()
                                  .getRegion(0).front().begin(), 1);
  Si8.setAttr("value", Ctx.getIntegerAttr(7, 17));
  Before = Ctx.getNumUniquedTypes();
  EXPECT_TRUE(failed(verify(M)));
  EXPECT_NE(VDiags.renderAll().find("constant result type does not match"),
            std::string::npos);
  EXPECT_EQ(Ctx.getNumUniquedTypes(), Before);
}

TEST_F(BuiltinOpsTest, ModuleVerifier) {
  OwningOpRef M = parse("module {\n}");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  EXPECT_EQ(M->getName().str(), "builtin.module");
}

TEST_F(BuiltinOpsTest, ReturnIsTerminator) {
  const OpDefinition *Def = Ctx.resolveOpDef("std.return");
  ASSERT_NE(Def, nullptr);
  EXPECT_TRUE(Def->isTerminator());
  EXPECT_EQ(Def->getNumSuccessors(), 0u);
}

TEST_F(BuiltinOpsTest, VoidFunction) {
  OwningOpRef M = parse(R"(
    std.func @nothing() {
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(M))) << VDiags.renderAll();
  std::string Text = printOpToString(M.get());
  EXPECT_NE(Text.find("std.func @nothing() {"), std::string::npos);
}

TEST_F(BuiltinOpsTest, FuncRequiresAttrs) {
  OperationState S(Ctx, Ctx.resolveOpDef("std.func"));
  S.addRegion();
  Operation *Func = Operation::create(S);
  DiagnosticEngine V;
  EXPECT_TRUE(failed(Func->verify(V)));
  EXPECT_NE(V.renderAll().find("sym_name"), std::string::npos);
  Func->destroy();
}

} // namespace
