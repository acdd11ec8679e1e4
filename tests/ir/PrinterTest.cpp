//===- PrinterTest.cpp - Textual printing ------------------------------===//

#include "ir/Context.h"
#include "ir/Builder.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class PrinterTest : public ::testing::Test {
protected:
  IRContext Ctx;
};

TEST_F(PrinterTest, BuiltinTypeSugar) {
  EXPECT_EQ(Ctx.getFloatType(32).str(), "f32");
  EXPECT_EQ(Ctx.getFloatType(16).str(), "f16");
  EXPECT_EQ(Ctx.getIndexType().str(), "index");
  EXPECT_EQ(Ctx.getIntegerType(32).str(), "i32");
  EXPECT_EQ(Ctx.getIntegerType(8, Signedness::Signed).str(), "si8");
  EXPECT_EQ(Ctx.getIntegerType(16, Signedness::Unsigned).str(), "ui16");
}

TEST_F(PrinterTest, FunctionTypeSyntax) {
  Type FT = Ctx.getFunctionType({Ctx.getIntegerType(32)},
                                {Ctx.getFloatType(32)});
  EXPECT_EQ(FT.str(), "(i32) -> f32");
  Type Multi = Ctx.getFunctionType({}, {Ctx.getFloatType(32),
                                        Ctx.getFloatType(64)});
  EXPECT_EQ(Multi.str(), "() -> (f32, f64)");
}

TEST_F(PrinterTest, FunctionResultOfFunctionTypeRoundTrips) {
  Type F32 = Ctx.getFloatType(32);
  Type Inner = Ctx.getFunctionType({F32}, {F32});
  Type Middle = Ctx.getFunctionType({F32}, {Inner});
  Type Outer = Ctx.getFunctionType({}, {Middle});
  // A function type that is a single result keeps its parentheses.
  EXPECT_EQ(Outer.str(), "() -> ((f32) -> ((f32) -> f32))");
  for (Type T : {Inner, Middle, Outer,
                 Ctx.getFunctionType({Middle}, {Middle, F32})}) {
    DiagnosticEngine Diags;
    Type Reparsed = parseTypeString(Ctx, T.str(), Diags);
    EXPECT_EQ(Reparsed, T) << T.str() << "\n" << Diags.renderAll();
  }
}

TEST_F(PrinterTest, FuncReturningFunctionTypeRoundTrips) {
  const char *Source = R"(std.func @curry(%x: f32) -> ((f32) -> f32) {
  %f = "test.closure"(%x) : (f32) -> ((f32) -> f32)
  std.return %f : (f32) -> f32
})";
  Ctx.getOrCreateDialect("test")->addOp("closure");
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef M = parseSourceString(Ctx, Source, SrcMgr, Diags);
  ASSERT_TRUE(M) << Diags.renderAll();
  std::string Printed = printOpToString(M.get());
  OwningOpRef Again = parseSourceString(Ctx, Printed, SrcMgr, Diags);
  ASSERT_TRUE(Again) << Printed << "\n" << Diags.renderAll();
  EXPECT_EQ(printOpToString(Again.get()), Printed);
  EXPECT_NE(Printed.find("-> ((f32) -> f32) {"), std::string::npos)
      << Printed;
}

TEST_F(PrinterTest, DialectTypeWithParams) {
  Dialect *D = Ctx.getOrCreateDialect("cmath");
  TypeDefinition *Complex = D->addType("complex");
  Complex->setParamNames({"elementType"});
  Type C = Ctx.getType(Complex, {ParamValue(Ctx.getFloatType(32))});
  EXPECT_EQ(C.str(), "!cmath.complex<f32>");
  TypeDefinition *Empty = D->addType("unitary");
  EXPECT_EQ(Ctx.getType(Empty).str(), "!cmath.unitary");
}

TEST_F(PrinterTest, AttrSugar) {
  EXPECT_EQ(Ctx.getIntegerAttr(3, 32).str(), "3 : i32");
  EXPECT_EQ(Ctx.getIntegerAttr(-5, 8, Signedness::Signed).str(),
            "-5 : si8");
  EXPECT_EQ(Ctx.getStringAttr("hi\"x").str(), "\"hi\\\"x\"");
  EXPECT_EQ(Ctx.getUnitAttr().str(), "unit");
  EXPECT_EQ(Ctx.getTypeAttr(Ctx.getFloatType(32)).str(), "f32");
  EXPECT_EQ(Ctx.getArrayAttr({Ctx.getIntegerAttr(1, 32),
                              Ctx.getIntegerAttr(2, 32)})
                .str(),
            "[1 : i32, 2 : i32]");
}

TEST_F(PrinterTest, FloatAttrPrinting) {
  EXPECT_EQ(Ctx.getFloatAttr(2.5, 32).str(), "2.5 : f32");
  EXPECT_EQ(Ctx.getFloatAttr(1.0, 64).str(), "1.0 : f64");
}

TEST_F(PrinterTest, ParamPrinting) {
  EXPECT_EQ(ParamValue(IntVal{32, Signedness::Signless, 9}).str(),
            "9 : i32");
  EXPECT_EQ(ParamValue(std::string("s")).str(), "\"s\"");
  EXPECT_EQ(ParamValue(EnumVal{Ctx.getSignednessEnum(), 1}).str(),
            "builtin.signedness.Signed");
  EXPECT_EQ(ParamValue(OpaqueVal{"location", "a.c:1:2"}).str(),
            "opaque<\"location\", \"a.c:1:2\">");
  std::vector<ParamValue> Elems;
  Elems.emplace_back(IntVal{32, {}, 1});
  EXPECT_EQ(ParamValue(std::move(Elems)).str(), "[1 : i32]");
  // Attribute params print canonically, not with sugar.
  EXPECT_EQ(ParamValue(Ctx.getIntegerAttr(3, 32)).str(),
            "#builtin.int<3 : i32>");
}

TEST_F(PrinterTest, GenericOpForm) {
  Dialect *D = Ctx.getOrCreateDialect("test");
  OpDefinition *Def = D->addOp("source");
  OpDefinition *Sink = D->addOp("sink");

  Block &B = *Block::create(Ctx);
  OpBuilder Builder(&Ctx);
  Builder.setInsertionPointToEnd(&B);
  OperationState S1(Ctx, OperationName(Def));
  S1.ResultTypes.push_back(Ctx.getFloatType(32));
  Operation *Src = Builder.create(S1);
  OperationState S2(Ctx, OperationName(Sink));
  S2.Operands.push_back(Src->getResult(0));
  Operation *Snk = Builder.create(S2);

  EXPECT_EQ(Src->str(), "%0 = \"test.source\"() : () -> (f32)");
  EXPECT_EQ(Snk->str(), "\"test.sink\"(%0) : (f32) -> ()");
  B.destroy();
}

TEST_F(PrinterTest, MultiResultNaming) {
  Dialect *D = Ctx.getOrCreateDialect("test");
  OpDefinition *Def = D->addOp("pair");
  OpDefinition *Use = D->addOp("use");
  Block &B = *Block::create(Ctx);
  OpBuilder Builder(&Ctx);
  Builder.setInsertionPointToEnd(&B);
  OperationState S(Ctx, OperationName(Def));
  S.ResultTypes = {Ctx.getFloatType(32), Ctx.getIntegerType(1)};
  Operation *P = Builder.create(S);
  OperationState U(Ctx, OperationName(Use));
  U.Operands = {P->getResult(1), P->getResult(0)};
  Operation *UOp = Builder.create(U);

  EXPECT_EQ(P->str(), "%0:2 = \"test.pair\"() : () -> (f32, i1)");
  EXPECT_EQ(UOp->str(), "\"test.use\"(%0#1, %0#0) : (i1, f32) -> ()");
  B.destroy();
}

TEST_F(PrinterTest, AttrDictAndUnitElision) {
  Dialect *D = Ctx.getOrCreateDialect("test");
  OpDefinition *Def = D->addOp("attrs");
  OperationState S(Ctx, OperationName(Def));
  S.addAttribute("b", Ctx.getIntegerAttr(1, 32));
  S.addAttribute("a", Ctx.getUnitAttr());
  Operation *Op = Operation::create(S);
  EXPECT_EQ(Op->str(), "\"test.attrs\"() {a, b = 1 : i32} : () -> ()");
  Op->destroy();
}

TEST_F(PrinterTest, RegionPrinting) {
  Dialect *D = Ctx.getOrCreateDialect("test");
  OpDefinition *Wrap = D->addOp("wrap");
  OpDefinition *Inner = D->addOp("inner");
  OperationState S(Ctx, OperationName(Wrap));
  Region *R = S.addRegion();
  Block *B = Block::create(Ctx);
  R->push_back(B);
  OperationState IS(Ctx, OperationName(Inner));
  B->push_back(Operation::create(IS));
  Operation *Op = Operation::create(S);
  EXPECT_EQ(Op->str(), "\"test.wrap\"() ({\n"
                       "  \"test.inner\"() : () -> ()\n"
                       "}) : () -> ()");
  Op->destroy();
}

TEST_F(PrinterTest, FloatLiteralRoundTrippable) {
  std::string Literal;
  printFloatLiteral(0.1, Literal);
  EXPECT_EQ(std::strtod(Literal.c_str(), nullptr), 0.1);
}

} // namespace
