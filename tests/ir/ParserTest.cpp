//===- ParserTest.cpp - Textual IR parsing -----------------------------===//

#include "ir/Context.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class ParserTest : public ::testing::Test {
protected:
  ParserTest() : Diags(&SrcMgr) {
    Dialect *D = Ctx.getOrCreateDialect("test");
    OpDefinition *Source = D->addOp("source");
    (void)Source;
    D->addOp("sink");
    D->addOp("pair");
    TypeDefinition *Complex =
        Ctx.getOrCreateDialect("cmath")->addType("complex");
    Complex->setParamNames({"elementType"});
  }

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

TEST_F(ParserTest, ParseTypes) {
  EXPECT_EQ(parseTypeString(Ctx, "f32", Diags), Ctx.getFloatType(32));
  EXPECT_EQ(parseTypeString(Ctx, "i32", Diags), Ctx.getIntegerType(32));
  EXPECT_EQ(parseTypeString(Ctx, "si8", Diags),
            Ctx.getIntegerType(8, Signedness::Signed));
  EXPECT_EQ(parseTypeString(Ctx, "index", Diags), Ctx.getIndexType());
  EXPECT_EQ(parseTypeString(Ctx, "(i32) -> f32", Diags),
            Ctx.getFunctionType({Ctx.getIntegerType(32)},
                                {Ctx.getFloatType(32)}));
}

TEST_F(ParserTest, ParseDialectType) {
  Type T = parseTypeString(Ctx, "!cmath.complex<f32>", Diags);
  ASSERT_TRUE(static_cast<bool>(T));
  EXPECT_EQ(T.getName(), "cmath.complex");
  EXPECT_EQ(T.getParam("elementType").getType(), Ctx.getFloatType(32));
  // Nested bang form is accepted too.
  EXPECT_EQ(parseTypeString(Ctx, "!cmath.complex<!f32>", Diags), T);
}

TEST_F(ParserTest, ParseTypeErrors) {
  EXPECT_FALSE(static_cast<bool>(parseTypeString(Ctx, "!no.such", Diags)));
  EXPECT_TRUE(Diags.hadError());
  Diags.clear();
  EXPECT_FALSE(static_cast<bool>(parseTypeString(Ctx, "f32 f32", Diags)));
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(ParserTest, ParseAttributes) {
  EXPECT_EQ(parseAttrString(Ctx, "3 : i32", Diags),
            Ctx.getIntegerAttr(3, 32));
  EXPECT_EQ(parseAttrString(Ctx, "-4 : si8", Diags),
            Ctx.getIntegerAttr(-4, 8, Signedness::Signed));
  EXPECT_EQ(parseAttrString(Ctx, "7", Diags), Ctx.getIntegerAttr(7, 64));
  EXPECT_EQ(parseAttrString(Ctx, "2.5 : f32", Diags),
            Ctx.getFloatAttr(2.5, 32));
  EXPECT_EQ(parseAttrString(Ctx, "\"s\"", Diags), Ctx.getStringAttr("s"));
  EXPECT_EQ(parseAttrString(Ctx, "unit", Diags), Ctx.getUnitAttr());
  EXPECT_EQ(parseAttrString(Ctx, "true", Diags), Ctx.getIntegerAttr(1, 1));
  EXPECT_EQ(parseAttrString(Ctx, "f32", Diags),
            Ctx.getTypeAttr(Ctx.getFloatType(32)));
  EXPECT_EQ(parseAttrString(Ctx, "[1 : i32, 2 : i32]", Diags),
            Ctx.getArrayAttr({Ctx.getIntegerAttr(1, 32),
                              Ctx.getIntegerAttr(2, 32)}));
}

TEST_F(ParserTest, Int64ExtremesRoundTrip) {
  const char *Src = R"(builtin.module {
  %0 = std.constant -9223372036854775808 : i64
  %1 = std.constant 9223372036854775807 : i64
})";
  OwningOpRef Module = parse(Src);
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  EXPECT_EQ(printOpToString(Module.get()), Src);
  EXPECT_EQ(parseAttrString(Ctx, "-9223372036854775808", Diags),
            Ctx.getIntegerAttr(INT64_MIN));
  EXPECT_EQ(parseAttrString(Ctx, "9223372036854775807", Diags),
            Ctx.getIntegerAttr(INT64_MAX));
}

TEST_F(ParserTest, ParseCanonicalAttrForm) {
  EXPECT_EQ(parseAttrString(Ctx, "#builtin.int<3 : i32>", Diags),
            Ctx.getIntegerAttr(3, 32));
  EXPECT_EQ(parseAttrString(Ctx, "#builtin.string<\"x\">", Diags),
            Ctx.getStringAttr("x"));
}

TEST_F(ParserTest, ParseSimpleModule) {
  OwningOpRef Module = parse(R"(
    %0 = "test.source"() : () -> (f32)
    "test.sink"(%0) : (f32) -> ()
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  Block &Body = Module->getRegion(0).front();
  EXPECT_EQ(Body.getNumOps(), 2u);
  EXPECT_EQ(Body.front().getName().str(), "test.source");
  EXPECT_EQ(Body.back().getOperand(0), Body.front().getResult(0));
}

TEST_F(ParserTest, UnknownOpRejectedByDefault) {
  OwningOpRef Module = parse(R"("nope.op"() : () -> ())");
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(ParserTest, UnknownOpAllowedWhenOptedIn) {
  Ctx.setAllowUnregisteredOps(true);
  OwningOpRef Module = parse(R"("nope.op"() : () -> ())");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  EXPECT_FALSE(Module->getRegion(0).front().front().isRegistered());
}

TEST_F(ParserTest, MultiResultBindingAndUse) {
  OwningOpRef Module = parse(R"(
    %p:2 = "test.pair"() : () -> (f32, i1)
    "test.sink"(%p#1) : (i1) -> ()
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  Block &Body = Module->getRegion(0).front();
  EXPECT_EQ(Body.back().getOperand(0), Body.front().getResult(1));
}

TEST_F(ParserTest, ResultCountMismatch) {
  OwningOpRef Module = parse(R"(
    %p:3 = "test.pair"() : () -> (f32, i1)
  )");
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(ParserTest, UseOfUndefinedValue) {
  OwningOpRef Module = parse(R"(
    "test.sink"(%ghost) : (f32) -> ()
  )");
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(ParserTest, RedefinitionRejected) {
  OwningOpRef Module = parse(R"(
    %0 = "test.source"() : () -> (f32)
    %0 = "test.source"() : () -> (f32)
  )");
  EXPECT_FALSE(static_cast<bool>(Module));
}

TEST_F(ParserTest, OperandTypeMismatch) {
  OwningOpRef Module = parse(R"(
    %0 = "test.source"() : () -> (f32)
    "test.sink"(%0) : (i32) -> ()
  )");
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(ParserTest, BlocksAndSuccessors) {
  OwningOpRef Module = parse(R"(
    std.func @f(%c: i1) {
      "std.cond_br"(%c)[^then, ^else] : (i1) -> ()
    ^then:
      "std.return"() : () -> ()
    ^else:
      "std.return"() : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  Operation &Func = Module->getRegion(0).front().front();
  Region &Body = Func.getRegion(0);
  EXPECT_EQ(Body.getNumBlocks(), 3u);
  Operation *CondBr = Body.front().getTerminator();
  ASSERT_NE(CondBr, nullptr);
  EXPECT_EQ(CondBr->getNumSuccessors(), 2u);
  EXPECT_EQ(CondBr->getSuccessor(0), Body.front().getNextNode());
  DiagnosticEngine VDiags;
  EXPECT_TRUE(succeeded(Module->verify(VDiags))) << VDiags.renderAll();
}

TEST_F(ParserTest, ForwardValueReferenceAcrossBlocks) {
  OwningOpRef Module = parse(R"(
    std.func @f() {
      "std.br"()[^second] : () -> ()
    ^first:
      "test.sink"(%later) : (f32) -> ()
      "std.return"() : () -> ()
    ^second:
      %later = "test.source"() : () -> (f32)
      "std.br"()[^first] : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  DiagnosticEngine VDiags;
  EXPECT_TRUE(succeeded(Module->verify(VDiags))) << VDiags.renderAll();
}

TEST_F(ParserTest, UndefinedBlockIsAnError) {
  OwningOpRef Module = parse(R"(
    std.func @f() {
      "std.br"()[^nowhere] : () -> ()
    }
  )");
  EXPECT_FALSE(static_cast<bool>(Module));
  EXPECT_TRUE(Diags.hadError());
}

// Undefined names are reported in name order, not in use order or hash
// order, so diagnostics stay the same from run to run. Three names each,
// used in an order that is neither name order nor its reverse.
TEST_F(ParserTest, UndefinedNamesReportedInNameOrder) {
  EXPECT_FALSE(static_cast<bool>(parse(R"(std.func @f() {
  %s = std.addf %b, %a : f32
  "test.sink"(%c) : (f32) -> ()
})")));
  EXPECT_EQ(Diags.renderAll(),
            "<input>:2:21: error: use of undefined value %a\n"
            "  %s = std.addf %b, %a : f32\n"
            "                    ^\n"
            "<input>:2:17: error: use of undefined value %b\n"
            "  %s = std.addf %b, %a : f32\n"
            "                ^\n"
            "<input>:3:15: error: use of undefined value %c\n"
            "  \"test.sink\"(%c) : (f32) -> ()\n"
            "              ^\n");

  SourceMgr BlockSrcMgr;
  DiagnosticEngine BlockDiags(&BlockSrcMgr);
  EXPECT_FALSE(static_cast<bool>(parseSourceString(Ctx, R"(std.func @f() {
  "std.br"()[^zz] : () -> ()
  "std.br"()[^aa] : () -> ()
  "std.br"()[^mm] : () -> ()
})",
                                                   BlockSrcMgr, BlockDiags)));
  EXPECT_EQ(BlockDiags.renderAll(),
            "<input>:3:14: error: reference to undefined block ^aa\n"
            "  \"std.br\"()[^aa] : () -> ()\n"
            "             ^\n"
            "<input>:4:14: error: reference to undefined block ^mm\n"
            "  \"std.br\"()[^mm] : () -> ()\n"
            "             ^\n"
            "<input>:2:14: error: reference to undefined block ^zz\n"
            "  \"std.br\"()[^zz] : () -> ()\n"
            "             ^\n");
}

TEST_F(ParserTest, ExplicitModuleUnwrapped) {
  OwningOpRef Module = parse(R"(
    module {
      %0 = "test.source"() : () -> (f32)
    }
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  EXPECT_EQ(Module->getName().str(), "builtin.module");
  EXPECT_EQ(Module->getRegion(0).front().getNumOps(), 1u);
}

TEST_F(ParserTest, BlockArgumentsParsed) {
  OwningOpRef Module = parse(R"(
    std.func @f(%x: i1) {
      "std.br"()[^loop] : () -> ()
    ^loop(%v: f32):
      "test.sink"(%v) : (f32) -> ()
      "std.br"()[^loop] : () -> ()
    }
  )");
  ASSERT_TRUE(static_cast<bool>(Module)) << Diags.renderAll();
  Region &Body = Module->getRegion(0).front().front().getRegion(0);
  Block *Loop = Body.front().getNextNode();
  ASSERT_NE(Loop, nullptr);
  EXPECT_EQ(Loop->getNumArguments(), 1u);
  EXPECT_EQ(Loop->getArgument(0).getType(), Ctx.getFloatType(32));
}

/// `%<Prefix>0: f32, ..., %<Prefix><N-1>: f32`.
std::string argList(const std::string &Prefix, unsigned N) {
  std::string Text;
  for (unsigned I = 0; I != N; ++I)
    Text += (I ? ", %" : "%") + Prefix + std::to_string(I) + ": f32";
  return Text;
}

/// One test.sink of each of `%<Prefix>0..<N-1>`, in order.
std::string sinks(const std::string &Prefix, unsigned N) {
  std::string Text;
  for (unsigned I = 0; I != N; ++I)
    Text += "  \"test.sink\"(%" + Prefix + std::to_string(I) +
            ") : (f32) -> ()\n";
  return Text;
}

/// Expects the I-th test.sink of \p B to use argument I of \p ArgBlock.
void expectSinksUseArguments(Block &B, Block &ArgBlock) {
  unsigned I = 0;
  for (Operation &Op : B) {
    if (Op.getName().str() != "test.sink")
      continue;
    ASSERT_LT(I, ArgBlock.getNumArguments());
    EXPECT_EQ(Op.getOperand(0), ArgBlock.getArgument(I)) << "argument " << I;
    ++I;
  }
  EXPECT_EQ(I, ArgBlock.getNumArguments());
}

// Past four arguments a block moves its argument array out of line; the
// parser must not keep Values from before the move.
TEST_F(ParserTest, ManyEntryBlockArguments) {
  for (unsigned N : {5u, 9u, 300u}) {
    OwningOpRef Module =
        parse("std.func @f(" + argList("a", N) + ") {\n" + sinks("a", N) +
              "  \"std.return\"() : () -> ()\n}\n");
    ASSERT_TRUE(static_cast<bool>(Module)) << N << Diags.renderAll();
    Block &Body = Module->getRegion(0).front().front().getRegion(0).front();
    ASSERT_EQ(Body.getNumArguments(), N);
    expectSinksUseArguments(Body, Body);
    DiagnosticEngine VDiags;
    EXPECT_TRUE(succeeded(Module->verify(VDiags))) << VDiags.renderAll();
  }
}

TEST_F(ParserTest, ManyLabelledBlockArguments) {
  // ^args is created by the forward branch before its label is parsed,
  // and ^uses refers to its arguments before they are defined.
  for (unsigned N : {5u, 9u, 300u}) {
    OwningOpRef Module = parse(
        "std.func @f() {\n  \"std.br\"()[^args] : () -> ()\n^uses:\n" +
        sinks("b", N) + "  \"std.return\"() : () -> ()\n^args(" +
        argList("b", N) + "):\n" + sinks("b", N) +
        "  \"std.br\"()[^uses] : () -> ()\n}\n");
    ASSERT_TRUE(static_cast<bool>(Module)) << N << Diags.renderAll();
    Region &Body = Module->getRegion(0).front().front().getRegion(0);
    Block *Uses = Body.front().getNextNode();
    Block *Args = Uses->getNextNode();
    ASSERT_EQ(Args->getNumArguments(), N);
    expectSinksUseArguments(*Uses, *Args);
    expectSinksUseArguments(*Args, *Args);
    DiagnosticEngine VDiags;
    EXPECT_TRUE(succeeded(Module->verify(VDiags))) << VDiags.renderAll();
  }
}

} // namespace
