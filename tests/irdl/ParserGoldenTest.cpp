//===- ParserGoldenTest.cpp - Byte-exact IR parser diagnostics --------===//
///
/// Each malformed input must fail to parse with exactly the rendered
/// diagnostics recorded here, byte for byte: messages, order, locations
/// and carets. The cases cover what the parser's name tables decide:
/// undefined values and blocks reported in name order per scope, forward
/// references retyped at their definition, redefinitions (also of a
/// `%x#i` result name), forward placeholders that an inner region cannot
/// see, and failing ops (custom-format and nested) after which the parser
/// must be clean for the next parse.

#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

struct GoldenCase {
  const char *Name;
  const char *Source;
  const char *Expected;
};

void PrintTo(const GoldenCase &C, std::ostream *OS) { *OS << C.Name; }

class ParserGoldenTest : public ::testing::TestWithParam<GoldenCase> {
protected:
  ParserGoldenTest() : Diags(&SrcMgr) {
    Spec = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl",
                        SrcMgr, Diags);
    Dialect *D = Ctx.getOrCreateDialect("test");
    for (const char *Name : {"source", "sink", "pair", "wrap"})
      D->addOp(Name);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  std::unique_ptr<IRDLModule> Spec;
};

TEST_P(ParserGoldenTest, RendersExactly) {
  ASSERT_NE(Spec, nullptr) << Diags.renderAll();
  OwningOpRef M = parseSourceString(Ctx, GetParam().Source, SrcMgr, Diags);
  EXPECT_FALSE(static_cast<bool>(M));
  EXPECT_EQ(Diags.renderAll(), GetParam().Expected);

  // Nothing of the failed parse leaks into the next one.
  Diags.clear();
  const char *GoodSource = R"(std.func @f(%p: !cmath.complex<f32>) -> f32 {
  %n = cmath.norm %p : f32
  %x:2 = "test.pair"() : () -> (f32, f32)
  "test.sink"(%x#1, %n) : (f32, f32) -> ()
  std.return %n : f32
})";
  OwningOpRef Good = parseSourceString(Ctx, GoodSource, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(Good)) << Diags.renderAll();
  EXPECT_EQ(printOpToString(Good.get()), R"(builtin.module {
  std.func @f(%0: !cmath.complex<f32>) -> f32 {
    %1 = cmath.norm %0 : f32
    %2:2 = "test.pair"() : () -> (f32, f32)
    "test.sink"(%2#1, %1) : (f32, f32) -> ()
    std.return %1 : f32
  }
})");
}

std::string caseName(const ::testing::TestParamInfo<GoldenCase> &Info) {
  return Info.param.Name;
}

const GoldenCase Cases[] = {
    {"UndefinedValuesInNameOrder",
     R"(std.func @f() {
  "test.sink"(%zeta, %alpha, %mid) : (f32, f32, f32) -> ()
  "test.sink"(%beta) : (i32) -> ()
  std.return
})",
     "<input>:2:22: error: use of undefined value %alpha\n"
     "  \"test.sink\"(%zeta, %alpha, %mid) : (f32, f32, f32) -> ()\n"
     "                     ^\n"
     "<input>:3:15: error: use of undefined value %beta\n"
     "  \"test.sink\"(%beta) : (i32) -> ()\n"
     "              ^\n"
     "<input>:2:30: error: use of undefined value %mid\n"
     "  \"test.sink\"(%zeta, %alpha, %mid) : (f32, f32, f32) -> ()\n"
     "                             ^\n"
     "<input>:2:15: error: use of undefined value %zeta\n"
     "  \"test.sink\"(%zeta, %alpha, %mid) : (f32, f32, f32) -> ()\n"
     "              ^\n"},
    {"UndefinedValuesAcrossScopes",
     R"("test.wrap"() ({
  "test.sink"(%b2) : (f32) -> ()
  "test.wrap"() ({
    "test.sink"(%z) : (f32) -> ()
    "test.sink"(%a1) : (f32) -> ()
  }) : () -> ()
}) : () -> ())",
     "<input>:5:17: error: use of undefined value %a1\n"
     "    \"test.sink\"(%a1) : (f32) -> ()\n"
     "                ^\n"
     "<input>:4:17: error: use of undefined value %z\n"
     "    \"test.sink\"(%z) : (f32) -> ()\n"
     "                ^\n"
     "<input>:2:15: error: use of undefined value %b2\n"
     "  \"test.sink\"(%b2) : (f32) -> ()\n"
     "              ^\n"},
    {"ForwardRefDefinedWithOtherType",
     R"(std.func @f() {
  "test.sink"(%later) : (f32) -> ()
  %later = "test.source"() : () -> (i32)
  std.return
})",
     "<input>:3:3: error: definition of %later with type i32 does not match"
     " forward uses of type f32\n"
     "  %later = \"test.source\"() : () -> (i32)\n"
     "  ^\n"
     "<input>:2:15: error: use of undefined value %later\n"
     "  \"test.sink\"(%later) : (f32) -> ()\n"
     "              ^\n"},
    {"ForwardRefTypeMismatchAtSecondUse",
     R"(std.func @f() {
  "test.sink"(%later) : (f32) -> ()
  "test.sink"(%later) : (i64) -> ()
  %later = "test.source"() : () -> (f32)
  std.return
})",
     "<input>:3:15: error: value %later has type f32 but is used as i64\n"
     "  \"test.sink\"(%later) : (i64) -> ()\n"
     "              ^\n"
     "<input>:2:15: error: use of undefined value %later\n"
     "  \"test.sink\"(%later) : (f32) -> ()\n"
     "              ^\n"},
    {"Redefinition",
     R"(%0 = "test.source"() : () -> (f32)
%1 = "test.source"() : () -> (f32)
%0 = "test.source"() : () -> (f32))",
     "<input>:3:1: error: redefinition of value %0\n"
     "%0 = \"test.source\"() : () -> (f32)\n"
     "^\n"},
    {"RedefinitionOfResultNumber",
     R"(std.func @f(%x#1: f32) {
  %x:2 = "test.pair"() : () -> (f32, f32)
  std.return
})",
     "<input>:2:3: error: redefinition of value %x#1\n"
     "  %x:2 = \"test.pair\"() : () -> (f32, f32)\n"
     "  ^\n"},
    {"RedefinitionByBlockArgument",
     R"(std.func @f() {
  %x:2 = "test.pair"() : () -> (f32, f32)
  "std.br"()[^b] : () -> ()
^b(%y: f32, %x#0: f32):
  std.return
})",
     "<input>:4:13: error: redefinition of value %x#0\n"
     "^b(%y: f32, %x#0: f32):\n"
     "            ^\n"},
    {"ForwardResultNumberRetyped",
     R"(std.func @f() {
  "test.sink"(%x#1) : (i32) -> ()
  %x:2 = "test.pair"() : () -> (f32, f32)
  std.return
})",
     "<input>:3:3: error: definition of %x#1 with type f32 does not match"
     " forward uses of type i32\n"
     "  %x:2 = \"test.pair\"() : () -> (f32, f32)\n"
     "  ^\n"
     "<input>:2:15: error: use of undefined value %x#1\n"
     "  \"test.sink\"(%x#1) : (i32) -> ()\n"
     "              ^\n"},
    {"ForwardPlaceholderUsedFromInnerRegion",
     R"(std.func @f() {
  "test.sink"(%v) : (f32) -> ()
  "test.wrap"() ({
    "test.sink"(%v) : (f32) -> ()
  }) : () -> ()
  %v = "test.source"() : () -> (f32)
  std.return
})",
     "<input>:4:17: error: use of undefined value %v\n"
     "    \"test.sink\"(%v) : (f32) -> ()\n"
     "                ^\n"
     "<input>:2:15: error: use of undefined value %v\n"
     "  \"test.sink\"(%v) : (f32) -> ()\n"
     "              ^\n"},
    {"UndefinedBlocksInNameOrder",
     R"(std.func @f() {
  "std.br"()[^zz] : () -> ()
^entry:
  "std.br"()[^aa] : () -> ()
})",
     "<input>:4:14: error: reference to undefined block ^aa\n"
     "  \"std.br\"()[^aa] : () -> ()\n"
     "             ^\n"
     "<input>:2:14: error: reference to undefined block ^zz\n"
     "  \"std.br\"()[^zz] : () -> ()\n"
     "             ^\n"},
    {"FailingCustomFormatOp",
     R"(std.func @f(%p: !cmath.complex<f32>) -> f32 {
  %n = cmath.norm %p : f32
  %bad = cmath.norm %p : i32
  %m = cmath.norm %p : f32
  std.return %m : f32
})",
     "<input>:3:21: error: cannot infer the type of operand 'c'\n"
     "  %bad = cmath.norm %p : i32\n"
     "                    ^\n"},
    {"FailingCustomFormatOpOperand",
     R"(std.func @f(%p: !cmath.complex<f32>) -> f32 {
  %bad = cmath.norm %p : f64
  %m = cmath.norm %p : f32
  std.return %m : f32
})",
     "<input>:2:21: error: value %p has type !cmath.complex<f32> but is used"
     " as !cmath.complex<f64>\n"
     "  %bad = cmath.norm %p : f64\n"
     "                    ^\n"},
    {"FailingOpInNestedRegion",
     R"("test.wrap"() ({
  %a = "test.source"() : () -> (f32)
  "test.wrap"() ({
    %b = "test.source"() : () -> (f32)
    "test.sink"(%a, %b) : (f32) -> ()
  }) : () -> ()
}) : () -> ())",
     "<input>:5:5: error: operand count (2) does not match signature (1)\n"
     "    \"test.sink\"(%a, %b) : (f32) -> ()\n"
     "    ^\n"}
};

INSTANTIATE_TEST_SUITE_P(Malformed, ParserGoldenTest,
                         ::testing::ValuesIn(Cases), caseName);

} // namespace
