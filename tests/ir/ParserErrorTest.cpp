//===- ParserErrorTest.cpp - IR parser diagnostics sweep ------------------===//
///
/// Parameterized sweep over malformed IR inputs: each must fail to parse
/// and produce a diagnostic containing the expected fragment (never a
/// crash, never a silent success).

#include "ir/Context.h"
#include "ir/IRParser.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

struct ErrorCase {
  const char *Name;
  const char *Source;
  const char *ExpectedFragment;
};

// Without this gtest prints the struct's raw pointer bytes, which change
// from run to run under ASLR and leak into the test names that ctest
// discovers; print the case name instead so those names are stable.
void PrintTo(const ErrorCase &C, std::ostream *OS) { *OS << C.Name; }

class ParserErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(ParserErrorTest, DiagnosesCleanly) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("test");
  D->addOp("source");
  D->addOp("sink");
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);

  OwningOpRef M =
      parseSourceString(Ctx, GetParam().Source, SrcMgr, Diags);
  EXPECT_FALSE(static_cast<bool>(M));
  EXPECT_TRUE(Diags.hadError());
  EXPECT_NE(Diags.renderAll().find(GetParam().ExpectedFragment),
            std::string::npos)
      << "diagnostics were:\n"
      << Diags.renderAll();
}

std::string caseName(const ::testing::TestParamInfo<ErrorCase> &Info) {
  return Info.param.Name;
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, ParserErrorTest,
    ::testing::Values(
        ErrorCase{"UnknownOp", R"("zzz.op"() : () -> ())",
                  "unknown operation"},
        ErrorCase{"UnknownType",
                  R"(%0 = "test.source"() : () -> (!zzz.t))",
                  "unknown type"},
        ErrorCase{"UnknownAttr",
                  R"("test.sink"() {a = #zzz.a} : () -> ())",
                  "unknown attribute"},
        ErrorCase{"MissingSignature", R"("test.sink"())",
                  "expected ':' before op signature"},
        ErrorCase{"OperandCountMismatch",
                  R"(%0 = "test.source"() : () -> (f32)
                     "test.sink"(%0) : () -> ())",
                  "does not match signature"},
        ErrorCase{"UndefinedValue",
                  R"("test.sink"(%ghost) : (f32) -> ())",
                  "use of undefined value %ghost"},
        ErrorCase{"Redefinition",
                  R"(%0 = "test.source"() : () -> (f32)
                     %0 = "test.source"() : () -> (f32))",
                  "redefinition of value %0"},
        ErrorCase{"TypeMismatchAtUse",
                  R"(%0 = "test.source"() : () -> (f32)
                     "test.sink"(%0) : (i32) -> ())",
                  "has type f32 but is used as i32"},
        ErrorCase{"ForwardRefTypeMismatch",
                  R"(std.func @f() {
                       "test.sink"(%later) : (f32) -> ()
                       %later = "test.source"() : () -> (i32)
                       std.return
                     })",
                  "does not match forward uses"},
        ErrorCase{"UnboundResults",
                  R"("test.source"() : () -> (f32))",
                  "results must be bound"},
        ErrorCase{"BadResultCount",
                  R"(%r:2 = "test.source"() : () -> (f32))",
                  "1 results but 2 were bound"},
        // Reported at the first use, with a caret under it.
        ErrorCase{"UndefinedBlock",
                  R"(std.func @f() {
                       "std.br"()[^nowhere] : () -> ()
                     })",
                  "<input>:2:35: error: reference to undefined block ^nowhere\n"
                  "                       \"std.br\"()[^nowhere] : () -> ()\n"
                  "                                  ^\n"},
        ErrorCase{"IntegerLiteralWraps",
                  "%0 = std.constant 18446744073709551615 : i8",
                  "integer literal out of range"},
        ErrorCase{"IntegerLiteralAboveInt64",
                  R"("test.sink"() {v = 9223372036854775808} : () -> ())",
                  "integer literal out of range"},
        ErrorCase{"IntegerLiteralBelowInt64",
                  R"("test.sink"() {v = -9223372036854775809} : () -> ())",
                  "integer literal out of range"},
        ErrorCase{"DuplicateBlockLabel",
                  R"(std.func @f() {
                       std.return
                     ^a:
                       std.return
                     ^a:
                       std.return
                     })",
                  "redefinition of block ^a"},
        ErrorCase{"UnterminatedRegion",
                  R"(std.func @f() { std.return)",
                  "unterminated region"},
        ErrorCase{"BadBlockArg",
                  R"(std.func @f() {
                       std.return
                     ^a(%x):
                       std.return
                     })",
                  "expected ':' after block argument"},
        ErrorCase{"BadAttrDict",
                  R"("test.sink"() {3 = 4} : () -> ())",
                  "expected attribute name"},
        ErrorCase{"BadFunctionType",
                  R"(%0 = "test.source"() : () -> ((i32 ->))",
                  "expected"},
        ErrorCase{"CustomOpWithoutSyntax",
                  R"(test.sink %x)", "no custom syntax"},
        ErrorCase{"BadIntegerWidth",
                  R"(%0 = "test.source"() : () -> (i0))",
                  "unknown type"},
        ErrorCase{"TrailingGarbageInFunc",
                  R"(std.func @f() -> {
                       std.return
                     })",
                  "expected type"}),
    caseName);

/// The self-reference case above actually parses (forward ref resolved by
/// its own definition) but must then fail verification; special-case it.
TEST(ParserErrorSpecial, SelfReferenceFailsVerification) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("test");
  D->addOp("pass");
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef M = parseSourceString(
      Ctx, R"(%a = "test.pass"(%a) : (f32) -> (f32))", SrcMgr, Diags);
  if (!M) {
    // Rejected at parse time is fine too.
    SUCCEED();
    return;
  }
  DiagnosticEngine V;
  EXPECT_TRUE(failed(M->verify(V)));
}

TEST(ParserErrorSpecial, ErrorRecoveryLeaksNothing) {
  // Parse a batch of bad inputs back to back; the orphan-placeholder
  // cleanup must leave the context reusable (exercised under ASAN in the
  // full suite).
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("test");
  D->addOp("sink");
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  const char *BadInputs[] = {
      R"("test.sink"(%ghost) : (f32) -> ())",
      R"(std.func @f() { "std.br"()[^x] : () -> () })",
      R"(%a = )",
      R"(std.func @f(%x: f32) { "test.sink"(%y) : (f32) -> () })",
  };
  for (const char *Src : BadInputs) {
    OwningOpRef M = parseSourceString(Ctx, Src, SrcMgr, Diags);
    EXPECT_FALSE(static_cast<bool>(M));
  }
  // And a good one still parses.
  Diags.clear();
  OwningOpRef Good = parseSourceString(
      Ctx, R"(std.func @ok() { std.return })", SrcMgr, Diags);
  EXPECT_TRUE(static_cast<bool>(Good)) << Diags.renderAll();
}

} // namespace
