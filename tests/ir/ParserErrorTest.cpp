//===- ParserErrorTest.cpp - IR parser diagnostics sweep ------------------===//
///
/// Parameterized sweep over malformed IR inputs: each must fail to parse
/// and produce a diagnostic containing the expected fragment (never a
/// crash, never a silent success).

#include "common/TokenStreamHash.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"

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

// The cases keep the indentation they had as arguments: the raw strings'
// continuation lines are part of the inputs.
const ErrorCase ErrorCases[] = {
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
                  "expected type"}};

INSTANTIATE_TEST_SUITE_P(Malformed, ParserErrorTest,
                         ::testing::ValuesIn(ErrorCases), caseName);

/// The IR lexer's token streams over the malformed inputs above (see
/// TokenStreamHash.h).
TEST(TokenStreamGolden, MalformedIR) {
  Fnv1a All;
  for (const ErrorCase &C : ErrorCases)
    All.word(tokenStreamHash(C.Source));
  EXPECT_EQ(All.get(), 0x53e02b6f62512d45ull)
      << "0x" << std::hex << All.get();
}

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

/// \p Depth regions nested inside one another, the innermost one holding
/// \p Inner.
std::string nestedRegions(unsigned Depth, const std::string &Inner) {
  std::string Src;
  for (unsigned I = 0; I != Depth; ++I)
    Src += "\"test.wrap\"() ({\n";
  Src += Inner + "\n";
  for (unsigned I = 0; I != Depth; ++I)
    Src += "}) : () -> ()\n";
  return Src;
}

/// An attribute nested \p Depth deep. An array attribute takes two
/// levels, itself and its element list, so an odd depth ends in an integer
/// and an even one in an empty array.
std::string nestedArrays(unsigned Depth) {
  return "\"test.sink\"() {a = " + std::string(Depth / 2, '[') +
         (Depth % 2 ? "1" : "") + std::string(Depth / 2, ']') +
         "} : () -> ()";
}

/// A type nested \p Depth deep: `test.box` types around f32.
std::string nestedBoxes(unsigned Depth) {
  std::string T = "f32";
  for (unsigned I = 1; I != Depth; ++I)
    T = "!test.box<" + T + ">";
  return T;
}

/// A type nested 2 * \p Arrows + 1 deep: function types taking function
/// types, each one level for itself and one for its input and result
/// lists.
std::string nestedFunctions(unsigned Arrows) {
  std::string T = "f32";
  for (unsigned I = 0; I != Arrows; ++I)
    T = "(" + T + ") -> f32";
  return T;
}

/// An op whose result has type \p T.
std::string resultOfType(const std::string &T) {
  return "%a = \"test.source\"() : () -> (" + T + ")";
}

class ParserNestingTest : public ::testing::Test {
protected:
  ParserNestingTest() : Diags(&SrcMgr) {
    Dialect *D = Ctx.getOrCreateDialect("test");
    for (const char *Name : {"wrap", "sink", "source"})
      D->addOp(Name);
    D->addType("box");
  }

  OwningOpRef parse(const std::string &Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  /// Parses, verifies, prints and reparses \p Src, which must be valid.
  void roundTrip(const std::string &Src) {
    OwningOpRef M = parse(Src);
    ASSERT_TRUE(M) << Diags.renderAll();
    DiagnosticEngine VDiags;
    EXPECT_TRUE(succeeded(verifyOp(M.get(), VDiags))) << VDiags.renderAll();
    std::string Printed = printOpToString(M.get());
    OwningOpRef Again = parse(Printed);
    ASSERT_TRUE(Again) << Diags.renderAll();
    EXPECT_EQ(printOpToString(Again.get()), Printed);
  }

  /// Parses \p Src, which must fail with one error containing \p Message.
  void expectRejected(const std::string &Src, const std::string &Message) {
    OwningOpRef M = parse(Src);
    EXPECT_FALSE(M);
    EXPECT_EQ(Diags.getNumErrors(), 1u) << Diags.renderAll();
    EXPECT_NE(Diags.renderAll().find(Message), std::string::npos)
        << Diags.renderAll().substr(0, 2000);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

TEST_F(ParserNestingTest, RegionsAtTheCapParse) {
  roundTrip(nestedRegions(
      MaxNestingDepth,
      "%a = \"test.source\"() : () -> (f32)\n\"test.sink\"(%a) : (f32) -> ()"));
}

TEST_F(ParserNestingTest, RegionsPastTheCapAreDiagnosed) {
  expectRejected(nestedRegions(MaxNestingDepth + 1, ""),
                 "<input>:257:16: error: regions nested deeper than 256");
}

TEST_F(ParserNestingTest, HostileRegionNestingIsDiagnosed) {
  // About 170 KB of nested regions; each level used to cost the
  // recursive-descent parser several stack frames.
  expectRejected(nestedRegions(10000, ""), "regions nested deeper than 256");
}

TEST_F(ParserNestingTest, ArraysAtTheCapParse) {
  roundTrip(nestedArrays(MaxNestingDepth));
  roundTrip(nestedArrays(MaxNestingDepth - 1));
}

TEST_F(ParserNestingTest, ArraysPastTheCapAreDiagnosed) {
  expectRejected(nestedArrays(MaxNestingDepth + 1),
                 "error: types and attributes nested deeper than 256");
  Diags.clear();
  // Hostile: 100,000 nested brackets.
  expectRejected(nestedArrays(200000),
                 "error: types and attributes nested deeper than 256");
}

TEST_F(ParserNestingTest, TypesAtTheCapParse) {
  roundTrip(resultOfType(nestedBoxes(MaxNestingDepth)));
  // 127 arrows are 255 levels; one box makes 256.
  roundTrip(resultOfType(nestedFunctions(127)));
  roundTrip(resultOfType("!test.box<" + nestedFunctions(127) + ">"));
  // As an attribute, a type sits one level below it.
  roundTrip("\"test.sink\"() {t = " + nestedBoxes(MaxNestingDepth - 1) +
            ", u = " + nestedFunctions(127) + "} : () -> ()");
}

TEST_F(ParserNestingTest, TypesPastTheCapAreDiagnosed) {
  for (const std::string &T :
       {nestedBoxes(MaxNestingDepth + 1), nestedFunctions(128)}) {
    expectRejected(resultOfType(T),
                   "error: types and attributes nested deeper than 256");
    Diags.clear();
  }
  expectRejected("\"test.sink\"() {t = " + nestedBoxes(MaxNestingDepth) +
                     "} : () -> ()",
                 "error: types and attributes nested deeper than 256");
  Diags.clear();
  // Hostile: 100,000 nested dialect types, and parenthesized function
  // inputs 50,000 deep.
  std::string Boxes;
  for (unsigned I = 0; I != 100000; ++I)
    Boxes += "!test.box<";
  expectRejected(resultOfType(Boxes),
                 "error: types and attributes nested deeper than 256");
  Diags.clear();
  expectRejected(resultOfType(std::string(50000, '(')),
                 "error: types and attributes nested deeper than 256");
}

} // namespace
