//===- SemaErrorTest.cpp - IRDL diagnostics sweep -------------------------===//
///
/// Parameterized sweep over malformed IRDL inputs: each must fail to load
/// with a diagnostic containing the expected fragment.

#include "ir/Context.h"
#include "irdl/IRDL.h"

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

class SemaErrorTest : public ::testing::TestWithParam<ErrorCase> {};

TEST_P(SemaErrorTest, DiagnosesCleanly) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDL(Ctx, GetParam().Source, SrcMgr, Diags);
  EXPECT_EQ(M, nullptr);
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
    Malformed, SemaErrorTest,
    ::testing::Values(
        ErrorCase{"TopLevelGarbage", "Type t {}",
                  "expected 'Dialect' at top level"},
        ErrorCase{"IntegerLiteralAboveInt64",
                  "Dialect d { Type t { Parameters (a: 9223372036854775808 "
                  ": int64_t) } }",
                  "integer literal out of range"},
        ErrorCase{"IntegerLiteralBelowInt64",
                  "Dialect d { Type t { Parameters (a: -9223372036854775809 "
                  ": int64_t) } }",
                  "integer literal out of range"},
        ErrorCase{"MissingDialectName", "Dialect {",
                  "expected dialect name"},
        ErrorCase{"UnknownDialectDirective",
                  "Dialect d { Frobnicate x {} }",
                  "unknown directive in dialect body"},
        ErrorCase{"UnknownOpDirective",
                  "Dialect d { Operation o { Wibble () } }",
                  "unknown directive in operation body"},
        ErrorCase{"UnknownConstraintName",
                  "Dialect d { Operation o { Operands (x: !mystery) } }",
                  "unknown constraint 'mystery'"},
        ErrorCase{"UnknownQualifiedConstraint",
                  "Dialect d { Operation o { Operands (x: !other.t) } }",
                  "unknown constraint 'other.t'"},
        ErrorCase{"UnknownEnumCase",
                  R"(Dialect d {
                       Enum e { A }
                       Type t { Parameters (x: e.B) }
                     })",
                  "not a constructor"},
        ErrorCase{"NotTakesOneArg",
                  "Dialect d { Operation o { Operands (x: Not<!f32, "
                  "!f64>) } }",
                  "Not takes exactly one"},
        ErrorCase{"AnyOfNeedsArgs",
                  "Dialect d { Operation o { Operands (x: AnyOf) } }",
                  "AnyOf requires at least one constraint"},
        ErrorCase{"VariadicNested",
                  "Dialect d { Operation o { Operands (x: "
                  "Not<Variadic<!f32>>) } }",
                  "only allowed at the top level"},
        ErrorCase{"VariadicOnAttribute",
                  "Dialect d { Operation o { Attributes (a: "
                  "Variadic<#AnyAttr>) } }",
                  "only allowed at the top level"},
        ErrorCase{"ParamArityMismatch",
                  R"(Dialect d {
                       Type pair { Parameters (a: !AnyType, b: !AnyType) }
                       Operation o { Operands (x: !pair<!f32>) }
                     })",
                  "has 2 parameters but 1 constraints were given"},
        ErrorCase{"DuplicateType",
                  "Dialect d { Type t {} Type t {} }",
                  "redefinition of type 't'"},
        ErrorCase{"DuplicateOp",
                  "Dialect d { Operation o {} Operation o {} }",
                  "redefinition of operation 'o'"},
        ErrorCase{"DuplicateAlias",
                  "Dialect d { Alias !A = !f32 Alias !A = !f64 }",
                  "redefinition of alias 'A'"},
        ErrorCase{"CyclicVarSelf",
                  R"(Dialect d {
                       Operation o {
                         ConstraintVar (!T: !T)
                         Operands (x: !T)
                       }
                     })",
                  "constraint variable 'T' of operation 'o' refers to "
                  "itself"},
        ErrorCase{"CyclicVarPair",
                  R"(Dialect d {
                       Operation o {
                         ConstraintVar (!T: !U, !U: !T)
                         Operands (x: !T)
                       }
                     })",
                  "refers to itself outside any type, attribute or array "
                  "parameter"},
        ErrorCase{"CyclicVarUnderAnyOf",
                  R"(Dialect d {
                       Operation o {
                         ConstraintVar (!T: !AnyOf<!T, !f32>)
                         Operands (x: !T)
                       }
                     })",
                  "constraint variable 'T' of operation 'o' refers to "
                  "itself"},
        ErrorCase{"RecursiveAlias",
                  R"(Dialect d {
                       Alias !A = !B
                       Alias !B = !A
                       Operation o { Operands (x: !A) }
                     })",
                  "alias expansion too deep"},
        ErrorCase{"AliasArity",
                  R"(Dialect d {
                       Alias !W<T> = T
                       Operation o { Operands (x: !W) }
                     })",
                  "expects 1 arguments but got 0"},
        ErrorCase{"UnknownTerminator",
                  R"(Dialect d {
                       Operation o {
                         Region body { Terminator ghost_op }
                       }
                     })",
                  "unknown terminator operation"},
        ErrorCase{"MissingNativeOpVerifier",
                  R"(Dialect d {
                       Operation o { CppConstraint "native:missing" }
                     })",
                  "no native op verifier registered"},
        ErrorCase{"BadCppExpression",
                  R"(Dialect d {
                       Operation o { CppConstraint "1 +" }
                     })",
                  "C++ constraint expression"},
        ErrorCase{"BadFormatString",
                  R"(Dialect d {
                       Operation o { Operands (x: !f32) Format "$" }
                     })",
                  "expected name after '$'"},
        ErrorCase{"SummaryNeedsString",
                  "Dialect d { Operation o { Summary 42 } }",
                  "expected string literal after 'Summary'"},
        ErrorCase{"EnumCaseNotIdent",
                  "Dialect d { Enum e { 3 } }",
                  "expected enum constructor"},
        ErrorCase{"ClashWithBuiltinComponent",
                  "Dialect builtin { Type f32 {} }",
                  "redefinition of type 'f32'"}),
    caseName);

} // namespace
