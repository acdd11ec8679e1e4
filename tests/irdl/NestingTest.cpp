//===- NestingTest.cpp - The IRDL frontend's nesting cap ------------------===//
///
/// Constraint expressions nest at most MaxNestingDepth levels, both as
/// written and as resolved: the parser bounds `<...>` arguments and
/// `[...]` arrays, and Sema bounds the trees that alias expansion and
/// named constraints build, so hostile specs are diagnosed instead of
/// overflowing the stack, and no resolved tree is deeper than the cap.
/// IRDL-C++ expressions obey the same cap.

#include "ir/Context.h"
#include "ir/IRParser.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

/// \p Levels nested `!AnyOf<...>` around \p Leaf.
std::string anyOfs(unsigned Levels, const std::string &Leaf = "!f32") {
  std::string S;
  for (unsigned I = 0; I != Levels; ++I)
    S += "!AnyOf<";
  S += Leaf;
  S.append(Levels, '>');
  return S;
}

/// \p Levels nested `[...]` arrays around \p Leaf.
std::string arrays(unsigned Levels, const std::string &Leaf = "int32_t") {
  return std::string(Levels, '[') + Leaf + std::string(Levels, ']');
}

class IRDLNestingTest : public ::testing::Test {
protected:
  IRDLNestingTest() : Diags(&SrcMgr) {}

  std::unique_ptr<IRDLModule> load(const std::string &Src) {
    return loadIRDL(Ctx, Src, SrcMgr, Diags);
  }

  std::string operandSpec(const std::string &Constr) {
    return "Dialect d { Operation o { Operands (x: " + Constr + ") } }";
  }

  bool diagnosedTooDeep() {
    return Diags.renderAll().find("error: constraints nested deeper than " +
                                  std::to_string(MaxNestingDepth)) !=
           std::string::npos;
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

TEST_F(IRDLNestingTest, ConstraintsAtTheCapLoad) {
  auto M = load(operandSpec(anyOfs(MaxNestingDepth - 1)));
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec &Op = M->Dialects[0]->Ops[0];
  EXPECT_EQ(Op.Operands[0].Constr->getHeight(), MaxNestingDepth);

  auto Arrays = load("Dialect a { Type t { Parameters (p: " +
                     arrays(MaxNestingDepth - 1) + ") } }");
  ASSERT_NE(Arrays, nullptr) << Diags.renderAll();
  EXPECT_EQ(Arrays->Dialects[0]->Types[0].Params[0].Constr->getHeight(),
            MaxNestingDepth);
}

TEST_F(IRDLNestingTest, OneLevelPastTheCapIsDiagnosed) {
  EXPECT_EQ(load(operandSpec(anyOfs(MaxNestingDepth))), nullptr);
  EXPECT_TRUE(diagnosedTooDeep()) << Diags.renderAll();
  // The innermost level is reported, once.
  EXPECT_EQ(Diags.getNumErrors(), 1u);
  EXPECT_NE(Diags.renderAll().find(":1:" +
                                   std::to_string(40 + 7 * MaxNestingDepth) +
                                   ": error"),
            std::string::npos)
      << Diags.renderAll().substr(0, 200);

  Diags.clear();
  EXPECT_EQ(load("Dialect a { Type t { Parameters (p: " +
                 arrays(MaxNestingDepth) + ") } }"),
            nullptr);
  EXPECT_TRUE(diagnosedTooDeep());
}

TEST_F(IRDLNestingTest, TwentyThousandLevelsAreDiagnosed) {
  EXPECT_EQ(load(operandSpec(anyOfs(20000))), nullptr);
  EXPECT_TRUE(diagnosedTooDeep());
  Diags.clear();
  EXPECT_EQ(load(operandSpec("!AnyOf<" + arrays(20000) + ">")), nullptr);
  EXPECT_TRUE(diagnosedTooDeep());
  // Unclosed too: the cap is hit before the missing brackets are.
  Diags.clear();
  EXPECT_EQ(load(operandSpec(std::string(20000, '['))), nullptr);
  EXPECT_TRUE(diagnosedTooDeep());
}

TEST_F(IRDLNestingTest, AliasExpansionCountsTowardTheCap) {
  // The body adds 200 levels above its argument: with an argument of 56
  // levels the resolved tree is exactly at the cap, with 57 one past it.
  std::string Alias =
      "Alias !Deep<T> = " + anyOfs(200, "!T") + "\n";
  auto Spec = [&](unsigned ArgLevels) {
    return "Dialect d" + std::to_string(ArgLevels) + " {\n" + Alias +
           "Operation o { Operands (x: !Deep<" +
           anyOfs(ArgLevels - 1) + ">) } }";
  };
  auto M = load(Spec(MaxNestingDepth - 200));
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  EXPECT_EQ(M->Dialects[0]->Ops[0].Operands[0].Constr->getHeight(),
            MaxNestingDepth);

  EXPECT_EQ(load(Spec(MaxNestingDepth - 199)), nullptr);
  EXPECT_TRUE(diagnosedTooDeep()) << Diags.renderAll();
  EXPECT_EQ(Diags.getNumErrors(), 1u);
}

TEST_F(IRDLNestingTest, ChainedAliasesAndNamedConstraintsAreBounded) {
  // Each alias is well within the cap as written; chained, they are not.
  std::string Chain = "Dialect d {\n  Alias !A0 = " + anyOfs(150) + "\n";
  for (unsigned I = 1; I != 4; ++I)
    Chain += "  Alias !A" + std::to_string(I) + " = " +
             anyOfs(150, "!A" + std::to_string(I - 1)) + "\n";
  EXPECT_EQ(load(Chain + "  Operation o { Operands (x: !A3) }\n}"), nullptr);
  EXPECT_TRUE(diagnosedTooDeep()) << Diags.renderAll();

  // A named constraint wraps its base one level deeper; using it inside
  // 255 more levels goes past the cap.
  Diags.clear();
  EXPECT_EQ(load("Dialect n {\n  Constraint c : !f32 { }\n"
                 "  Operation o { Operands (x: " +
                 anyOfs(MaxNestingDepth - 1, "!c") + ") }\n}"),
            nullptr);
  EXPECT_TRUE(diagnosedTooDeep()) << Diags.renderAll();
}

TEST_F(IRDLNestingTest, CppExpressionsAreBounded) {
  unsigned NumSpecs = 0;
  auto Spec = [&](const std::string &Expr) {
    return "Dialect c" + std::to_string(NumSpecs++) +
           " { Operation o { CppConstraint \"" + Expr + "\" } }";
  };
  auto Parens = [](unsigned Levels) {
    return std::string(Levels, '(') + "true" + std::string(Levels, ')');
  };
  ASSERT_NE(load(Spec(Parens(MaxNestingDepth))), nullptr)
      << Diags.renderAll();

  std::string Chain = "1";
  for (unsigned I = 0; I != 20000; ++I)
    Chain += " + 1";
  for (const std::string &Expr :
       {Parens(MaxNestingDepth + 1), Parens(20000),
        std::string(20000, '!') + "true", Chain}) {
    Diags.clear();
    EXPECT_EQ(load(Spec(Expr)), nullptr);
    EXPECT_NE(Diags.renderAll().find(
                  "error: in C++ constraint expression: nested deeper than " +
                  std::to_string(MaxNestingDepth)),
              std::string::npos)
        << Diags.renderAll().substr(0, 200);
  }
}

} // namespace
