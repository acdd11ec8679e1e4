//===- ConstraintPropertyTest.cpp - Property-style constraint sweeps ------===//
///
/// Parameterized sweeps over the constraint algebra checking logical
/// invariants: Not is an involution, AnyOf/And behave like disjunction/
/// conjunction, equality constraints pick exactly one value, and
/// backtracking never leaks bindings — over a grid of sample values.

#include "irdl/Constraint.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

/// A shared context + a pool of sample values covering every ParamValue
/// kind.
class ValuePool {
public:
  ValuePool() {
    Dialect *D = Ctx.getOrCreateDialect("prop");
    Box = D->addType("box");
    Box->setParamNames({"elem"});
    E = D->addEnum("color", {"R", "G", "B"});

    Values.emplace_back(Ctx.getFloatType(32));
    Values.emplace_back(Ctx.getFloatType(64));
    Values.emplace_back(Ctx.getIntegerType(32));
    Values.emplace_back(
        Ctx.getType(Box, {ParamValue(Ctx.getFloatType(32))}));
    Values.emplace_back(
        Ctx.getType(Box, {ParamValue(Ctx.getIntegerType(8))}));
    Values.emplace_back(Ctx.getIntegerAttr(3, 32));
    Values.emplace_back(Ctx.getStringAttr("s"));
    Values.emplace_back(IntVal{32, Signedness::Signless, 0});
    Values.emplace_back(IntVal{32, Signedness::Signless, 7});
    Values.emplace_back(IntVal{64, Signedness::Unsigned, 7});
    Values.emplace_back(FloatVal{32, 1.5});
    Values.emplace_back(std::string("hello"));
    Values.emplace_back(std::string(""));
    Values.emplace_back(EnumVal{E, 0});
    Values.emplace_back(EnumVal{E, 2});
    Values.emplace_back(std::vector<ParamValue>{});
    Values.emplace_back(std::vector<ParamValue>{
        ParamValue(IntVal{32, Signedness::Signless, 1})});
    Values.emplace_back(OpaqueVal{"location", "f:1:1"});
  }

  IRContext Ctx;
  TypeDefinition *Box;
  EnumDef *E;
  std::vector<ParamValue> Values;

  std::vector<ConstraintPtr> sampleConstraints() {
    return {
        Constraint::anyType(),
        Constraint::anyAttr(),
        Constraint::anyParam(),
        Constraint::typeEq(Ctx.getFloatType(32)),
        Constraint::typeConstraint(Box, {}, /*BaseOnly=*/true),
        Constraint::typeConstraint(
            Box, {Constraint::typeEq(Ctx.getFloatType(32))}, false),
        Constraint::intKind(32, Signedness::Signless),
        Constraint::intEq(IntVal{32, Signedness::Signless, 7}),
        Constraint::floatKind(32),
        Constraint::stringKind(),
        Constraint::stringEq("hello"),
        Constraint::enumKind(E),
        Constraint::enumEq(EnumVal{E, 0}),
        Constraint::anyArray(),
        Constraint::arrayOf(
            Constraint::intKind(32, Signedness::Signless)),
        Constraint::opaqueKind("location"),
    };
  }
};

ValuePool &pool() {
  static ValuePool P;
  return P;
}

bool plainMatch(const ConstraintPtr &C, const ParamValue &V) {
  MatchContext MC;
  return C->matches(V, MC);
}

/// One test instance per (constraint index, value index) pair.
class ConstraintValueGrid
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(ConstraintValueGrid, NotIsComplement) {
  auto [CI, VI] = GetParam();
  ConstraintPtr C = pool().sampleConstraints()[CI];
  const ParamValue &V = pool().Values[VI];
  EXPECT_NE(plainMatch(C, V), plainMatch(Constraint::negation(C), V));
}

TEST_P(ConstraintValueGrid, DoubleNegationIsIdentity) {
  auto [CI, VI] = GetParam();
  ConstraintPtr C = pool().sampleConstraints()[CI];
  const ParamValue &V = pool().Values[VI];
  ConstraintPtr NotNot =
      Constraint::negation(Constraint::negation(C));
  EXPECT_EQ(plainMatch(C, V), plainMatch(NotNot, V));
}

TEST_P(ConstraintValueGrid, ExcludedMiddle) {
  auto [CI, VI] = GetParam();
  ConstraintPtr C = pool().sampleConstraints()[CI];
  const ParamValue &V = pool().Values[VI];
  ConstraintPtr Either =
      Constraint::anyOf({C, Constraint::negation(C)});
  EXPECT_TRUE(plainMatch(Either, V));
  ConstraintPtr Both =
      Constraint::conjunction({C, Constraint::negation(C)});
  EXPECT_FALSE(plainMatch(Both, V));
}

TEST_P(ConstraintValueGrid, AnyOfIsDisjunction) {
  auto [CI, VI] = GetParam();
  auto Cs = pool().sampleConstraints();
  ConstraintPtr A = Cs[CI];
  const ParamValue &V = pool().Values[VI];
  for (size_t J = 0; J < Cs.size(); J += 3) {
    ConstraintPtr B = Cs[J];
    bool Expected = plainMatch(A, V) || plainMatch(B, V);
    EXPECT_EQ(plainMatch(Constraint::anyOf({A, B}), V), Expected);
    // Commutativity.
    EXPECT_EQ(plainMatch(Constraint::anyOf({B, A}), V), Expected);
  }
}

TEST_P(ConstraintValueGrid, AndIsConjunction) {
  auto [CI, VI] = GetParam();
  auto Cs = pool().sampleConstraints();
  ConstraintPtr A = Cs[CI];
  const ParamValue &V = pool().Values[VI];
  for (size_t J = 0; J < Cs.size(); J += 3) {
    ConstraintPtr B = Cs[J];
    bool Expected = plainMatch(A, V) && plainMatch(B, V);
    EXPECT_EQ(plainMatch(Constraint::conjunction({A, B}), V), Expected);
  }
}

TEST_P(ConstraintValueGrid, ConcreteValueIsSound) {
  // Whenever a constraint derives a concrete value, that value must
  // satisfy the constraint.
  auto [CI, VI] = GetParam();
  (void)VI;
  ConstraintPtr C = pool().sampleConstraints()[CI];
  MatchContext MC;
  if (auto V = C->concreteValue(MC, pool().Ctx)) {
    EXPECT_TRUE(plainMatch(C, *V)) << C->str();
  }
}

TEST_P(ConstraintValueGrid, MatchingIsDeterministic) {
  auto [CI, VI] = GetParam();
  ConstraintPtr C = pool().sampleConstraints()[CI];
  const ParamValue &V = pool().Values[VI];
  EXPECT_EQ(plainMatch(C, V), plainMatch(C, V));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ConstraintValueGrid,
    ::testing::Combine(::testing::Range(0, 16), ::testing::Range(0, 18)));

/// Variable-binding properties over the value grid.
class VarBindingSweep : public ::testing::TestWithParam<int> {};

TEST_P(VarBindingSweep, VarUnifiesOnlyWithItself) {
  const ParamValue &V = pool().Values[GetParam()];
  std::vector<ConstraintPtr> Vars = {Constraint::anyParam()};
  ConstraintPtr VarC = Constraint::var(0, "T");
  MatchContext MC(&Vars);
  ASSERT_TRUE(VarC->matches(V, MC));
  for (const ParamValue &Other : pool().Values)
    EXPECT_EQ(VarC->matches(Other, MC), Other == V);
}

TEST_P(VarBindingSweep, FailedAnyOfBranchNeverLeaksBinding) {
  const ParamValue &V = pool().Values[GetParam()];
  std::vector<ConstraintPtr> Vars = {Constraint::anyParam()};
  // First branch binds T then fails (conjunction with an unsatisfiable
  // constraint); second branch never references T.
  ConstraintPtr Unsat = Constraint::conjunction(
      {Constraint::var(0, "T"),
       Constraint::negation(Constraint::anyParam())});
  ConstraintPtr C = Constraint::anyOf({Unsat, Constraint::anyParam()});
  MatchContext MC(&Vars);
  EXPECT_TRUE(C->matches(V, MC));
  EXPECT_FALSE(MC.getBinding(0).has_value());
}

INSTANTIATE_TEST_SUITE_P(Values, VarBindingSweep,
                         ::testing::Range(0, 18));

} // namespace
