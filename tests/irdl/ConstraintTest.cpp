//===- ConstraintTest.cpp - The Figure 2 constraint algebra ------------===//

#include "irdl/Constraint.h"

#include "common/ConstraintNodes.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class ConstraintTest : public ::testing::Test {
protected:
  ConstraintTest() {
    Dialect *D = Ctx.getOrCreateDialect("cmath");
    Complex = D->addType("complex");
    Complex->setParamNames({"elementType"});
    Pair = D->addType("pair");
    Pair->setParamNames({"first", "second"});
  }

  bool matches(const ConstraintPtr &C, const ParamValue &V) {
    MatchContext MC;
    return C->matches(V, MC);
  }

  Type complexOf(Type Elem) {
    return Ctx.getType(Complex, {ParamValue(Elem)});
  }

  IRContext Ctx;
  /// The storage the trees of a test are built in.
  SpecStoragePtr Store = std::make_shared<BumpStorage>();
  TypeDefinition *Complex = nullptr;
  TypeDefinition *Pair = nullptr;
};

TEST_F(ConstraintTest, AnyKinds) {
  EXPECT_TRUE(matches(Constraint::anyType(Store),
                      ParamValue(Ctx.getFloatType(32))));
  EXPECT_FALSE(matches(Constraint::anyType(Store),
                       ParamValue(Ctx.getIntegerAttr(1, 32))));
  EXPECT_TRUE(matches(Constraint::anyAttr(Store),
                      ParamValue(Ctx.getIntegerAttr(1, 32))));
  EXPECT_FALSE(matches(Constraint::anyAttr(Store),
                       ParamValue(Ctx.getFloatType(32))));
  EXPECT_TRUE(matches(Constraint::anyParam(Store), ParamValue(IntVal{})));
  EXPECT_TRUE(matches(Constraint::anyParam(Store),
                      ParamValue(std::string("x"))));
}

TEST_F(ConstraintTest, TypeEquality) {
  ConstraintPtr C = Constraint::typeEq(Store, Ctx.getFloatType(32));
  EXPECT_TRUE(matches(C, ParamValue(Ctx.getFloatType(32))));
  EXPECT_FALSE(matches(C, ParamValue(Ctx.getFloatType(64))));

  // Parametric equality reconstructs nested constraints.
  ConstraintPtr CC = Constraint::typeEq(Store, complexOf(Ctx.getFloatType(32)));
  EXPECT_TRUE(matches(CC, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_FALSE(matches(CC, ParamValue(complexOf(Ctx.getFloatType(64)))));
}

TEST_F(ConstraintTest, BaseNameMatch) {
  ConstraintPtr C = Constraint::typeConstraint(Store, Complex, {},
                                               /*BaseOnly=*/true);
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(64)))));
  EXPECT_FALSE(matches(C, ParamValue(Ctx.getFloatType(32))));
}

TEST_F(ConstraintTest, ParametricMatch) {
  ConstraintPtr C = Constraint::typeConstraint(
      Store, Complex, {Constraint::typeEq(Store, Ctx.getFloatType(32))},
      /*BaseOnly=*/false);
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_FALSE(matches(C, ParamValue(complexOf(Ctx.getFloatType(64)))));
}

TEST_F(ConstraintTest, IntKindsAndLiterals) {
  ConstraintPtr U32 = Constraint::intKind(Store, 32, Signedness::Unsigned);
  EXPECT_TRUE(matches(U32, ParamValue(IntVal{32, Signedness::Unsigned, 7})));
  EXPECT_FALSE(matches(U32, ParamValue(IntVal{32, Signedness::Signed, 7})));
  EXPECT_FALSE(matches(U32, ParamValue(IntVal{64, Signedness::Unsigned, 7})));

  ConstraintPtr Three =
      Constraint::intEq(Store, IntVal{32, Signedness::Signed, 3});
  EXPECT_TRUE(matches(Three, ParamValue(IntVal{32, Signedness::Signed, 3})));
  EXPECT_FALSE(matches(Three, ParamValue(IntVal{32, Signedness::Signed, 4})));
}

TEST_F(ConstraintTest, StringsAndFloats) {
  EXPECT_TRUE(matches(Constraint::stringKind(Store),
                      ParamValue(std::string("any"))));
  EXPECT_FALSE(matches(Constraint::stringKind(Store), ParamValue(IntVal{})));
  EXPECT_TRUE(matches(Constraint::stringEq(Store, "foo"),
                      ParamValue(std::string("foo"))));
  EXPECT_FALSE(matches(Constraint::stringEq(Store, "foo"),
                       ParamValue(std::string("bar"))));

  EXPECT_TRUE(matches(Constraint::floatKind(Store, 32),
                      ParamValue(FloatVal{32, 1.5})));
  EXPECT_FALSE(matches(Constraint::floatKind(Store, 32),
                       ParamValue(FloatVal{64, 1.5})));
  // Width 0 matches any float.
  EXPECT_TRUE(matches(Constraint::floatKind(Store, 0),
                      ParamValue(FloatVal{64, 1.5})));
}

TEST_F(ConstraintTest, Enums) {
  EnumDef *Sign = Ctx.getSignednessEnum();
  EXPECT_TRUE(matches(Constraint::enumKind(Store, Sign),
                      ParamValue(EnumVal{Sign, 0})));
  EXPECT_TRUE(matches(Constraint::enumEq(Store, EnumVal{Sign, 1}),
                      ParamValue(EnumVal{Sign, 1})));
  EXPECT_FALSE(matches(Constraint::enumEq(Store, EnumVal{Sign, 1}),
                       ParamValue(EnumVal{Sign, 2})));
}

TEST_F(ConstraintTest, Arrays) {
  std::vector<ParamValue> Elems;
  Elems.emplace_back(IntVal{32, Signedness::Signless, 1});
  Elems.emplace_back(IntVal{32, Signedness::Signless, 2});
  ParamValue Arr{std::vector<ParamValue>(Elems)};

  EXPECT_TRUE(matches(Constraint::anyArray(Store), Arr));
  EXPECT_FALSE(matches(Constraint::anyArray(Store), ParamValue(IntVal{})));

  ConstraintPtr AllI32 = Constraint::arrayOf(
      Store, Constraint::intKind(Store, 32, Signedness::Signless));
  EXPECT_TRUE(matches(AllI32, Arr));
  ConstraintPtr AllStr =
      Constraint::arrayOf(Store, Constraint::stringKind(Store));
  EXPECT_FALSE(matches(AllStr, Arr));

  ConstraintPtr Exact = Constraint::arrayExact(
      Store, {Constraint::intEq(Store, IntVal{32, Signedness::Signless, 1}),
       Constraint::intEq(Store, IntVal{32, Signedness::Signless, 2})});
  EXPECT_TRUE(matches(Exact, Arr));
  ConstraintPtr WrongArity = Constraint::arrayExact(
      Store, {Constraint::intEq(Store, IntVal{32, Signedness::Signless, 1})});
  EXPECT_FALSE(matches(WrongArity, Arr));
}

TEST_F(ConstraintTest, Combinators) {
  ConstraintPtr F32 = Constraint::typeEq(Store, Ctx.getFloatType(32));
  ConstraintPtr F64 = Constraint::typeEq(Store, Ctx.getFloatType(64));
  ConstraintPtr Either = Constraint::anyOf(Store, {F32, F64});
  EXPECT_TRUE(matches(Either, ParamValue(Ctx.getFloatType(32))));
  EXPECT_TRUE(matches(Either, ParamValue(Ctx.getFloatType(64))));
  EXPECT_FALSE(matches(Either, ParamValue(Ctx.getFloatType(16))));

  // And<int32_t, Not<0 : int32_t>> — the paper's non-null example.
  ConstraintPtr NonNull = Constraint::conjunction(
      Store, {Constraint::intKind(Store, 32, Signedness::Signed),
              Constraint::negation(
                  Store, Constraint::intEq(
                             Store, IntVal{32, Signedness::Signed, 0}))});
  EXPECT_TRUE(matches(NonNull, ParamValue(IntVal{32, Signedness::Signed, 5})));
  EXPECT_FALSE(
      matches(NonNull, ParamValue(IntVal{32, Signedness::Signed, 0})));
  EXPECT_FALSE(
      matches(NonNull, ParamValue(IntVal{64, Signedness::Signed, 5})));
}

TEST_F(ConstraintTest, VariableBindingAndUnification) {
  // Var 0 constrained to any float type.
  std::vector<ConstraintPtr> Vars = {
      Constraint::anyOf(Store,
                        {Constraint::typeEq(Store, Ctx.getFloatType(32)),
                         Constraint::typeEq(Store, Ctx.getFloatType(64))})};
  ConstraintPtr V = Constraint::var(Store, 0, "T");

  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  MatchContext MC(VarNodes);
  EXPECT_TRUE(V->matches(ParamValue(Ctx.getFloatType(32)), MC));
  // Second use must be the same value.
  EXPECT_TRUE(V->matches(ParamValue(Ctx.getFloatType(32)), MC));
  EXPECT_FALSE(V->matches(ParamValue(Ctx.getFloatType(64)), MC));

  // A fresh context rejects a binding violating the var's constraint.
  MatchContext MC2(VarNodes);
  EXPECT_FALSE(V->matches(ParamValue(Ctx.getIntegerType(32)), MC2));
}

TEST_F(ConstraintTest, AnyOfBacktracksVariableBindings) {
  // AnyOf<pair<T, i32-ish>, pair<T, string>> where the first branch binds
  // T before failing on the second parameter: the binding must roll back.
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(Store)};
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  ConstraintPtr Branch1 = Constraint::typeConstraint(
      Store, Pair, {T, Constraint::intKind(Store, 32, Signedness::Signless)},
      /*BaseOnly=*/false);
  ConstraintPtr Branch2 = Constraint::typeConstraint(
      Store, Pair, {Constraint::typeEq(Store, Ctx.getFloatType(64)),
             Constraint::stringKind(Store)},
      /*BaseOnly=*/false);
  ConstraintPtr Either = Constraint::anyOf(Store, {Branch1, Branch2});

  Type PairTy = Ctx.getType(
      Pair, {ParamValue(Ctx.getFloatType(64)),
             ParamValue(std::string("s"))});
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  MatchContext MC(VarNodes);
  EXPECT_TRUE(Either->matches(ParamValue(PairTy), MC));
  // T must NOT remain bound from the failed first branch.
  EXPECT_FALSE(MC.getBinding(0).has_value());
}

TEST_F(ConstraintTest, NotDoesNotLeakBindings) {
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(Store)};
  ConstraintPtr NotT =
      Constraint::negation(Store, Constraint::var(Store, 0, "T"));
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  MatchContext MC(VarNodes);
  // Var matches (and binds) inside Not, so Not fails — and the binding is
  // rolled back.
  EXPECT_FALSE(NotT->matches(ParamValue(Ctx.getFloatType(32)), MC));
  EXPECT_FALSE(MC.getBinding(0).has_value());
}

TEST_F(ConstraintTest, CppAndNative) {
  // Bounded integer (Listing 10): uint32_t and <= 32.
  ConstraintPtr Bounded = Constraint::cpp(
      Store, Constraint::intKind(Store, 32, Signedness::Unsigned),
      [](const ParamValue &V) { return V.getInt().Value <= 32; },
      "$_self <= 32");
  EXPECT_TRUE(matches(
      Bounded, ParamValue(IntVal{32, Signedness::Unsigned, 16})));
  EXPECT_FALSE(matches(
      Bounded, ParamValue(IntVal{32, Signedness::Unsigned, 64})));
  EXPECT_TRUE(Bounded->requiresCpp());

  ConstraintPtr Native = Constraint::native(
      Store, Constraint::anyParam(Store),
      [](const ParamValue &V) { return V.isString(); }, "is-string");
  EXPECT_TRUE(matches(Native, ParamValue(std::string("x"))));
  EXPECT_FALSE(matches(Native, ParamValue(IntVal{})));
  EXPECT_TRUE(Native->requiresCpp());
}

TEST_F(ConstraintTest, RequiresCppPropagates) {
  ConstraintPtr Plain = Constraint::typeEq(Store, Ctx.getFloatType(32));
  EXPECT_FALSE(Plain->requiresCpp());
  ConstraintPtr Nested = Constraint::anyOf(
      Store, {Plain, Constraint::cpp(Store, Constraint::anyParam(Store),
                              [](const ParamValue &) { return true; },
                              "true")});
  EXPECT_TRUE(Nested->requiresCpp());
}

TEST_F(ConstraintTest, ConcreteValueDerivation) {
  MatchContext MC;
  // Fully concrete parametric type.
  ConstraintPtr C = Constraint::typeConstraint(
      Store, Complex, {Constraint::typeEq(Store, Ctx.getFloatType(32))},
      /*BaseOnly=*/false);
  auto V = C->concreteValue(MC, Ctx);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getType(), complexOf(Ctx.getFloatType(32)));

  // AnyOf is not derivable.
  ConstraintPtr Either =
      Constraint::anyOf(Store,
                        {Constraint::typeEq(Store, Ctx.getFloatType(32)),
                         Constraint::typeEq(Store, Ctx.getFloatType(64))});
  EXPECT_FALSE(Either->concreteValue(MC, Ctx).has_value());

  // Var derives from its binding.
  std::vector<ConstraintPtr> Vars = {Constraint::anyType(Store)};
  std::vector<const Constraint *> VarNodes = nodesOf(Vars);
  MatchContext MC2(VarNodes);
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  EXPECT_FALSE(T->concreteValue(MC2, Ctx).has_value());
  MC2.bind(0, ParamValue(Ctx.getFloatType(64)));
  auto TV = T->concreteValue(MC2, Ctx);
  ASSERT_TRUE(TV.has_value());
  EXPECT_EQ(TV->getType(), Ctx.getFloatType(64));
}

TEST_F(ConstraintTest, Printing) {
  EXPECT_EQ(Constraint::anyType(Store)->str(), "!AnyType");
  EXPECT_EQ(Constraint::anyAttr(Store)->str(), "#AnyAttr");
  EXPECT_EQ(Constraint::intKind(Store, 32, Signedness::Unsigned)->str(),
            "uint32_t");
  EXPECT_EQ(Constraint::intKind(Store, 8, Signedness::Signed)->str(), "int8_t");
  EXPECT_EQ(Constraint::stringKind(Store)->str(), "string");
  EXPECT_EQ(Constraint::stringEq(Store, "x")->str(), "\"x\"");
  EXPECT_EQ(Constraint::typeConstraint(Store, Complex, {}, true)->str(),
            "!cmath.complex");
  EXPECT_EQ(Constraint::var(Store, 3, "T")->str(), "!T");
  ConstraintPtr Combo = Constraint::anyOf(
      Store, {Constraint::typeEq(Store, Ctx.getFloatType(32)),
       Constraint::typeEq(Store, Ctx.getFloatType(64))});
  EXPECT_EQ(Combo->str(), "AnyOf<!builtin.f32, !builtin.f64>");
}

} // namespace
