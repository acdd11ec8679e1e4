//===- ConstraintTest.cpp - The Figure 2 constraint algebra ------------===//

#include "irdl/Constraint.h"

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
  TypeDefinition *Complex = nullptr;
  TypeDefinition *Pair = nullptr;
};

TEST_F(ConstraintTest, AnyKinds) {
  EXPECT_TRUE(matches(Constraint::anyType(),
                      ParamValue(Ctx.getFloatType(32))));
  EXPECT_FALSE(matches(Constraint::anyType(),
                       ParamValue(Ctx.getIntegerAttr(1, 32))));
  EXPECT_TRUE(matches(Constraint::anyAttr(),
                      ParamValue(Ctx.getIntegerAttr(1, 32))));
  EXPECT_FALSE(matches(Constraint::anyAttr(),
                       ParamValue(Ctx.getFloatType(32))));
  EXPECT_TRUE(matches(Constraint::anyParam(), ParamValue(IntVal{})));
  EXPECT_TRUE(matches(Constraint::anyParam(),
                      ParamValue(std::string("x"))));
}

TEST_F(ConstraintTest, TypeEquality) {
  ConstraintPtr C = Constraint::typeEq(Ctx.getFloatType(32));
  EXPECT_TRUE(matches(C, ParamValue(Ctx.getFloatType(32))));
  EXPECT_FALSE(matches(C, ParamValue(Ctx.getFloatType(64))));

  // Parametric equality reconstructs nested constraints.
  ConstraintPtr CC = Constraint::typeEq(complexOf(Ctx.getFloatType(32)));
  EXPECT_TRUE(matches(CC, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_FALSE(matches(CC, ParamValue(complexOf(Ctx.getFloatType(64)))));
}

TEST_F(ConstraintTest, BaseNameMatch) {
  ConstraintPtr C = Constraint::typeConstraint(Complex, {},
                                               /*BaseOnly=*/true);
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(64)))));
  EXPECT_FALSE(matches(C, ParamValue(Ctx.getFloatType(32))));
}

TEST_F(ConstraintTest, ParametricMatch) {
  ConstraintPtr C = Constraint::typeConstraint(
      Complex, {Constraint::typeEq(Ctx.getFloatType(32))},
      /*BaseOnly=*/false);
  EXPECT_TRUE(matches(C, ParamValue(complexOf(Ctx.getFloatType(32)))));
  EXPECT_FALSE(matches(C, ParamValue(complexOf(Ctx.getFloatType(64)))));
}

TEST_F(ConstraintTest, IntKindsAndLiterals) {
  ConstraintPtr U32 = Constraint::intKind(32, Signedness::Unsigned);
  EXPECT_TRUE(matches(U32, ParamValue(IntVal{32, Signedness::Unsigned, 7})));
  EXPECT_FALSE(matches(U32, ParamValue(IntVal{32, Signedness::Signed, 7})));
  EXPECT_FALSE(matches(U32, ParamValue(IntVal{64, Signedness::Unsigned, 7})));

  ConstraintPtr Three =
      Constraint::intEq(IntVal{32, Signedness::Signed, 3});
  EXPECT_TRUE(matches(Three, ParamValue(IntVal{32, Signedness::Signed, 3})));
  EXPECT_FALSE(matches(Three, ParamValue(IntVal{32, Signedness::Signed, 4})));
}

TEST_F(ConstraintTest, StringsAndFloats) {
  EXPECT_TRUE(matches(Constraint::stringKind(),
                      ParamValue(std::string("any"))));
  EXPECT_FALSE(matches(Constraint::stringKind(), ParamValue(IntVal{})));
  EXPECT_TRUE(matches(Constraint::stringEq("foo"),
                      ParamValue(std::string("foo"))));
  EXPECT_FALSE(matches(Constraint::stringEq("foo"),
                       ParamValue(std::string("bar"))));

  EXPECT_TRUE(matches(Constraint::floatKind(32),
                      ParamValue(FloatVal{32, 1.5})));
  EXPECT_FALSE(matches(Constraint::floatKind(32),
                       ParamValue(FloatVal{64, 1.5})));
  // Width 0 matches any float.
  EXPECT_TRUE(matches(Constraint::floatKind(0),
                      ParamValue(FloatVal{64, 1.5})));
}

TEST_F(ConstraintTest, Enums) {
  EnumDef *Sign = Ctx.getSignednessEnum();
  EXPECT_TRUE(matches(Constraint::enumKind(Sign),
                      ParamValue(EnumVal{Sign, 0})));
  EXPECT_TRUE(matches(Constraint::enumEq(EnumVal{Sign, 1}),
                      ParamValue(EnumVal{Sign, 1})));
  EXPECT_FALSE(matches(Constraint::enumEq(EnumVal{Sign, 1}),
                       ParamValue(EnumVal{Sign, 2})));
}

TEST_F(ConstraintTest, Arrays) {
  std::vector<ParamValue> Elems;
  Elems.emplace_back(IntVal{32, Signedness::Signless, 1});
  Elems.emplace_back(IntVal{32, Signedness::Signless, 2});
  ParamValue Arr{std::vector<ParamValue>(Elems)};

  EXPECT_TRUE(matches(Constraint::anyArray(), Arr));
  EXPECT_FALSE(matches(Constraint::anyArray(), ParamValue(IntVal{})));

  ConstraintPtr AllI32 = Constraint::arrayOf(
      Constraint::intKind(32, Signedness::Signless));
  EXPECT_TRUE(matches(AllI32, Arr));
  ConstraintPtr AllStr = Constraint::arrayOf(Constraint::stringKind());
  EXPECT_FALSE(matches(AllStr, Arr));

  ConstraintPtr Exact = Constraint::arrayExact(
      {Constraint::intEq(IntVal{32, Signedness::Signless, 1}),
       Constraint::intEq(IntVal{32, Signedness::Signless, 2})});
  EXPECT_TRUE(matches(Exact, Arr));
  ConstraintPtr WrongArity = Constraint::arrayExact(
      {Constraint::intEq(IntVal{32, Signedness::Signless, 1})});
  EXPECT_FALSE(matches(WrongArity, Arr));
}

TEST_F(ConstraintTest, Combinators) {
  ConstraintPtr F32 = Constraint::typeEq(Ctx.getFloatType(32));
  ConstraintPtr F64 = Constraint::typeEq(Ctx.getFloatType(64));
  ConstraintPtr Either = Constraint::anyOf({F32, F64});
  EXPECT_TRUE(matches(Either, ParamValue(Ctx.getFloatType(32))));
  EXPECT_TRUE(matches(Either, ParamValue(Ctx.getFloatType(64))));
  EXPECT_FALSE(matches(Either, ParamValue(Ctx.getFloatType(16))));

  // And<int32_t, Not<0 : int32_t>> — the paper's non-null example.
  ConstraintPtr NonNull = Constraint::conjunction(
      {Constraint::intKind(32, Signedness::Signed),
       Constraint::negation(
           Constraint::intEq(IntVal{32, Signedness::Signed, 0}))});
  EXPECT_TRUE(matches(NonNull, ParamValue(IntVal{32, Signedness::Signed, 5})));
  EXPECT_FALSE(
      matches(NonNull, ParamValue(IntVal{32, Signedness::Signed, 0})));
  EXPECT_FALSE(
      matches(NonNull, ParamValue(IntVal{64, Signedness::Signed, 5})));
}

TEST_F(ConstraintTest, VariableBindingAndUnification) {
  // Var 0 constrained to any float type.
  std::vector<ConstraintPtr> Vars = {
      Constraint::anyOf({Constraint::typeEq(Ctx.getFloatType(32)),
                         Constraint::typeEq(Ctx.getFloatType(64))})};
  ConstraintPtr V = Constraint::var(0, "T");

  MatchContext MC(&Vars);
  EXPECT_TRUE(V->matches(ParamValue(Ctx.getFloatType(32)), MC));
  // Second use must be the same value.
  EXPECT_TRUE(V->matches(ParamValue(Ctx.getFloatType(32)), MC));
  EXPECT_FALSE(V->matches(ParamValue(Ctx.getFloatType(64)), MC));

  // A fresh context rejects a binding violating the var's constraint.
  MatchContext MC2(&Vars);
  EXPECT_FALSE(V->matches(ParamValue(Ctx.getIntegerType(32)), MC2));
}

TEST_F(ConstraintTest, AnyOfBacktracksVariableBindings) {
  // AnyOf<pair<T, i32-ish>, pair<T, string>> where the first branch binds
  // T before failing on the second parameter: the binding must roll back.
  std::vector<ConstraintPtr> Vars = {Constraint::anyType()};
  ConstraintPtr T = Constraint::var(0, "T");
  ConstraintPtr Branch1 = Constraint::typeConstraint(
      Pair, {T, Constraint::intKind(32, Signedness::Signless)},
      /*BaseOnly=*/false);
  ConstraintPtr Branch2 = Constraint::typeConstraint(
      Pair, {Constraint::typeEq(Ctx.getFloatType(64)),
             Constraint::stringKind()},
      /*BaseOnly=*/false);
  ConstraintPtr Either = Constraint::anyOf({Branch1, Branch2});

  Type PairTy = Ctx.getType(
      Pair, {ParamValue(Ctx.getFloatType(64)),
             ParamValue(std::string("s"))});
  MatchContext MC(&Vars);
  EXPECT_TRUE(Either->matches(ParamValue(PairTy), MC));
  // T must NOT remain bound from the failed first branch.
  EXPECT_FALSE(MC.getBinding(0).has_value());
}

TEST_F(ConstraintTest, NotDoesNotLeakBindings) {
  std::vector<ConstraintPtr> Vars = {Constraint::anyType()};
  ConstraintPtr NotT =
      Constraint::negation(Constraint::var(0, "T"));
  MatchContext MC(&Vars);
  // Var matches (and binds) inside Not, so Not fails — and the binding is
  // rolled back.
  EXPECT_FALSE(NotT->matches(ParamValue(Ctx.getFloatType(32)), MC));
  EXPECT_FALSE(MC.getBinding(0).has_value());
}

TEST_F(ConstraintTest, CppAndNative) {
  // Bounded integer (Listing 10): uint32_t and <= 32.
  ConstraintPtr Bounded = Constraint::cpp(
      Constraint::intKind(32, Signedness::Unsigned),
      [](const ParamValue &V) { return V.getInt().Value <= 32; },
      "$_self <= 32");
  EXPECT_TRUE(matches(
      Bounded, ParamValue(IntVal{32, Signedness::Unsigned, 16})));
  EXPECT_FALSE(matches(
      Bounded, ParamValue(IntVal{32, Signedness::Unsigned, 64})));
  EXPECT_TRUE(Bounded->requiresCpp());

  ConstraintPtr Native = Constraint::native(
      Constraint::anyParam(),
      [](const ParamValue &V) { return V.isString(); }, "is-string");
  EXPECT_TRUE(matches(Native, ParamValue(std::string("x"))));
  EXPECT_FALSE(matches(Native, ParamValue(IntVal{})));
  EXPECT_TRUE(Native->requiresCpp());
}

TEST_F(ConstraintTest, RequiresCppPropagates) {
  ConstraintPtr Plain = Constraint::typeEq(Ctx.getFloatType(32));
  EXPECT_FALSE(Plain->requiresCpp());
  ConstraintPtr Nested = Constraint::anyOf(
      {Plain, Constraint::cpp(Constraint::anyParam(),
                              [](const ParamValue &) { return true; },
                              "true")});
  EXPECT_TRUE(Nested->requiresCpp());
}

TEST_F(ConstraintTest, ConcreteValueDerivation) {
  MatchContext MC;
  // Fully concrete parametric type.
  ConstraintPtr C = Constraint::typeConstraint(
      Complex, {Constraint::typeEq(Ctx.getFloatType(32))},
      /*BaseOnly=*/false);
  auto V = C->concreteValue(MC, Ctx);
  ASSERT_TRUE(V.has_value());
  EXPECT_EQ(V->getType(), complexOf(Ctx.getFloatType(32)));

  // AnyOf is not derivable.
  ConstraintPtr Either =
      Constraint::anyOf({Constraint::typeEq(Ctx.getFloatType(32)),
                         Constraint::typeEq(Ctx.getFloatType(64))});
  EXPECT_FALSE(Either->concreteValue(MC, Ctx).has_value());

  // Var derives from its binding.
  std::vector<ConstraintPtr> Vars = {Constraint::anyType()};
  MatchContext MC2(&Vars);
  ConstraintPtr T = Constraint::var(0, "T");
  EXPECT_FALSE(T->concreteValue(MC2, Ctx).has_value());
  MC2.bind(0, ParamValue(Ctx.getFloatType(64)));
  auto TV = T->concreteValue(MC2, Ctx);
  ASSERT_TRUE(TV.has_value());
  EXPECT_EQ(TV->getType(), Ctx.getFloatType(64));
}

TEST_F(ConstraintTest, Printing) {
  EXPECT_EQ(Constraint::anyType()->str(), "!AnyType");
  EXPECT_EQ(Constraint::anyAttr()->str(), "#AnyAttr");
  EXPECT_EQ(Constraint::intKind(32, Signedness::Unsigned)->str(),
            "uint32_t");
  EXPECT_EQ(Constraint::intKind(8, Signedness::Signed)->str(), "int8_t");
  EXPECT_EQ(Constraint::stringKind()->str(), "string");
  EXPECT_EQ(Constraint::stringEq("x")->str(), "\"x\"");
  EXPECT_EQ(Constraint::typeConstraint(Complex, {}, true)->str(),
            "!cmath.complex");
  EXPECT_EQ(Constraint::var(3, "T")->str(), "!T");
  ConstraintPtr Combo = Constraint::anyOf(
      {Constraint::typeEq(Ctx.getFloatType(32)),
       Constraint::typeEq(Ctx.getFloatType(64))});
  EXPECT_EQ(Combo->str(), "AnyOf<!builtin.f32, !builtin.f64>");
}

} // namespace
