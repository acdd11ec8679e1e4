//===- SemaTest.cpp - IRDL name resolution semantics --------------------===//

#include "ir/Context.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class SemaTest : public ::testing::Test {
protected:
  SemaTest() : Diags(&SrcMgr) {}

  std::unique_ptr<IRDLModule> load(std::string_view Src,
                                   IRDLLoadOptions Opts = {}) {
    return loadIRDL(Ctx, Src, SrcMgr, Diags, Opts);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

TEST_F(SemaTest, AliasExpansion) {
  auto M = load(R"(
    Dialect d {
      Alias !FloatType = !AnyOf<!f32, !f64>
      Type t { Parameters (e: !FloatType) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const TypeOrAttrSpec *T = M->lookupDialect("d")->lookupType("t");
  ASSERT_NE(T, nullptr);
  EXPECT_EQ(T->Params[0].Constr->str(),
            "AnyOf<!builtin.f32, !builtin.f64>");
}

TEST_F(SemaTest, ParametricAlias) {
  auto M = load(R"(
    Dialect d {
      Type complex { Parameters (e: !AnyType) }
      Alias !ComplexOr<T> = AnyOf<!complex<!AnyType>, T>
      Operation op { Operands (x: !ComplexOr<!f32>) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  ASSERT_NE(Op, nullptr);
  EXPECT_EQ(Op->Operands[0].Constr->str(),
            "AnyOf<!d.complex<!AnyType>, !builtin.f32>");
}

TEST_F(SemaTest, AliasArityChecked) {
  auto M = load(R"(
    Dialect d {
      Alias !A<T> = T
      Operation op { Operands (x: !A<!f32, !f64>) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(SemaTest, RecursiveAliasDiagnosed) {
  auto M = load(R"(
    Dialect d {
      Alias !A = !B
      Alias !B = !A
      Operation op { Operands (x: !A) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_TRUE(Diags.hadError());
}

TEST_F(SemaTest, CrossDialectReferences) {
  auto M = load(R"(
    Dialect base {
      Type scalar { Parameters (width: uint32_t) }
      Enum mode { Fast, Safe }
    }
    Dialect user {
      Operation op {
        Operands (x: !base.scalar<uint32_t>)
        Attributes (m: base.mode)
      }
      Type wrapper { Parameters (inner: !base.scalar, m: base.mode.Fast) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const DialectSpec *User = M->lookupDialect("user");
  EXPECT_EQ(User->lookupOp("op")->Operands[0].Constr->str(),
            "!base.scalar<uint32_t>");
  EXPECT_EQ(User->lookupType("wrapper")->Params[1].Constr->str(),
            "base.mode.Fast");
}

TEST_F(SemaTest, NamespaceElision) {
  // Bare names search current dialect, then builtin, then std.
  auto M = load(R"(
    Dialect d {
      Type mine { Parameters (x: !AnyType) }
      Operation op {
        Operands (a: !mine, b: !f32, c: !integer<uint32_t, signedness>)
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  EXPECT_EQ(Op->Operands[0].Constr->str(), "!d.mine");
  EXPECT_EQ(Op->Operands[1].Constr->str(), "!builtin.f32");
  EXPECT_EQ(Op->Operands[2].Constr->str(),
            "!builtin.integer<uint32_t, builtin.signedness>");
}

TEST_F(SemaTest, IntegerSugarConstraints) {
  auto M = load(R"(
    Dialect d {
      Operation op { Operands (a: !i32, b: !si8, c: !ui16, d: !index) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  // i32 expands to the parametric integer constraint.
  EXPECT_EQ(Op->Operands[0].Constr->getKind(),
            Constraint::Kind::TypeParams);
  EXPECT_EQ(Op->Operands[3].Constr->str(), "!builtin.index");

  // And they actually match the right types.
  MatchContext MC;
  EXPECT_TRUE(Op->Operands[0].Constr->matches(
      ParamValue(Ctx.getIntegerType(32)), MC));
  EXPECT_FALSE(Op->Operands[0].Constr->matches(
      ParamValue(Ctx.getIntegerType(64)), MC));
  EXPECT_TRUE(Op->Operands[1].Constr->matches(
      ParamValue(Ctx.getIntegerType(8, Signedness::Signed)), MC));
}

TEST_F(SemaTest, EnumConstructorResolution) {
  auto M = load(R"(
    Dialect d {
      Enum signedness2 { Signless, Signed, Unsigned }
      Type integer2 {
        Parameters (bitwidth: uint32_t, signed: signedness2)
      }
      Alias !signed_integer2 = !integer2<uint32_t, signedness2.Signed>
      Operation op { Operands (x: !signed_integer2) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  EXPECT_EQ(Op->Operands[0].Constr->str(),
            "!d.integer2<uint32_t, d.signedness2.Signed>");
}

TEST_F(SemaTest, UnknownEnumCaseDiagnosed) {
  auto M = load(R"(
    Dialect d {
      Enum e { A, B }
      Type t { Parameters (x: e.C) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("not a constructor"),
            std::string::npos);
}

TEST_F(SemaTest, UnknownConstraintDiagnosed) {
  auto M = load("Dialect d { Operation op { Operands (x: !nothing) } }");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("unknown constraint"),
            std::string::npos);
}

TEST_F(SemaTest, ParamCountMismatchDiagnosed) {
  auto M = load(R"(
    Dialect d {
      Type t { Parameters (a: !AnyType, b: uint32_t) }
      Operation op { Operands (x: !t<!f32>) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("2 parameters"), std::string::npos);
}

TEST_F(SemaTest, DuplicateDefinitionsDiagnosed) {
  EXPECT_EQ(load("Dialect d { Type t {} Type t {} }"), nullptr);
  Diags.clear();
  EXPECT_EQ(load("Dialect d { Operation o {} Operation o {} }"), nullptr);
  Diags.clear();
  EXPECT_EQ(load("Dialect d {} Dialect d {}"), nullptr);
  Diags.clear();
  // Extending a pre-registered dialect is allowed, but clashing component
  // names are rejected.
  EXPECT_NE(load("Dialect builtin { Type fancy {} }"), nullptr);
  EXPECT_EQ(load("Dialect std { Operation func {} }"), nullptr);
}

TEST_F(SemaTest, VariadicOnlyAtTopLevel) {
  auto M = load(R"(
    Dialect d {
      Operation op { Operands (x: AnyOf<Variadic<!f32>, !f64>) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("only allowed at the top level"),
            std::string::npos);
}

TEST_F(SemaTest, ConstraintVarsAcrossDirectives) {
  auto M = load(R"(
    Dialect d {
      Operation op {
        ConstraintVars (T: !AnyType, U: !AnyType)
        Operands (a: !T, b: !U)
        Results (r: !T)
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  EXPECT_EQ(std::vector<std::string_view>(Op->VarNames.begin(),
                                          Op->VarNames.end()),
            (std::vector<std::string_view>{"T", "U"}));
  EXPECT_EQ(Op->Operands[0].Constr->getKind(), Constraint::Kind::Var);
  EXPECT_EQ(Op->Results[0].Constr->getVarIndex(), 0u);
}

TEST_F(SemaTest, NamedConstraintWithCpp) {
  auto M = load(R"(
    Dialect d {
      Constraint BoundedInteger : uint32_t {
        Summary "integer value between 0 and 32"
        CppConstraint "$_self <= 32"
      }
      Type BoundedVector {
        Parameters (typ: !AnyType, size: BoundedInteger)
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const TypeOrAttrSpec *T =
      M->lookupDialect("d")->lookupType("BoundedVector");
  ASSERT_NE(T, nullptr);
  EXPECT_TRUE(T->Params[1].Constr->requiresCpp());

  MatchContext MC;
  EXPECT_TRUE(T->Params[1].Constr->matches(
      ParamValue(IntVal{32, Signedness::Unsigned, 16}), MC));
  EXPECT_FALSE(T->Params[1].Constr->matches(
      ParamValue(IntVal{32, Signedness::Unsigned, 64}), MC));

  // The dialect-level classification (Figure 9) sees the C++ use.
  EXPECT_TRUE(T->requiresCppParams());
}

TEST_F(SemaTest, NativeConstraintHookup) {
  IRDLLoadOptions Opts;
  Opts.NativeConstraints["is_power_of_two"] =
      [](const ParamValue &V) {
        if (!V.isInt())
          return false;
        int64_t X = V.getInt().Value;
        return X > 0 && (X & (X - 1)) == 0;
      };
  auto M = load(R"(
    Dialect d {
      Constraint Pow2 : uint32_t { CppConstraint "native:is_power_of_two" }
      Type t { Parameters (n: Pow2) }
    }
  )",
                Opts);
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const TypeOrAttrSpec *T = M->lookupDialect("d")->lookupType("t");
  MatchContext MC;
  EXPECT_TRUE(T->Params[0].Constr->matches(
      ParamValue(IntVal{32, Signedness::Unsigned, 8}), MC));
  EXPECT_FALSE(T->Params[0].Constr->matches(
      ParamValue(IntVal{32, Signedness::Unsigned, 6}), MC));
}

TEST_F(SemaTest, MissingNativeConstraintDiagnosed) {
  auto M = load(R"(
    Dialect d {
      Constraint C : uint32_t { CppConstraint "native:nope" }
      Type t { Parameters (n: C) }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("no native constraint"),
            std::string::npos);
}

TEST_F(SemaTest, TypeOrAttrParamBecomesOpaque) {
  auto M = load(R"irdl(
    Dialect d {
      TypeOrAttrParam StringParam {
        Summary "A string parameter"
        CppClassName "char*"
        CppParser "parseStringParam($self)"
        CppPrinter "printStringParam($self)"
      }
      Attribute StringAttr { Parameters (data: StringParam) }
    }
  )irdl");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const TypeOrAttrSpec *A = M->lookupDialect("d")->lookupAttr("StringAttr");
  ASSERT_NE(A, nullptr);
  EXPECT_EQ(A->Params[0].Constr->getKind(), Constraint::Kind::OpaqueKind);
  EXPECT_TRUE(A->requiresCppParams());
  // A codec was registered.
  EXPECT_NE(Ctx.lookupOpaqueParamCodec("d.StringParam"), nullptr);

  MatchContext MC;
  EXPECT_TRUE(A->Params[0].Constr->matches(
      ParamValue(OpaqueVal{"d.StringParam", "payload"}), MC));
  EXPECT_FALSE(A->Params[0].Constr->matches(
      ParamValue(std::string("plain string")), MC));
}

TEST_F(SemaTest, LocationAndTypeIdBuiltins) {
  auto M = load(R"(
    Dialect d {
      Attribute loc_attr { Parameters (loc: location, id: type_id) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const TypeOrAttrSpec *A = M->lookupDialect("d")->lookupAttr("loc_attr");
  MatchContext MC;
  EXPECT_TRUE(A->Params[0].Constr->matches(
      ParamValue(OpaqueVal{"location", "f.c:1:2"}), MC));
  EXPECT_FALSE(A->Params[0].Constr->matches(
      ParamValue(OpaqueVal{"type_id", "x"}), MC));
}

TEST_F(SemaTest, F32AttrSugar) {
  auto M = load(R"(
    Dialect d {
      Operation op { Attributes (re: #f32_attr, im: #f64_attr) }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  const OpSpec *Op = M->lookupDialect("d")->lookupOp("op");
  MatchContext MC;
  EXPECT_TRUE(Op->Attributes[0].Constr->matches(
      ParamValue(Ctx.getFloatAttr(1.0, 32)), MC));
  EXPECT_FALSE(Op->Attributes[0].Constr->matches(
      ParamValue(Ctx.getFloatAttr(1.0, 64)), MC));
  EXPECT_TRUE(Op->Attributes[1].Constr->matches(
      ParamValue(Ctx.getFloatAttr(1.0, 64)), MC));
}

} // namespace
