//===- IRDLParserTest.cpp - AST-level parser tests ----------------------===//

#include "irdl/IRDLParser.h"

#include <gtest/gtest.h>

using namespace irdl;
using namespace irdl::ast;

namespace {

class IRDLParserTest : public ::testing::Test {
protected:
  /// The dialects of \p Src, valid until the next parse.
  std::span<const DialectDecl> parse(std::string_view Src) {
    Ast = parseIRDL(Src, Diags);
    return Ast.Dialects;
  }

  DiagnosticEngine Diags;
  ParsedIRDL Ast;
};

/// Owned copies of \p Names, for comparisons.
std::vector<std::string> strs(std::span<const std::string_view> Names) {
  return {Names.begin(), Names.end()};
}

TEST_F(IRDLParserTest, EmptyDialect) {
  auto Dialects = parse("Dialect cmath { }");
  ASSERT_EQ(Dialects.size(), 1u);
  EXPECT_EQ(Dialects[0].Name, "cmath");
  EXPECT_TRUE(Dialects[0].Ops.empty());
}

TEST_F(IRDLParserTest, MultipleDialects) {
  auto Dialects = parse("Dialect a { } Dialect b { }");
  ASSERT_EQ(Dialects.size(), 2u);
  EXPECT_EQ(Dialects[1].Name, "b");
}

TEST_F(IRDLParserTest, TypeWithParameters) {
  auto Dialects = parse(R"(
    Dialect cmath {
      Type complex {
        Parameters (elementType: !FloatType)
        Summary "A complex number"
      }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  ASSERT_EQ(Dialects[0].TypesAndAttrs.size(), 1u);
  const TypeOrAttrDecl &T = Dialects[0].TypesAndAttrs[0];
  EXPECT_FALSE(T.IsAttr);
  EXPECT_EQ(T.Name, "complex");
  ASSERT_EQ(T.Params.size(), 1u);
  EXPECT_EQ(T.Params[0].Name, "elementType");
  EXPECT_EQ(T.Params[0].Constr->K, ConstraintExpr::Kind::Ref);
  EXPECT_EQ(T.Params[0].Constr->Sigil, '!');
  EXPECT_EQ(strs(T.Params[0].Constr->Path),
            std::vector<std::string>{"FloatType"});
  EXPECT_EQ(T.Summary, "A complex number");
}

TEST_F(IRDLParserTest, OperationFull) {
  auto Dialects = parse(R"(
    Dialect cmath {
      Operation mul {
        ConstraintVar (!T: !complex<FloatType>)
        Operands (lhs: !T, rhs: !T)
        Results (res: !T)
        Format "$lhs, $rhs : $T.elementType"
        Summary "Multiply two complex numbers"
      }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  ASSERT_EQ(Dialects[0].Ops.size(), 1u);
  const OpDecl &Op = Dialects[0].Ops[0];
  EXPECT_EQ(Op.Name, "mul");
  ASSERT_EQ(Op.ConstraintVars.size(), 1u);
  EXPECT_EQ(Op.ConstraintVars[0].Name, "T");
  EXPECT_TRUE(Op.ConstraintVars[0].Constr->HasArgs);
  ASSERT_EQ(Op.Operands.size(), 2u);
  EXPECT_EQ(Op.Operands[0].Name, "lhs");
  ASSERT_EQ(Op.Results.size(), 1u);
  EXPECT_TRUE(Op.HasFormat);
  EXPECT_EQ(Op.Format, "$lhs, $rhs : $T.elementType");
  EXPECT_FALSE(Op.Successors.has_value());
}

TEST_F(IRDLParserTest, SuccessorsEvenEmptyRecorded) {
  auto Dialects = parse(R"(
    Dialect d {
      Operation term { Successors () }
      Operation br { Successors (next) }
      Operation plain { }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  const auto &Ops = Dialects[0].Ops;
  ASSERT_EQ(Ops.size(), 3u);
  ASSERT_TRUE(Ops[0].Successors.has_value());
  EXPECT_TRUE(Ops[0].Successors->empty());
  ASSERT_TRUE(Ops[1].Successors.has_value());
  EXPECT_EQ(Ops[1].Successors->size(), 1u);
  EXPECT_FALSE(Ops[2].Successors.has_value());
}

TEST_F(IRDLParserTest, RegionWithTerminator) {
  auto Dialects = parse(R"(
    Dialect d {
      Operation range_loop {
        Operands (lower: !i32)
        Region body {
          Arguments (iv: !i32)
          Terminator range_loop_terminator
        }
      }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  const OpDecl &Op = Dialects[0].Ops[0];
  ASSERT_EQ(Op.Regions.size(), 1u);
  EXPECT_EQ(Op.Regions[0].Name, "body");
  ASSERT_EQ(Op.Regions[0].Args.size(), 1u);
  EXPECT_EQ(strs(Op.Regions[0].Terminator),
            std::vector<std::string>{"range_loop_terminator"});
}

TEST_F(IRDLParserTest, AliasForms) {
  auto Dialects = parse(R"(
    Dialect d {
      Alias !Complexf32 = !complex<!f32>
      Alias !ComplexOr<T> = AnyOf<!complex<!AnyType>, T>
      Alias #MyAttr = #f32_attr
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  const auto &Aliases = Dialects[0].Aliases;
  ASSERT_EQ(Aliases.size(), 3u);
  EXPECT_EQ(Aliases[0].Sigil, '!');
  EXPECT_TRUE(Aliases[0].Params.empty());
  EXPECT_EQ(strs(Aliases[1].Params), std::vector<std::string>{"T"});
  EXPECT_EQ(Aliases[2].Sigil, '#');
}

TEST_F(IRDLParserTest, EnumDecl) {
  auto Dialects = parse(R"(
    Dialect d {
      Enum signedness { Signless, Signed, Unsigned }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  ASSERT_EQ(Dialects[0].Enums.size(), 1u);
  EXPECT_EQ(strs(Dialects[0].Enums[0].Cases),
            (std::vector<std::string>{"Signless", "Signed", "Unsigned"}));
}

TEST_F(IRDLParserTest, ConstraintAndTypeOrAttrParam) {
  auto Dialects = parse(R"irdl(
    Dialect d {
      Constraint BoundedInteger : uint32_t {
        Summary "integer value between 0 and 32"
        CppConstraint "$_self <= 32"
      }
      TypeOrAttrParam StringParam {
        Summary "A string parameter"
        CppClassName "char*"
        CppParser "parseStringParam($self)"
        CppPrinter "printStringParam($self)"
      }
    }
  )irdl");
  ASSERT_EQ(Dialects.size(), 1u);
  ASSERT_EQ(Dialects[0].Constraints.size(), 1u);
  const ConstraintDecl &C = Dialects[0].Constraints[0];
  EXPECT_EQ(C.Name, "BoundedInteger");
  EXPECT_EQ(C.CppConstraint, "$_self <= 32");
  EXPECT_EQ(strs(C.Base->Path), std::vector<std::string>{"uint32_t"});
  ASSERT_EQ(Dialects[0].ParamTypes.size(), 1u);
  EXPECT_EQ(Dialects[0].ParamTypes[0].CppClassName, "char*");
}

TEST_F(IRDLParserTest, LiteralConstraints) {
  auto Dialects = parse(R"(
    Dialect d {
      Type t {
        Parameters (a: 3 : int32_t, b: "foo", c: [string, int8_t],
                    d: -7, e: 2.5 : float32_t)
      }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u) << Diags.renderAll();
  const auto &Params = Dialects[0].TypesAndAttrs[0].Params;
  ASSERT_EQ(Params.size(), 5u);
  EXPECT_EQ(Params[0].Constr->K, ConstraintExpr::Kind::IntLit);
  EXPECT_EQ(Params[0].Constr->IntValue, 3);
  EXPECT_EQ(strs(Params[0].Constr->KindRef),
            std::vector<std::string>{"int32_t"});
  EXPECT_EQ(Params[1].Constr->K, ConstraintExpr::Kind::StrLit);
  EXPECT_EQ(Params[2].Constr->K, ConstraintExpr::Kind::ArrayExact);
  EXPECT_EQ(Params[2].Constr->Args.size(), 2u);
  EXPECT_EQ(Params[3].Constr->IntValue, -7);
  EXPECT_EQ(Params[4].Constr->K, ConstraintExpr::Kind::FloatLit);
  EXPECT_EQ(Params[4].Constr->FloatValue, 2.5);
}

TEST_F(IRDLParserTest, NestedConstraintArgs) {
  auto Dialects = parse(R"(
    Dialect d {
      Operation op {
        Operands (x: AnyOf<!f32, And<!i32, Not<!i64>>>)
      }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  const ConstraintExpr &E = *Dialects[0].Ops[0].Operands[0].Constr;
  EXPECT_EQ(strs(E.Path), std::vector<std::string>{"AnyOf"});
  ASSERT_EQ(E.Args.size(), 2u);
  EXPECT_EQ(strs(E.Args[1]->Path), std::vector<std::string>{"And"});
  ASSERT_EQ(E.Args[1]->Args.size(), 2u);
  EXPECT_EQ(strs(E.Args[1]->Args[1]->Path), std::vector<std::string>{"Not"});
}

TEST_F(IRDLParserTest, Comments) {
  auto Dialects = parse(R"(
    // Leading comment.
    Dialect d { // trailing
      // Inside.
      Operation op { }
    }
  )");
  ASSERT_EQ(Dialects.size(), 1u);
  EXPECT_EQ(Dialects[0].Ops.size(), 1u);
}

TEST_F(IRDLParserTest, Errors) {
  EXPECT_TRUE(parse("Dialect {").empty());
  EXPECT_TRUE(Diags.hadError());
  Diags.clear();

  EXPECT_TRUE(parse("NotADialect foo {}").empty());
  Diags.clear();

  EXPECT_TRUE(parse("Dialect d { Operation op { Bogus () } }").empty());
  Diags.clear();

  EXPECT_TRUE(parse("Dialect d { Type t { Parameters (x !f32) } }")
                  .empty());
  Diags.clear();

  EXPECT_TRUE(parse("Dialect d { Operation op { Format 32 } }").empty());
  Diags.clear();

  // Unterminated body.
  EXPECT_TRUE(parse("Dialect d { Operation op {").empty());
}

} // namespace
