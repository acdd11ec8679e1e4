//===- FormatTest.cpp - Declarative format compilation -------------------===//

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class FormatTest : public ::testing::Test {
protected:
  FormatTest() : Diags(&SrcMgr) {}

  std::unique_ptr<IRDLModule> load(std::string_view Src) {
    return loadIRDL(Ctx, Src, SrcMgr, Diags);
  }

  OwningOpRef parse(std::string_view Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
};

TEST_F(FormatTest, OperandsFromManyArgumentBlocks) {
  // Past four arguments a block moves its argument array out of line; a
  // custom-format op must still resolve its operands to the live
  // arguments of an entry and of a labelled block.
  auto M = load(R"(
    Dialect f {
      Operation pass {
        Operands (in: !f32)
        Results (out: !f32)
        Format "$in"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  auto Args = [](const std::string &Prefix) {
    std::string Text;
    for (unsigned I = 0; I != 9; ++I)
      Text += (I ? ", %" : "%") + Prefix + std::to_string(I) + ": f32";
    return Text;
  };
  OwningOpRef IR = parse("std.func @f(" + Args("a") +
                         ") {\n"
                         "  %x = f.pass %a0\n"
                         "  \"std.br\"()[^next] : () -> ()\n"
                         "^next(" +
                         Args("b") +
                         "):\n"
                         "  %y = f.pass %b4\n"
                         "  \"std.return\"() : () -> ()\n"
                         "}\n");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  Region &Body = IR->getRegion(0).front().front().getRegion(0);
  Block &Entry = Body.front();
  Block &Next = *Entry.getNextNode();
  EXPECT_EQ(Entry.front().getOperand(0), Entry.getArgument(0));
  EXPECT_EQ(Next.front().getOperand(0), Next.getArgument(4));
  DiagnosticEngine VDiags;
  EXPECT_TRUE(succeeded(IR->verify(VDiags))) << VDiags.renderAll();
}

TEST_F(FormatTest, SimpleOperandFormat) {
  auto M = load(R"(
    Dialect f {
      Operation pass {
        Operands (in: !f32)
        Results (out: !f32)
        Format "$in"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parse(R"(
    %x = std.constant 1.0 : f32
    %y = f.pass %x
  )");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  std::string Text = printOpToString(IR.get());
  EXPECT_NE(Text.find("f.pass %"), std::string::npos);
  // The result type f32 was inferred from the constraint.
  Operation *Pass = nullptr;
  IR->walk([&](Operation *Op) {
    if (Op->getName().str() == "f.pass")
      Pass = Op;
  });
  ASSERT_NE(Pass, nullptr);
  EXPECT_EQ(Pass->getResult(0).getType(), Ctx.getFloatType(32));
}

TEST_F(FormatTest, KeywordAndPunctuationLiterals) {
  auto M = load(R"(
    Dialect f {
      Operation move {
        Operands (src: !f32, dst: !f32)
        Format "$src to $dst"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parse(R"(
    %a = std.constant 1.0 : f32
    %b = std.constant 2.0 : f32
    f.move %a to %b
  )");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  std::string Text = printOpToString(IR.get());
  EXPECT_NE(Text.find("f.move %"), std::string::npos);
  EXPECT_NE(Text.find(" to %"), std::string::npos);

  // Missing the keyword is a parse error.
  OwningOpRef Bad = parse(R"(
    %a = std.constant 1.0 : f32
    f.move %a %a
  )");
  EXPECT_FALSE(static_cast<bool>(Bad));
  Diags.clear();
}

TEST_F(FormatTest, VarParamInference) {
  // The paper's mul: T reconstructed from its elementType parameter.
  auto M = load(R"(
    Dialect f {
      Type box { Parameters (elem: !AnyOf<!f32, !f64>) }
      Operation wrap {
        ConstraintVars (!E: !AnyOf<!f32, !f64>, !T: !box<E>)
        Operands (v: !E)
        Results (res: !T)
        Format "$v into $E"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parse(R"(
    %x = std.constant 1.5 : f64
    %b = f.wrap %x into f64
  )");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  Operation *Wrap = nullptr;
  IR->walk([&](Operation *Op) {
    if (Op->getName().str() == "f.wrap")
      Wrap = Op;
  });
  ASSERT_NE(Wrap, nullptr);
  Type Box = Ctx.getType(Ctx.resolveTypeDef("f.box"),
                         {ParamValue(Ctx.getFloatType(64))});
  EXPECT_EQ(Wrap->getResult(0).getType(), Box);

  // Round trip.
  std::string Text = printOpToString(IR.get());
  EXPECT_NE(Text.find("into f64"), std::string::npos);
  OwningOpRef IR2 = parse(Text);
  ASSERT_TRUE(static_cast<bool>(IR2)) << Text << Diags.renderAll();
  EXPECT_EQ(printOpToString(IR2.get()), Text);
}

TEST_F(FormatTest, AttrDirective) {
  auto M = load(R"(
    Dialect f {
      Operation imm {
        Results (res: !f32)
        Attributes (value: #f32_attr)
        Format "$value"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parse("%c = f.imm 2.5 : f32");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  Operation &Imm = IR->getRegion(0).front().front();
  EXPECT_EQ(Imm.getAttr("value"), Ctx.getFloatAttr(2.5, 32));
  DiagnosticEngine V;
  EXPECT_TRUE(succeeded(IR->verify(V))) << V.renderAll();
}

TEST_F(FormatTest, UnknownDirectiveRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Operands (x: !f32) Format "$nope" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("unknown directive"),
            std::string::npos);
}

TEST_F(FormatTest, MissingOperandRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Operands (x: !f32, y: !f32) Format "$x" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("does not appear in the format"),
            std::string::npos);
}

TEST_F(FormatTest, DuplicateOperandRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Operands (x: !f32) Format "$x $x" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("appears twice"), std::string::npos);
}

TEST_F(FormatTest, UninferableTypeRejected) {
  // AnyType operand with no type directive: nothing pins the type down.
  auto M = load(R"(
    Dialect f {
      Operation bad { Operands (x: !AnyType) Format "$x" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("cannot be inferred"),
            std::string::npos);
}

TEST_F(FormatTest, VariadicRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Operands (xs: Variadic<!f32>) Format "$xs" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("variadic"), std::string::npos);
}

TEST_F(FormatTest, RegionsRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Region body { } Format "x" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("regions are not supported"),
            std::string::npos);
}

TEST_F(FormatTest, ResultDirectiveRejected) {
  auto M = load(R"(
    Dialect f {
      Operation bad { Results (r: !f32) Format "$r" }
    }
  )");
  EXPECT_EQ(M, nullptr);
  EXPECT_NE(Diags.renderAll().find("results cannot appear"),
            std::string::npos);
}

TEST_F(FormatTest, VarDirectiveBindsWholeType) {
  // $T parses a full type expression and both operands use it.
  auto M = load(R"(
    Dialect f {
      Type box { Parameters (elem: !AnyType) }
      Operation eat {
        ConstraintVar (!T: !box<AnyType>)
        Operands (a: !T, b: !T)
        Format "$a, $b : $T"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parse(R"(
    std.func @g(%x: !f.box<i32>) {
      f.eat %x, %x : !f.box<i32>
      std.return
    }
  )");
  ASSERT_TRUE(static_cast<bool>(IR)) << Diags.renderAll();
  DiagnosticEngine V;
  EXPECT_TRUE(succeeded(IR->verify(V))) << V.renderAll();
  std::string Text = printOpToString(IR.get());
  EXPECT_NE(Text.find("f.eat %0, %0 : !f.box<i32>"), std::string::npos);
}

TEST_F(FormatTest, WrongTypeAtUseSiteDiagnosed) {
  auto M = load(R"(
    Dialect f {
      Operation pass {
        Operands (in: !f32)
        Results (out: !f32)
        Format "$in"
      }
    }
  )");
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  // %x is i32; the format infers the operand type f32 -> mismatch.
  OwningOpRef IR = parse(R"(
    %x = std.constant 1 : i32
    %y = f.pass %x
  )");
  EXPECT_FALSE(static_cast<bool>(IR));
  EXPECT_NE(Diags.renderAll().find("has type i32 but is used as f32"),
            std::string::npos);
}

} // namespace
