//===- SegmentsTest.cpp - Variadic operand/result segmentation ----------===//

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "irdl/IRDL.h"
#include "irdl/Registration.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class SegmentsTest : public ::testing::Test {
protected:
  SegmentsTest() : Diags(&SrcMgr) {
    Module = loadIRDL(Ctx, R"(
      Dialect seg {
        Operation fixed { Operands (a: !f32, b: !f32) }
        Operation one_variadic {
          Operands (pre: !f32, rest: Variadic<!i32>)
        }
        Operation one_optional {
          Operands (x: Optional<!f32>, y: !i32)
        }
        Operation two_variadic {
          Operands (xs: Variadic<!f32>, ys: Variadic<!i32>)
        }
        Operation variadic_results {
          Results (outs: Variadic<!f32>)
        }
        Operation fixed_results { Results (r: !f32, s: !i32) }
        Operation mixed_results {
          Results (first: !i32, outs: Variadic<!f32>)
        }
        Operation two_variadic_results {
          Results (xs: Variadic<!f32>, ys: Variadic<!i32>)
        }
        Operation fixed_args {
          Region body { Arguments (i: !i32, x: !f32) }
        }
        Operation variadic_args {
          Region body { Arguments (i: !i32, rest: Variadic<!f32>) }
        }
        Operation two_variadic_args {
          Region body { Arguments (xs: Variadic<!f32>, ys: Variadic<!i32>) }
        }
      }
    )",
                      SrcMgr, Diags);
  }

  /// Builds a seg.<name> op with float/int operands per the pattern
  /// string: 'f' -> f32 value, 'i' -> i32 value.
  Operation *build(std::string_view Name, std::string_view Pattern,
                   NamedAttrList Attrs = {},
                   std::vector<Type> Results = {}) {
    Dialect *T = Ctx.getOrCreateDialect("tst");
    OpDefinition *Src = T->lookupOp("src");
    if (!Src)
      Src = T->addOp("src");
    std::vector<Value> Operands;
    for (char C : Pattern) {
      OperationState S(Ctx, Src);
      S.ResultTypes = {C == 'f' ? Ctx.getFloatType(32)
                                : Ctx.getIntegerType(32)};
      Operation *Op = Operation::create(S);
      Sources.push_back(Op);
      Operands.push_back(Op->getResult(0));
    }
    OperationState S(Ctx, Ctx.resolveOpDef(std::string("seg.") +
                                           std::string(Name)));
    S.Operands = std::move(Operands);
    S.Attributes = std::move(Attrs);
    S.ResultTypes = std::move(Results);
    Operation *Op = Operation::create(S);
    Built.push_back(Op);
    return Op;
  }

  /// Builds a seg.<name> op with one single-block region whose entry
  /// arguments follow \p Pattern ('f' -> f32, 'i' -> i32).
  Operation *buildWithRegion(std::string_view Name, std::string_view Pattern,
                             NamedAttrList Attrs = {}) {
    std::vector<Type> ArgTypes;
    for (char C : Pattern)
      ArgTypes.push_back(C == 'f' ? Ctx.getFloatType(32)
                                  : Ctx.getIntegerType(32));
    OperationState S(Ctx, Ctx.resolveOpDef(std::string("seg.") +
                                           std::string(Name)));
    S.Attributes = std::move(Attrs);
    S.addRegion()->push_back(Block::create(Ctx, ArgTypes));
    Operation *Op = Operation::create(S);
    Built.push_back(Op);
    return Op;
  }

  /// Verifies \p Op, which must fail, and returns its one diagnostic.
  std::string failureMessage(Operation *Op) {
    if (succeeded(verify(Op)))
      return "<verified>";
    if (VDiags.getDiagnostics().size() != 1)
      return "<" + std::to_string(VDiags.getDiagnostics().size()) +
             " diagnostics>";
    return VDiags.getDiagnostics().front().getMessage();
  }

  static NamedAttrList segmentAttr(IRContext &Ctx, std::string_view Name,
                                   std::vector<Attribute> Sizes) {
    NamedAttrList Attrs;
    Attrs.set(Name, Ctx.getArrayAttr(std::move(Sizes)));
    return Attrs;
  }

  LogicalResult verify(Operation *Op) {
    VDiags.clear();
    return Op->getDef()->getVerifier()(Op, VDiags);
  }

  ~SegmentsTest() override {
    for (Operation *Op : Built)
      Op->destroy();
    for (Operation *Op : Sources)
      Op->destroy();
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  DiagnosticEngine VDiags;
  std::unique_ptr<IRDLModule> Module;
  std::vector<Operation *> Sources;
  std::vector<Operation *> Built;
};

TEST_F(SegmentsTest, FixedArity) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("fixed", "ff"))));
  EXPECT_TRUE(failed(verify(build("fixed", "f"))));
  EXPECT_TRUE(failed(verify(build("fixed", "fff"))));
}

TEST_F(SegmentsTest, SingleVariadicTakesSlack) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("one_variadic", "f"))))
      << VDiags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("one_variadic", "fi"))));
  EXPECT_TRUE(succeeded(verify(build("one_variadic", "fiii"))));
  // Missing the fixed operand.
  EXPECT_TRUE(failed(verify(build("one_variadic", ""))));
  // Wrong type inside the variadic group.
  EXPECT_TRUE(failed(verify(build("one_variadic", "fif"))));
}

TEST_F(SegmentsTest, OptionalBoundsSlack) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("one_optional", "i"))))
      << VDiags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("one_optional", "fi"))));
  EXPECT_TRUE(failed(verify(build("one_optional", "ffi"))));
}

TEST_F(SegmentsTest, TwoVariadicsRequireSegmentAttr) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  // Without the attribute: rejected (ambiguous).
  EXPECT_TRUE(failed(verify(build("two_variadic", "ffii"))));
  EXPECT_NE(VDiags.renderAll().find("operandSegmentSizes"),
            std::string::npos);

  // With the attribute: accepted when consistent.
  NamedAttrList Attrs;
  Attrs.set("operandSegmentSizes",
            Ctx.getArrayAttr({Ctx.getIntegerAttr(2, 32),
                              Ctx.getIntegerAttr(2, 32)}));
  EXPECT_TRUE(succeeded(verify(build("two_variadic", "ffii", Attrs))))
      << VDiags.renderAll();

  // Sizes that do not sum to the operand count.
  NamedAttrList Bad;
  Bad.set("operandSegmentSizes",
          Ctx.getArrayAttr({Ctx.getIntegerAttr(1, 32),
                            Ctx.getIntegerAttr(2, 32)}));
  EXPECT_TRUE(failed(verify(build("two_variadic", "ffii", Bad))));

  // Segmentation that mismatches the element types.
  NamedAttrList Shifted;
  Shifted.set("operandSegmentSizes",
              Ctx.getArrayAttr({Ctx.getIntegerAttr(3, 32),
                                Ctx.getIntegerAttr(1, 32)}));
  EXPECT_TRUE(failed(verify(build("two_variadic", "ffii", Shifted))));
}

TEST_F(SegmentsTest, VariadicResults) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(build("variadic_results", "", {}, {}))));
  EXPECT_TRUE(succeeded(verify(build(
      "variadic_results", "", {},
      {Ctx.getFloatType(32), Ctx.getFloatType(32)}))));
  EXPECT_TRUE(failed(verify(build("variadic_results", "", {},
                                  {Ctx.getIntegerType(32)}))));
}

// The exact count-mismatch diagnostics of the generated op verifier.

TEST_F(SegmentsTest, OperandCountDiagnostics) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_EQ(failureMessage(build("fixed", "fff")),
            "'seg.fixed' operand count mismatch: expected 2 but found 3");
  EXPECT_EQ(failureMessage(build("fixed", "")),
            "'seg.fixed' operand count mismatch: expected 2 but found 0");
  EXPECT_EQ(failureMessage(build("one_variadic", "")),
            "'seg.one_variadic' operand count mismatch: expected at least 1 "
            "but found 0");
  EXPECT_EQ(failureMessage(build("one_optional", "ffi")),
            "'seg.one_optional' operand count mismatch: optional definition "
            "'x' matches at most one, but 2 remain");
  EXPECT_EQ(failureMessage(build("fixed", "fi")),
            "operand 'b' of 'seg.fixed' (type i32) does not satisfy "
            "constraint !builtin.f32");
  EXPECT_EQ(failureMessage(build("one_variadic", "fif")),
            "operand 'rest' of 'seg.one_variadic' (type f32) does not "
            "satisfy constraint !builtin.integer<32 : uint32_t, "
            "builtin.signedness.Signless>");
}

TEST_F(SegmentsTest, OperandSegmentSizesDiagnostics) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  auto I32 = [&](int64_t V) { return Ctx.getIntegerAttr(V, 32); };
  EXPECT_EQ(failureMessage(build("two_variadic", "ffii")),
            "'seg.two_variadic' operand count mismatch: multiple variadic "
            "definitions require the 'operandSegmentSizes' attribute");
  NamedAttrList NotArray;
  NotArray.set("operandSegmentSizes", I32(4));
  EXPECT_EQ(failureMessage(build("two_variadic", "ffii", NotArray)),
            "'seg.two_variadic' operand count mismatch: "
            "'operandSegmentSizes' must be an array attribute");
  EXPECT_EQ(failureMessage(build("two_variadic", "ffii",
                                 segmentAttr(Ctx, "operandSegmentSizes",
                                             {I32(4)}))),
            "'seg.two_variadic' operand count mismatch: "
            "'operandSegmentSizes' must have 2 entries");
  EXPECT_EQ(failureMessage(build(
                "two_variadic", "ffii",
                segmentAttr(Ctx, "operandSegmentSizes",
                            {I32(2), Ctx.getStringAttr("2")}))),
            "'seg.two_variadic' operand count mismatch: "
            "'operandSegmentSizes' entries must be integer attributes");
  EXPECT_EQ(failureMessage(build("two_variadic", "ffii",
                                 segmentAttr(Ctx, "operandSegmentSizes",
                                             {I32(-1), I32(5)}))),
            "'seg.two_variadic' operand count mismatch: segment size -1 is "
            "invalid for definition 'xs'");
  EXPECT_EQ(failureMessage(build("two_variadic", "ffii",
                                 segmentAttr(Ctx, "operandSegmentSizes",
                                             {I32(1), I32(2)}))),
            "'seg.two_variadic' operand count mismatch: segment sizes sum "
            "to 3 but 4 were found");
}

TEST_F(SegmentsTest, ResultCountDiagnostics) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  Type F32 = Ctx.getFloatType(32), I32 = Ctx.getIntegerType(32);
  EXPECT_EQ(failureMessage(build("fixed_results", "", {}, {F32})),
            "'seg.fixed_results' result count mismatch: expected 2 but "
            "found 1");
  EXPECT_EQ(failureMessage(build("fixed_results", "", {}, {F32, I32, I32})),
            "'seg.fixed_results' result count mismatch: expected 2 but "
            "found 3");
  EXPECT_EQ(failureMessage(build("mixed_results", "", {}, {})),
            "'seg.mixed_results' result count mismatch: expected at least 1 "
            "but found 0");
  EXPECT_EQ(failureMessage(build("mixed_results", "", {}, {I32, F32, I32})),
            "result 'outs' of 'seg.mixed_results' (type i32) does not "
            "satisfy constraint !builtin.f32");
  EXPECT_EQ(failureMessage(build("two_variadic_results", "", {}, {F32, I32})),
            "'seg.two_variadic_results' result count mismatch: multiple "
            "variadic definitions require the 'resultSegmentSizes' "
            "attribute");
  EXPECT_EQ(failureMessage(build(
                "two_variadic_results", "",
                segmentAttr(Ctx, "resultSegmentSizes",
                            {Ctx.getIntegerAttr(2, 32),
                             Ctx.getIntegerAttr(1, 32)}),
                {F32, I32})),
            "'seg.two_variadic_results' result count mismatch: segment "
            "sizes sum to 3 but 2 were found");
}

TEST_F(SegmentsTest, RegionArgumentDiagnostics) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verify(buildWithRegion("fixed_args", "if"))))
      << VDiags.renderAll();
  EXPECT_TRUE(succeeded(verify(buildWithRegion("variadic_args", "iff"))))
      << VDiags.renderAll();
  EXPECT_EQ(failureMessage(buildWithRegion("fixed_args", "ifi")),
            "region 'body' of 'seg.fixed_args' argument mismatch: expected 2 "
            "but found 3");
  EXPECT_EQ(failureMessage(buildWithRegion("variadic_args", "")),
            "region 'body' of 'seg.variadic_args' argument mismatch: "
            "expected at least 1 but found 0");
  EXPECT_EQ(failureMessage(buildWithRegion("fixed_args", "ii")),
            "argument 'x' of region 'body' does not satisfy constraint "
            "!builtin.f32");
  EXPECT_EQ(failureMessage(buildWithRegion("variadic_args", "ifi")),
            "argument 'rest' of region 'body' does not satisfy constraint "
            "!builtin.f32");
  EXPECT_EQ(failureMessage(buildWithRegion("two_variadic_args", "fi")),
            "region 'body' of 'seg.two_variadic_args' argument mismatch: "
            "multiple variadic definitions require the "
            "'argumentSegmentSizes' attribute");
  NamedAttrList Sizes =
      segmentAttr(Ctx, "argumentSegmentSizes",
                  {Ctx.getIntegerAttr(1, 32), Ctx.getIntegerAttr(1, 32)});
  EXPECT_TRUE(
      succeeded(verify(buildWithRegion("two_variadic_args", "fi", Sizes))))
      << VDiags.renderAll();
}

TEST_F(SegmentsTest, RegionCountDiagnostic) {
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  OperationState S(Ctx, Ctx.resolveOpDef("seg.fixed_results"));
  S.ResultTypes = {Ctx.getFloatType(32), Ctx.getIntegerType(32)};
  S.addRegion();
  Operation *Op = Operation::create(S);
  Built.push_back(Op);
  EXPECT_EQ(failureMessage(Op), "'seg.fixed_results' expects 0 regions but "
                                "has 1");
}

TEST_F(SegmentsTest, ComputeSegmentsDirect) {
  // Segmentation reads only the variadicity of each definition.
  std::vector<OperandSpec> Specs;
  Specs.push_back({"a", nullptr, VariadicKind::Single});
  Specs.push_back({"b", nullptr, VariadicKind::Variadic});
  std::string Err;
  OperationState S(Ctx, OperationName(std::string("x.y")));
  Operation *Op = Operation::create(S);
  auto Segments = computeSegments(Specs, 4, Op, "operandSegmentSizes", Err);
  ASSERT_TRUE(Segments.has_value()) << Err;
  EXPECT_EQ((*Segments)[0], std::make_pair(0u, 1u));
  EXPECT_EQ((*Segments)[1], std::make_pair(1u, 3u));
  Op->destroy();
}

} // namespace
