//===- SpecGoldenTest.cpp - Byte-exact IRDL frontend output ------------===//
///
/// The IRDL frontend must produce the same specs and the same diagnostics
/// however it is implemented. For the bundled dialects and the synthetic
/// corpus, the printed spec (printDialectSpec) and its `.irbc` Specs
/// section (BytecodeWriter) must match the recorded size and FNV-1a hash
/// byte for byte. Each malformed spec must fail to load with exactly the
/// rendered diagnostics recorded here: messages, order, locations and
/// carets, from the parser, Sema and format installation.

#include "bytecode/Bytecode.h"
#include "common/TokenStreamHash.h"
#include "corpus/Corpus.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace irdl;

namespace {

/// The recorded output for one dialect: its printed spec and its
/// serialized Specs section, each as (size, FNV-1a).
struct SpecGolden {
  const char *Name;
  size_t TextSize;
  uint64_t TextHash;
  size_t BytesSize;
  uint64_t BytesHash;
};

void expectMatches(const SpecGolden &G, const DialectSpec &Spec,
                   const std::string &Text, const std::string &Bytes) {
  EXPECT_EQ(Spec.Name, G.Name);
  EXPECT_EQ(Text.size(), G.TextSize) << G.Name << ":\n" << Text;
  EXPECT_EQ(fnv1a(Text), G.TextHash) << G.Name << ":\n" << Text;
  EXPECT_EQ(Bytes.size(), G.BytesSize) << G.Name;
  EXPECT_EQ(fnv1a(Bytes), G.BytesHash) << G.Name;
}

const SpecGolden BundledGoldens[] = {
    {"cmath", 1781, 0x5ecf217eca3bf5ceull, 967, 0xe4f05ca9b65f8d3cull},
    {"arith", 2804, 0x1d6395c43867f9cbull, 1367, 0x68a3db46cb4502f6ull},
    {"complex", 4129, 0x5ac9b78bba0960a1ull, 1546, 0x416976273be3a583ull},
    {"math", 4191, 0x6d4a8a30efdfeafaull, 1447, 0x2b4ad22a6e4b0d58ull},
    {"scf", 1660, 0xcb8dc0464924e4f7ull, 744, 0x852301a73dad2b12ull},
};

/// Every dialect of the synthetic corpus, in load order.
const SpecGolden CorpusGoldens[] = {
    {"corpus_support", 205, 0x37f0ca7b262c404bull, 164, 0xf120a01a247067faull},
    {"builtin", 2509, 0x8135e8cf9c3ba1b4ull, 965, 0x10ce3da536f2127eull},
    {"arm_neon", 702, 0x1ee827cee1bc8ea9ull, 286, 0x46b80a17810595acull},
    {"emitc", 925, 0x41cc2b4c9bfa46cdull, 397, 0x95454e12fe8ce413ull},
    {"sparse_tensor", 2079, 0xa4228c672880fe32ull, 950, 0x73af3fcb4e830471ull},
    {"linalg", 2476, 0x50de2a196aa854e5ull, 937, 0xb2eaf6e60aae35bbull},
    {"scf", 2066, 0xe3bbebc592aac17eull, 590, 0x91c5901a00128d10ull},
    {"quant", 2271, 0x24f30a01b0a80ed8ull, 776, 0x6d6ac21e5b458de4ull},
    {"tensor", 2697, 0xf609288d5e966b78ull, 803, 0x7c8e8361b407095full},
    {"affine", 3103, 0x2d02ab55c3a46c23ull, 1037, 0x2640a11bfb9d9bf4ull},
    {"amx", 3543, 0xf25374ca31baa274ull, 1017, 0x46c19a83b45caf44ull},
    {"pdl", 3399, 0xd2811738942a6553ull, 1068, 0x4028961aa6f9e8f4ull},
    {"x86vector", 4031, 0x74dd616648fa87f2ull, 1142, 0x577cecd54eb6b261ull},
    {"complex", 2926, 0x3ee5173a3debb346ull, 846, 0xfe6511f8bd49a90cull},
    {"math", 3365, 0xc84fd9764ecd40caull, 952, 0x48648745e57662b6ull},
    {"async", 3782, 0xd7dc3dd1403b1ef6ull, 1249, 0x48de15f487b7bfeeull},
    {"nvvm", 3884, 0xeffec11f665da72eull, 1147, 0xb45c992a064235d8ull},
    {"memref", 6130, 0x4b99e052a93f8c23ull, 1737, 0xbffd3427b13ab87cull},
    {"gpu", 6165, 0xb5f3cb5a621f50b1ull, 1673, 0x530c8114570513b7ull},
    {"pdl_interp", 5878, 0xfca004a73231f272ull, 1685, 0xbd70caf4fdaceaf2ull},
    {"vector", 9404, 0xb68b47a8cb9f50baull, 2223, 0xcddf2a73a515edd1ull},
    {"arith", 7430, 0x253217b43c7a936aull, 1958, 0x3121d91f27ea93baull},
    {"rocdl", 6678, 0xaf23b73572db6375ull, 1917, 0x1c6e7fbb93616e51ull},
    {"shape", 9107, 0x0a5cd2ba7ced8496ull, 2335, 0xec69b42557124821ull},
    {"arm_sve", 12983, 0x8ef4a8bfbe6da87bull, 3325, 0xe5de4bac33e37ef7ull},
    {"std", 11696, 0xa053d97448435e2aull, 2941, 0x494d4f5ebdb6603dull},
    {"tosa", 14339, 0xcbd513cdcdb6f691ull, 3538, 0x3bffaa322fa5e5f3ull},
    {"llvm", 23700, 0x56dbb6cf9edf6f2cull, 7070, 0xcee526ae864ef09full},
    {"spv", 29835, 0xfc1674e453ba5c85ull, 7927, 0x3ccef5ec31b4972bull},
};

/// The whole corpus module written as one Specs section.
constexpr size_t CorpusModuleBytesSize = 41194;
constexpr uint64_t CorpusModuleBytesHash = 0x2a71ef0933925664ull;

TEST(SpecGoldenTest, BundledDialects) {
  // Loaded one after another into one context, as irdl_opt does.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  for (const SpecGolden &G : BundledGoldens) {
    auto M = loadIRDLFile(
        Ctx, std::string(IRDL_DIALECTS_DIR) + "/" + G.Name + ".irdl", SrcMgr,
        Diags);
    ASSERT_NE(M, nullptr) << Diags.renderAll();
    ASSERT_EQ(M->Dialects.size(), 1u);
    BytecodeWriter W;
    W.addModuleSpecs(*M);
    expectMatches(G, *M->Dialects[0], printDialectSpec(*M->Dialects[0]),
                  W.write());
  }
}

TEST(SpecGoldenTest, Corpus) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult R = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(R) << Diags.renderAll();
  const auto &Dialects = R.Module->Dialects;
  ASSERT_EQ(Dialects.size(), std::size(CorpusGoldens));
  for (size_t I = 0; I != Dialects.size(); ++I) {
    BytecodeWriter W;
    W.addDialectSpec(*Dialects[I]);
    expectMatches(CorpusGoldens[I], *Dialects[I],
                  printDialectSpec(*Dialects[I]), W.write());
  }
  BytecodeWriter W;
  W.addModuleSpecs(*R.Module);
  std::string Bytes = W.write();
  EXPECT_EQ(Bytes.size(), CorpusModuleBytesSize);
  EXPECT_EQ(fnv1a(Bytes), CorpusModuleBytesHash);
}

struct DiagGolden {
  const char *Name;
  const char *Source;
  const char *Expected;
};

void PrintTo(const DiagGolden &C, std::ostream *OS) { *OS << C.Name; }

class SpecDiagnosticGolden : public ::testing::TestWithParam<DiagGolden> {};

TEST_P(SpecDiagnosticGolden, RendersExactly) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  EXPECT_EQ(loadIRDL(Ctx, GetParam().Source, SrcMgr, Diags), nullptr);
  EXPECT_EQ(Diags.renderAll(), GetParam().Expected);
}

const DiagGolden DiagGoldens[] = {
    {"TopLevelGarbage", R"golden(Type t {})golden",
     R"golden(<irdl>:1:1: error: expected 'Dialect' at top level
Type t {}
^
)golden"},
    {"MissingDialectName", R"golden(Dialect {)golden",
     R"golden(<irdl>:1:9: error: expected dialect name
Dialect {
        ^
)golden"},
    {"MissingDialectBrace", R"golden(Dialect d Type)golden",
     R"golden(<irdl>:1:11: error: expected '{' to begin dialect
Dialect d Type
          ^
)golden"},
    {"UnknownDialectDirective", R"golden(Dialect d { Frobnicate x {} })golden",
     R"golden(<irdl>:1:13: error: unknown directive in dialect body
Dialect d { Frobnicate x {} }
            ^
)golden"},
    {"UnknownOpDirective", R"golden(Dialect d { Operation o { Wibble () } })golden",
     R"golden(<irdl>:1:27: error: unknown directive in operation body
Dialect d { Operation o { Wibble () } }
                          ^
)golden"},
    {"MissingOpName", R"golden(Dialect d { Operation { } })golden",
     R"golden(<irdl>:1:23: error: expected operation name
Dialect d { Operation { } }
                      ^
)golden"},
    {"ListWithoutParen", R"golden(Dialect d { Operation o { Operands x: !f32 } })golden",
     R"golden(<irdl>:1:36: error: expected '(' after Operands
Dialect d { Operation o { Operands x: !f32 } }
                                   ^
)golden"},
    {"ListNameMissing", R"golden(Dialect d { Operation o { Results (: !f32) } })golden",
     R"golden(<irdl>:1:36: error: expected name in Results
Dialect d { Operation o { Results (: !f32) } }
                                   ^
)golden"},
    {"ListColonMissing", R"golden(Dialect d { Operation o { Attributes (a #AnyAttr) } })golden",
     R"golden(<irdl>:1:41: error: expected ':' after name
Dialect d { Operation o { Attributes (a #AnyAttr) } }
                                        ^
)golden"},
    {"ListUnclosed", R"golden(Dialect d { Operation o { Operands (a: !f32 b: !f32) } })golden",
     R"golden(<irdl>:1:45: error: expected ')' after Operands
Dialect d { Operation o { Operands (a: !f32 b: !f32) } }
                                            ^
)golden"},
    {"VarListNameMissing", R"golden(Dialect d { Operation o { ConstraintVar (!: !f32) } })golden",
     R"golden(<irdl>:1:43: error: expected name in ConstraintVars
Dialect d { Operation o { ConstraintVar (!: !f32) } }
                                          ^
)golden"},
    {"ParamsUnclosed", R"golden(Dialect d { Type t { Parameters (a: !f32 } })golden",
     R"golden(<irdl>:1:42: error: expected ')' after Parameters
Dialect d { Type t { Parameters (a: !f32 } }
                                         ^
)golden"},
    {"RegionArgsUnclosed", R"golden(Dialect d { Operation o { Region r { Arguments (a: !f32 } } })golden",
     R"golden(<irdl>:1:57: error: expected ')' after Arguments
Dialect d { Operation o { Region r { Arguments (a: !f32 } } }
                                                        ^
)golden"},
    {"RegionUnknownDirective", R"golden(Dialect d { Operation o { Region r { Blocks 2 } } })golden",
     R"golden(<irdl>:1:38: error: expected Arguments or Terminator
Dialect d { Operation o { Region r { Blocks 2 } } }
                                     ^
)golden"},
    {"TerminatorPathBad", R"golden(Dialect d { Operation o { Region r { Terminator a. } } })golden",
     R"golden(<irdl>:1:52: error: expected identifier after '.'
Dialect d { Operation o { Region r { Terminator a. } } }
                                                   ^
)golden"},
    {"SuccessorNameBad", R"golden(Dialect d { Operation o { Successors (a, 3) } })golden",
     R"golden(<irdl>:1:42: error: expected successor name
Dialect d { Operation o { Successors (a, 3) } }
                                         ^
)golden"},
    {"SuccessorsUnclosed", R"golden(Dialect d { Operation o { Successors (a b) } })golden",
     R"golden(<irdl>:1:41: error: expected ')' after successors
Dialect d { Operation o { Successors (a b) } }
                                        ^
)golden"},
    {"IntegerLiteralAboveInt64", R"golden(Dialect d { Type t { Parameters (a: 9223372036854775808 : int64_t) } })golden",
     R"golden(<irdl>:1:37: error: integer literal out of range
Dialect d { Type t { Parameters (a: 9223372036854775808 : int64_t) } }
                                    ^
)golden"},
    {"IntegerLiteralBelowInt64", R"golden(Dialect d { Type t { Parameters (a: -9223372036854775809 : int64_t) } })golden",
     R"golden(<irdl>:1:38: error: integer literal out of range
Dialect d { Type t { Parameters (a: -9223372036854775809 : int64_t) } }
                                     ^
)golden"},
    {"MinusWithoutNumber", R"golden(Dialect d { Type t { Parameters (a: -x) } })golden",
     R"golden(<irdl>:1:38: error: expected numeric literal after '-'
Dialect d { Type t { Parameters (a: -x) } }
                                     ^
)golden"},
    {"LiteralKindMissing", R"golden(Dialect d { Type t { Parameters (a: 3 : ) } })golden",
     R"golden(<irdl>:1:41: error: expected literal kind
Dialect d { Type t { Parameters (a: 3 : ) } }
                                        ^
)golden"},
    {"ArrayUnclosed", R"golden(Dialect d { Type t { Parameters (a: [int32_t, int64_t) } })golden",
     R"golden(<irdl>:1:54: error: expected ']' in array constraint
Dialect d { Type t { Parameters (a: [int32_t, int64_t) } }
                                                     ^
)golden"},
    {"ArgsUnclosed", R"golden(Dialect d { Operation o { Operands (a: !AnyOf<!f32, !f64) } })golden",
     R"golden(<irdl>:1:57: error: expected '>' in constraint arguments
Dialect d { Operation o { Operands (a: !AnyOf<!f32, !f64) } }
                                                        ^
)golden"},
    {"PathAfterDot", R"golden(Dialect d { Operation o { Operands (a: !builtin.) } })golden",
     R"golden(<irdl>:1:49: error: expected identifier after '.'
Dialect d { Operation o { Operands (a: !builtin.) } }
                                                ^
)golden"},
    {"SummaryNeedsString", R"golden(Dialect d { Operation o { Summary 3 } })golden",
     R"golden(<irdl>:1:35: error: expected string literal after 'Summary'
Dialect d { Operation o { Summary 3 } }
                                  ^
)golden"},
    {"FormatNeedsString", R"golden(Dialect d { Operation o { Format x } })golden",
     R"golden(<irdl>:1:34: error: expected string literal after 'Format'
Dialect d { Operation o { Format x } }
                                 ^
)golden"},
    {"CppNeedsString", R"golden(Dialect d { Type t { CppConstraint x } })golden",
     R"golden(<irdl>:1:36: error: expected string literal after 'CppConstraint'
Dialect d { Type t { CppConstraint x } }
                                   ^
)golden"},
    {"TypeUnknownDirective", R"golden(Dialect d { Type t { Format "x" } })golden",
     R"golden(<irdl>:1:22: error: expected Parameters, Summary, or CppConstraint
Dialect d { Type t { Format "x" } }
                     ^
)golden"},
    {"AliasNameMissing", R"golden(Dialect d { Alias ! = !f32 })golden",
     R"golden(<irdl>:1:21: error: expected alias name
Dialect d { Alias ! = !f32 }
                    ^
)golden"},
    {"AliasParamBad", R"golden(Dialect d { Alias !A<3> = !f32 })golden",
     R"golden(<irdl>:1:22: error: expected alias parameter
Dialect d { Alias !A<3> = !f32 }
                     ^
)golden"},
    {"AliasParamsUnclosed", R"golden(Dialect d { Alias !A<T = !T })golden",
     R"golden(<irdl>:1:24: error: expected '>' after alias parameters
Dialect d { Alias !A<T = !T }
                       ^
)golden"},
    {"AliasEqualsMissing", R"golden(Dialect d { Alias !A !f32 })golden",
     R"golden(<irdl>:1:22: error: expected '=' in alias definition
Dialect d { Alias !A !f32 }
                     ^
)golden"},
    {"EnumCaseNotIdent", R"golden(Dialect d { Enum e { A, 3 } })golden",
     R"golden(<irdl>:1:25: error: expected enum constructor
Dialect d { Enum e { A, 3 } }
                        ^
)golden"},
    {"EnumUnclosed", R"golden(Dialect d { Enum e { A B } })golden",
     R"golden(<irdl>:1:24: error: expected '}' after enum cases
Dialect d { Enum e { A B } }
                       ^
)golden"},
    {"ConstraintColonMissing", R"golden(Dialect d { Constraint c !f32 { } })golden",
     R"golden(<irdl>:1:26: error: expected ':' before base constraint
Dialect d { Constraint c !f32 { } }
                         ^
)golden"},
    {"ConstraintUnknownDirective", R"golden(Dialect d { Constraint c : !f32 { Format "x" } })golden",
     R"golden(<irdl>:1:35: error: expected Summary or CppConstraint
Dialect d { Constraint c : !f32 { Format "x" } }
                                  ^
)golden"},
    {"ParamKindUnknownDirective", R"golden(Dialect d { TypeOrAttrParam p { CppCode "x" } })golden",
     R"golden(<irdl>:1:33: error: expected Summary, CppClassName, CppParser, or CppPrinter
Dialect d { TypeOrAttrParam p { CppCode "x" } }
                                ^
)golden"},
    {"ParamKindNeedsString", R"golden(Dialect d { TypeOrAttrParam p { CppClassName x } })golden",
     R"golden(<irdl>:1:46: error: expected string literal after 'CppClassName'
Dialect d { TypeOrAttrParam p { CppClassName x } }
                                             ^
)golden"},
    {"UnterminatedString", R"golden(Dialect d { Operation o { Summary "abc } })golden",
     R"golden(<irdl>:1:35: error: unterminated string literal
Dialect d { Operation o { Summary "abc } }
                                  ^
<irdl>:1:35: error: expected string literal after 'Summary'
Dialect d { Operation o { Summary "abc } }
                                  ^
)golden"},
    {"EscapedSummaryThenError", R"golden(Dialect d { Operation o { Summary "a\"b" Wibble } })golden",
     R"golden(<irdl>:1:42: error: unknown directive in operation body
Dialect d { Operation o { Summary "a\"b" Wibble } }
                                         ^
)golden"},
    {"UnknownConstraintName", R"golden(Dialect d { Operation o { Operands (x: !mystery) } })golden",
     R"golden(<irdl>:1:40: error: unknown constraint 'mystery'
Dialect d { Operation o { Operands (x: !mystery) } }
                                       ^
)golden"},
    {"UnknownQualifiedConstraint", R"golden(Dialect d { Operation o { Operands (x: !other.t) } })golden",
     R"golden(<irdl>:1:40: error: unknown constraint 'other.t'
Dialect d { Operation o { Operands (x: !other.t) } }
                                       ^
)golden"},
    {"UnknownLongPath", R"golden(Dialect d { Operation o { Operands (x: !a.b.c.d) } })golden",
     R"golden(<irdl>:1:40: error: unknown constraint 'a.b.c.d'
Dialect d { Operation o { Operands (x: !a.b.c.d) } }
                                       ^
)golden"},
    {"UnknownEnumCase", R"golden(Dialect d {
  Enum e { A }
  Type t { Parameters (x: e.B) }
})golden",
     R"golden(<irdl>:3:27: error: 'B' is not a constructor of enum 'd.e'
  Type t { Parameters (x: e.B) }
                          ^
)golden"},
    {"UnknownQualifiedEnumCase", R"golden(Dialect d {
  Enum e { A }
  Type t { Parameters (x: d.e.B) }
})golden",
     R"golden(<irdl>:3:27: error: 'B' is not a constructor of enum 'd.e'
  Type t { Parameters (x: d.e.B) }
                          ^
)golden"},
    {"NotTakesOneArg", R"golden(Dialect d { Operation o { Operands (x: Not<!f32, !f64>) } })golden",
     R"golden(<irdl>:1:40: error: Not takes exactly one constraint
Dialect d { Operation o { Operands (x: Not<!f32, !f64>) } }
                                       ^
)golden"},
    {"AnyOfNeedsArgs", R"golden(Dialect d { Operation o { Operands (x: AnyOf) } })golden",
     R"golden(<irdl>:1:40: error: AnyOf requires at least one constraint
Dialect d { Operation o { Operands (x: AnyOf) } }
                                       ^
)golden"},
    {"AndNeedsArgs", R"golden(Dialect d { Operation o { Operands (x: And<>) } })golden",
     R"golden(<irdl>:1:40: error: And requires at least one constraint
Dialect d { Operation o { Operands (x: And<>) } }
                                       ^
)golden"},
    {"VariadicNested", R"golden(Dialect d { Operation o { Operands (x: Not<Variadic<!f32>>) } })golden",
     R"golden(<irdl>:1:44: error: Variadic is only allowed at the top level of operand, result, and region argument definitions
Dialect d { Operation o { Operands (x: Not<Variadic<!f32>>) } }
                                           ^
)golden"},
    {"VariadicOnAttribute", R"golden(Dialect d { Operation o { Attributes (a: Variadic<#AnyAttr>) } })golden",
     R"golden(<irdl>:1:42: error: Variadic is only allowed at the top level of operand, result, and region argument definitions
Dialect d { Operation o { Attributes (a: Variadic<#AnyAttr>) } }
                                         ^
)golden"},
    {"VariadicTwoArgs", R"golden(Dialect d { Operation o { Operands (x: Variadic<!f32, !f64>) } })golden",
     R"golden(<irdl>:1:37: error: Variadic/Optional take exactly one constraint
Dialect d { Operation o { Operands (x: Variadic<!f32, !f64>) } }
                                    ^
)golden"},
    {"ArrayTwoArgs", R"golden(Dialect d { Type t { Parameters (a: array<int32_t, int64_t>) } })golden",
     R"golden(<irdl>:1:37: error: array takes at most one element constraint
Dialect d { Type t { Parameters (a: array<int32_t, int64_t>) } }
                                    ^
)golden"},
    {"ParamArityMismatch", R"golden(Dialect d {
  Type pair { Parameters (a: !AnyType, b: !AnyType) }
  Operation o { Operands (x: !pair<!f32>) }
})golden",
     R"golden(<irdl>:3:30: error: 'd.pair' has 2 parameters but 1 constraints were given
  Operation o { Operands (x: !pair<!f32>) }
                             ^
)golden"},
    {"DuplicateDialect", R"golden(Dialect d { } Dialect d { })golden",
     R"golden(<irdl>:1:15: error: redefinition of dialect 'd'
Dialect d { } Dialect d { }
              ^
)golden"},
    {"DuplicateType", R"golden(Dialect d { Type t {} Type t {} })golden",
     R"golden(<irdl>:1:23: error: redefinition of type 't'
Dialect d { Type t {} Type t {} }
                      ^
)golden"},
    {"DuplicateAttr", R"golden(Dialect d { Attribute a {} Attribute a {} })golden",
     R"golden(<irdl>:1:28: error: redefinition of attribute 'a'
Dialect d { Attribute a {} Attribute a {} }
                           ^
)golden"},
    {"DuplicateOp", R"golden(Dialect d { Operation o {} Operation o {} })golden",
     R"golden(<irdl>:1:28: error: redefinition of operation 'o'
Dialect d { Operation o {} Operation o {} }
                           ^
)golden"},
    {"DuplicateAlias", R"golden(Dialect d { Alias !A = !f32 Alias !A = !f64 })golden",
     R"golden(<irdl>:1:29: error: redefinition of alias 'A'
Dialect d { Alias !A = !f32 Alias !A = !f64 }
                            ^
)golden"},
    {"DuplicateEnum", R"golden(Dialect d { Enum e { A } Enum e { B } })golden",
     R"golden(<irdl>:1:26: error: redefinition of enum 'e'
Dialect d { Enum e { A } Enum e { B } }
                         ^
)golden"},
    {"DuplicateConstraint", R"golden(Dialect d { Constraint c : !f32 { } Constraint c : !f64 { } })golden",
     R"golden(<irdl>:1:37: error: redefinition of constraint 'c'
Dialect d { Constraint c : !f32 { } Constraint c : !f64 { } }
                                    ^
)golden"},
    {"DuplicateParamKind", R"golden(Dialect d { TypeOrAttrParam p { } TypeOrAttrParam p { } })golden",
     R"golden(<irdl>:1:35: error: redefinition of parameter kind 'p'
Dialect d { TypeOrAttrParam p { } TypeOrAttrParam p { } }
                                  ^
)golden"},
    {"CyclicVarSelf", R"golden(Dialect d {
  Operation o {
    ConstraintVar (!T: !T)
    Operands (x: !T)
  }
})golden",
     R"golden(<irdl>:3:20: error: constraint variable 'T' of operation 'o' refers to itself outside any type, attribute or array parameter
    ConstraintVar (!T: !T)
                   ^
)golden"},
    {"CyclicVarPair", R"golden(Dialect d {
  Operation o {
    ConstraintVar (!T: !U, !U: !T)
    Operands (x: !T)
  }
})golden",
     R"golden(<irdl>:3:20: error: constraint variable 'T' of operation 'o' refers to itself outside any type, attribute or array parameter
    ConstraintVar (!T: !U, !U: !T)
                   ^
)golden"},
    {"CyclicVarUnderAnyOf", R"golden(Dialect d {
  Operation o {
    ConstraintVar (!T: !AnyOf<!f32, And<!T>>)
  }
})golden",
     R"golden(<irdl>:3:20: error: constraint variable 'T' of operation 'o' refers to itself outside any type, attribute or array parameter
    ConstraintVar (!T: !AnyOf<!f32, And<!T>>)
                   ^
)golden"},
    {"VarTakesNoArgs", R"golden(Dialect d { Operation o { ConstraintVar (!T: !f32) Operands (x: !T<!f32>) } })golden",
     R"golden(<irdl>:1:65: error: constraint variables take no arguments
Dialect d { Operation o { ConstraintVar (!T: !f32) Operands (x: !T<!f32>) } }
                                                                ^
)golden"},
    {"RecursiveAlias", R"golden(Dialect d {
  Alias !A = !B
  Alias !B = !A
  Operation o { Operands (x: !A) }
})golden",
     R"golden(<irdl>:3:14: error: alias expansion too deep (recursive alias?)
  Alias !B = !A
             ^
)golden"},
    {"AliasArity", R"golden(Dialect d {
  Alias !P<T> = !AnyOf<!T, !f32>
  Operation o { Operands (x: !P<!f32, !f64>) }
})golden",
     R"golden(<irdl>:3:30: error: alias 'P' expects 1 arguments but got 2
  Operation o { Operands (x: !P<!f32, !f64>) }
                             ^
)golden"},
    {"AliasParamTakesNoArgs", R"golden(Dialect d {
  Alias !P<T> = !T<!f32>
  Operation o { Operands (x: !P<!f32>) }
})golden",
     R"golden(<irdl>:2:17: error: alias parameters take no arguments
  Alias !P<T> = !T<!f32>
                ^
)golden"},
    {"AliasBodyUnknown", R"golden(Dialect d {
  Alias !P = !AnyOf<!f32, !nope>
  Operation o { Operands (x: !P) }
})golden",
     R"golden(<irdl>:2:27: error: unknown constraint 'nope'
  Alias !P = !AnyOf<!f32, !nope>
                          ^
)golden"},
    {"RecursiveConstraint", R"golden(Dialect d {
  Constraint c : !c { }
  Operation o { Operands (x: !c) }
})golden",
     R"golden(<irdl>:2:18: error: constraint 'c' is recursive or invalid
  Constraint c : !c { }
                 ^
<irdl>:2:18: error: constraint 'c' is recursive or invalid
  Constraint c : !c { }
                 ^
)golden"},
    {"NamedConstraintArgs", R"golden(Dialect d {
  Constraint c : !f32 { }
  Operation o { Operands (x: !c<!f32>) }
})golden",
     R"golden(<irdl>:3:30: error: named constraints take no arguments
  Operation o { Operands (x: !c<!f32>) }
                             ^
)golden"},
    {"ParamKindArgs", R"golden(Dialect d {
  TypeOrAttrParam p { }
  Type t { Parameters (x: p<!f32>) }
})golden",
     R"golden(<irdl>:3:27: error: parameter kinds take no arguments
  Type t { Parameters (x: p<!f32>) }
                          ^
)golden"},
    {"EnumKindArgs", R"golden(Dialect d {
  Enum e { A }
  Type t { Parameters (x: e<A>) }
})golden",
     R"golden(<irdl>:3:27: error: enum constraints take no arguments
  Type t { Parameters (x: e<A>) }
                          ^
)golden"},
    {"UnknownLiteralKind", R"golden(Dialect d { Type t { Parameters (x: 3 : int7_t) } })golden",
     R"golden(<irdl>:1:37: error: unknown literal kind 'int7_t'
Dialect d { Type t { Parameters (x: 3 : int7_t) } }
                                    ^
)golden"},
    {"InvalidLiteralKind", R"golden(Dialect d { Type t { Parameters (x: 3 : a.b) } })golden",
     R"golden(<irdl>:1:37: error: invalid literal kind
Dialect d { Type t { Parameters (x: 3 : a.b) } }
                                    ^
)golden"},
    {"UnknownFloatKind", R"golden(Dialect d { Type t { Parameters (x: 2.5 : int32_t) } })golden",
     R"golden(<irdl>:1:37: error: unknown float kind 'int32_t'
Dialect d { Type t { Parameters (x: 2.5 : int32_t) } }
                                    ^
)golden"},
    {"UnknownTerminator", R"golden(Dialect d { Operation o { Region r { Terminator nope } } })golden",
     R"golden(<irdl>:1:27: error: unknown terminator operation 'nope'
Dialect d { Operation o { Region r { Terminator nope } } }
                          ^
)golden"},
    {"MissingNativeOpVerifier", R"golden(Dialect d { Operation o { CppConstraint "native:nope" } })golden",
     R"golden(<irdl>:1:13: error: no native op verifier registered under 'nope'
Dialect d { Operation o { CppConstraint "native:nope" } }
            ^
)golden"},
    {"MissingNativeTypeConstraint", R"golden(Dialect d { Type t { CppConstraint "native:nope" } })golden",
     R"golden(<irdl>:1:13: error: no native constraint registered under 'nope'
Dialect d { Type t { CppConstraint "native:nope" } }
            ^
)golden"},
    {"MissingNativeNamedConstraint", R"golden(Dialect d {
  Constraint c : !f32 { CppConstraint "native:nope" }
  Operation o { Operands (x: !c) }
})golden",
     R"golden(<irdl>:2:3: error: no native constraint registered under 'nope'
  Constraint c : !f32 { CppConstraint "native:nope" }
  ^
<irdl>:2:3: error: constraint 'c' is recursive or invalid
  Constraint c : !f32 { CppConstraint "native:nope" }
  ^
)golden"},
    {"BadCppExpression", R"golden(Dialect d { Operation o { CppConstraint "$_self.(" } })golden",
     R"golden(<irdl>:1:13: error: in C++ constraint expression: expected member name after '.'
Dialect d { Operation o { CppConstraint "$_self.(" } }
            ^
)golden"},
    {"BadTypeCppExpression", R"golden(Dialect d { Type t { Parameters (a: int32_t) CppConstraint "$_self.a >" } })golden",
     R"golden(<irdl>:1:13: error: in C++ constraint expression: unexpected end of expression
Dialect d { Type t { Parameters (a: int32_t) CppConstraint "$_self.a >" } }
            ^
)golden"},
    {"BadFormatString", R"golden(Dialect d { Operation o { Operands (x: !f32) Format "$" } })golden",
     R"golden(error: in format of operation 'o': expected name after '$'
)golden"},
    {"FormatUnknownDirective", R"golden(Dialect d { Operation o { Operands (x: !f32) Format "$y" } })golden",
     R"golden(error: in format of operation 'o': unknown directive '$y'
)golden"},
    {"FormatOperandTwice", R"golden(Dialect d { Operation o { Operands (x: !f32) Format "$x $x" } })golden",
     R"golden(error: in format of operation 'o': operand 'x' appears twice
)golden"},
    {"FormatOperandMissing", R"golden(Dialect d { Operation o { Operands (x: !f32, y: !f32) Format "$x" } })golden",
     R"golden(error: in format of operation 'o': operand 'y' does not appear in the format
)golden"},
    {"FormatResultNamed", R"golden(Dialect d { Operation o { Results (r: !f32) Format "$r" } })golden",
     R"golden(error: in format of operation 'o': results cannot appear in formats; they are inferred from constraints
)golden"},
    {"FormatNotInferable", R"golden(Dialect d { Operation o { Results (r: !AnyType) Format "" } })golden",
     R"golden(error: in format of operation 'o': the type of result 'r' cannot be inferred from the format
)golden"},
    {"FormatVariadic", R"golden(Dialect d { Operation o { Operands (x: Variadic<!f32>) Format "$x" } })golden",
     R"golden(error: in format of operation 'o': variadic operands are not supported in formats
)golden"},
    {"FormatBadLiteral", R"golden(Dialect d { Operation o { Format "\"" } })golden",
     R"golden(error: in format of operation 'o': invalid literal '"'
)golden"},
    {"FormatVarParamUnknown", R"golden(Dialect d { Operation o { ConstraintVar (!T: !AnyOf<!f32, !f64>) Operands (x: !T) Format "$x : $T.width" } })golden",
     R"golden(error: in format of operation 'o': constraint variable 'T' has no parameter 'width'
)golden"},
    {"ClashWithBuiltinComponent", R"golden(Dialect builtin { Type f32 {} })golden",
     R"golden(<irdl>:1:19: error: redefinition of type 'f32'
Dialect builtin { Type f32 {} }
                  ^
)golden"},
};

/// The IR lexer's token streams (see TokenStreamHash.h) over the spec
/// sources: each bundled dialect, the corpus dialects one by one, the whole
/// corpus module, and all malformed specs above.
const std::pair<const char *, uint64_t> BundledTokenGoldens[] = {
    {"cmath", 0x849e3e7c75b60971ull},   {"arith", 0xb168a576565752fdull},
    {"complex", 0x6080aa1e245abc7dull}, {"math", 0x883a5bfdee2558e6ull},
    {"scf", 0x140a39e56ebd67cbull},
};
constexpr uint64_t CorpusDialectsTokenHash = 0xbbe5db47a7572ec5ull;
constexpr uint64_t CorpusModuleTokenHash = 0x8bd3fab31cc9523dull;
constexpr uint64_t MalformedSpecsTokenHash = 0xd8ef0e9d524802d4ull;

TEST(TokenStreamGolden, BundledDialects) {
  for (const auto &[Name, Hash] : BundledTokenGoldens) {
    std::ifstream In(std::string(IRDL_DIALECTS_DIR) + "/" + Name + ".irdl");
    std::ostringstream SS;
    SS << In.rdbuf();
    EXPECT_EQ(tokenStreamHash(SS.str()), Hash)
        << Name << ": 0x" << std::hex << tokenStreamHash(SS.str());
  }
}

TEST(TokenStreamGolden, Corpus) {
  Fnv1a Dialects;
  Dialects.word(tokenStreamHash(synthesizeSupportDialectIRDL()));
  for (const DialectProfile &Profile : getDialectProfiles())
    Dialects.word(tokenStreamHash(synthesizeDialectIRDL(Profile)));
  EXPECT_EQ(Dialects.get(), CorpusDialectsTokenHash)
      << "0x" << std::hex << Dialects.get();
  uint64_t Module = tokenStreamHash(synthesizeCorpusIRDL());
  EXPECT_EQ(Module, CorpusModuleTokenHash) << "0x" << std::hex << Module;
}

TEST(TokenStreamGolden, MalformedSpecs) {
  Fnv1a All;
  for (const DiagGolden &G : DiagGoldens)
    All.word(tokenStreamHash(G.Source));
  EXPECT_EQ(All.get(), MalformedSpecsTokenHash)
      << "0x" << std::hex << All.get();
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, SpecDiagnosticGolden, ::testing::ValuesIn(DiagGoldens),
    [](const ::testing::TestParamInfo<DiagGolden> &Info) {
      return std::string(Info.param.Name);
    });

} // namespace
