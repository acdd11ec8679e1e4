//===- PrinterGoldenTest.cpp - Byte-exact printed IR ---------------------===//
///
/// The printer must produce the same text however it is implemented. Each
/// printout below, in the custom form and in the generic form, must match
/// its recorded size and FNV-1a hash byte for byte: the example module,
/// a module synthesized for every bundled and every corpus dialect, the
/// corpus module (all corpus dialects' synthesized ops in one module), and
/// a hand-built module of multi-result ops, successors, quoted attribute
/// names and float edge cases.

#include "common/TokenStreamHash.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

using namespace irdl;

namespace {

struct PrintGolden {
  const char *Name;
  size_t Size;
  uint64_t Hash;
};

/// Compares \p Printed, in order, to \p Goldens; a mismatch reports the
/// table row the printout would need.
void expectGoldens(const std::vector<std::pair<std::string, std::string>>
                       &Printed,
                   const std::vector<PrintGolden> &Goldens) {
  EXPECT_EQ(Printed.size(), Goldens.size());
  for (size_t I = 0; I != Printed.size(); ++I) {
    const auto &[Name, Text] = Printed[I];
    bool Same = I < Goldens.size() && Name == Goldens[I].Name &&
                Text.size() == Goldens[I].Size &&
                fnv1a(Text) == Goldens[I].Hash;
    std::ostringstream Row;
    Row << "{\"" << Name << "\", " << Text.size() << ", 0x" << std::hex
        << fnv1a(Text) << "ull},";
    EXPECT_TRUE(Same) << Row.str() << "\n" << Text.substr(0, 4000);
  }
}

/// Appends \p Op printed in the custom and in the generic form.
void printBothForms(std::vector<std::pair<std::string, std::string>> &Out,
                    const std::string &Name, Operation *Op) {
  Out.emplace_back(Name, printOpToString(Op));
  PrintOptions Generic;
  Generic.GenericForm = true;
  Out.emplace_back(Name + "/generic", printOpToString(Op, Generic));
}

const char *const BundledDialects[] = {"cmath", "arith", "complex", "math",
                                       "scf"};

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  std::ostringstream SS;
  SS << In.rdbuf();
  return SS.str();
}

const std::vector<PrintGolden> BundledGoldens = {
    {"cmath", 1055, 0xe84bc348910e15c4ull},
    {"cmath/generic", 1271, 0x63576fd8ee97e2d2ull},
    {"arith", 1551, 0x2c51da085c4171ffull},
    {"arith/generic", 1592, 0x23be0ed7d0f91667ull},
    {"complex", 1329, 0x39f74bcc3a95cff9ull},
    {"complex/generic", 2007, 0xc24ad68966f6a80dull},
    {"math", 1305, 0x2e90494e1f66d427ull},
    {"math/generic", 1848, 0xea4a3f153324690cull},
    {"scf", 6215, 0xed615a5dbcc1f7adull},
    {"scf/generic", 6256, 0x4f899915b73bb81full},
    {"conorm.mlir", 213, 0xcc6f434a9e44a147ull},
    {"conorm.mlir/generic", 419, 0x1a63f8316bfbe7c6ull},
};

TEST(PrinterGoldenTest, BundledDialects) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::vector<std::pair<std::string, std::string>> Printed;
  for (const char *Name : BundledDialects) {
    auto M = loadIRDLFile(
        Ctx, std::string(IRDL_DIALECTS_DIR) + "/" + Name + ".irdl", SrcMgr,
        Diags);
    ASSERT_NE(M, nullptr) << Diags.renderAll();
    for (const auto &Spec : M->getDialects()) {
      OwningOpRef Module = synthesizeModule(Ctx, *Spec);
      ASSERT_TRUE(Module) << Spec->Name;
      printBothForms(Printed, std::string(Spec->Name), Module.get());
    }
  }
  // The example module of irdl_opt, in the same context.
  std::string Example =
      readFile(std::string(IRDL_DIALECTS_DIR) +
               "/../examples/testdata/conorm.mlir");
  OwningOpRef Module = parseSourceString(Ctx, Example, SrcMgr, Diags);
  ASSERT_TRUE(Module) << Diags.renderAll();
  printBothForms(Printed, "conorm.mlir", Module.get());
  expectGoldens(Printed, BundledGoldens);
}

const std::vector<PrintGolden> CorpusGoldens = {
    {"corpus_support", 18, 0xebb0561f375a547aull},
    {"corpus_support/generic", 59, 0x8c6fce00661637faull},
    {"builtin", 1668, 0xfb0444abd6ba0cd6ull},
    {"builtin/generic", 1729, 0xc821fd0edf83025eull},
    {"arm_neon", 366, 0xa545a6744f880a31ull},
    {"arm_neon/generic", 407, 0x470aebb33ef58dfull},
    {"emitc", 497, 0x68b764de4659518full},
    {"emitc/generic", 538, 0x48b55f377488330aull},
    {"sparse_tensor", 756, 0x6d106cf12aa64adaull},
    {"sparse_tensor/generic", 798, 0xfb5258aa505166b7ull},
    {"linalg", 3474, 0x302c8ff0a563b085ull},
    {"linalg/generic", 3514, 0xa6731a1e2d929dabull},
    {"scf", 5399, 0x510c79afae2ba9a5ull},
    {"scf/generic", 5440, 0xd24e75da750f1777ull},
    {"quant", 1779, 0x4e31966f76d835f3ull},
    {"quant/generic", 1836, 0x9a07f382c2b834b9ull},
    {"tensor", 2778, 0xfc2bd891562fb6ffull},
    {"tensor/generic", 2819, 0x2cd1818d5a16917ull},
    {"affine", 4289, 0x51d20e51c735aad8ull},
    {"affine/generic", 4330, 0xae9ca921ee11a530ull},
    {"amx", 1761, 0x72a4ad73d51dfdd8ull},
    {"amx/generic", 1802, 0x6f98f43993e1b416ull},
    {"pdl", 2861, 0x2313dd14034c5fd2ull},
    {"pdl/generic", 2904, 0x6791cb940bbb3cfull},
    {"x86vector", 2396, 0x5607b3426a7d2ce4ull},
    {"x86vector/generic", 2437, 0x24a86758527721a2ull},
    {"complex", 1755, 0xa1212d5b6c60f831ull},
    {"complex/generic", 1796, 0xf27a371f40092797ull},
    {"math", 1843, 0xb1ca17ba9cf0db6aull},
    {"math/generic", 1884, 0xb85b464bc14b82a8ull},
    {"async", 3217, 0x702e74988f6565caull},
    {"async/generic", 3266, 0xe5054d0001d5441full},
    {"nvvm", 2278, 0x405da5acaabac601ull},
    {"nvvm/generic", 2319, 0x2e774fb4369cbeb1ull},
    {"memref", 3485, 0xf3e3429acc53f4eaull},
    {"memref/generic", 3526, 0x984231236e415ba6ull},
    {"gpu", 4800, 0x775564a8064033f7ull},
    {"gpu/generic", 4855, 0x2be4ea5155e2f3cbull},
    {"pdl_interp", 3916, 0x73b0fde0acd1650full},
    {"pdl_interp/generic", 3957, 0x9e4ab4f837b72bf3ull},
    {"vector", 5233, 0xf037295d4bfef527ull},
    {"vector/generic", 5274, 0x724a9c0837183fd1ull},
    {"arith", 4251, 0x95922e2bb78add37ull},
    {"arith/generic", 4292, 0x82533657be44665dull},
    {"rocdl", 4326, 0x1a9eea674a5e1883ull},
    {"rocdl/generic", 4367, 0xadd6880a9c887de7ull},
    {"shape", 6400, 0x7878f875b5b6303eull},
    {"shape/generic", 6441, 0x4adf9a60d6ff8913ull},
    {"arm_sve", 7595, 0x4038c371feb172ull},
    {"arm_sve/generic", 7637, 0x4b4abe0e61286001ull},
    {"std", 7178, 0x73c08eb7ec808ef8ull},
    {"std/generic", 7219, 0x178b6f044dce91d4ull},
    {"tosa", 9502, 0xa37529360b959full},
    {"tosa/generic", 9543, 0x12d3445e64ea71efull},
    {"llvm", 16391, 0xc80cc0c31404cb40ull},
    {"llvm/generic", 16447, 0xcae94e2de2e473eull},
    {"spv", 19058, 0xf7bb4d87dee7e34dull},
    {"spv/generic", 19120, 0xaa75bd2fb9a8ed9bull},
    {"corpus module", 137479, 0x2d9d0c91d42983b9ull},
    {"corpus module/generic", 137549, 0x551ad4573e50ffeull},
};

TEST(PrinterGoldenTest, Corpus) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult R = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(R) << Diags.renderAll();
  std::vector<std::pair<std::string, std::string>> Printed;
  std::vector<OwningOpRef> Modules;
  for (const auto &Spec : R.Module->getDialects()) {
    Modules.push_back(synthesizeModule(Ctx, *Spec));
    ASSERT_TRUE(Modules.back()) << Spec->Name;
    printBothForms(Printed, std::string(Spec->Name), Modules.back().get());
  }
  // The corpus module: every dialect's top-level ops, in load order, moved
  // into the first module, so value numbering runs across dialects.
  Block &Target = Modules.front()->getRegion(0).front();
  for (size_t I = 1; I != Modules.size(); ++I) {
    Block &Source = Modules[I]->getRegion(0).front();
    while (!Source.empty()) {
      Operation *Op = &Source.front();
      Source.remove(Op);
      Target.push_back(Op);
    }
  }
  printBothForms(Printed, "corpus module", Modules.front().get());
  expectGoldens(Printed, CorpusGoldens);
}

const std::vector<PrintGolden> EdgeGoldens = {
    {"edge module", 1319, 0x19170de6aa03948full},
    {"edge module/generic", 1460, 0x8bc0d4644716c385ull},
    {"float literals", 213, 0xb3f738702a1d0e0bull},
};

TEST(PrinterGoldenTest, EdgeCases) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Cmath = loadIRDLFile(
      Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr, Diags);
  ASSERT_NE(Cmath, nullptr) << Diags.renderAll();
  Dialect *Test = Ctx.getOrCreateDialect("test");
  for (const char *Op : {"pair", "triple", "sink", "br", "cond", "floats"})
    Test->addOp(Op);
  const char *Source = R"(
%a:2 = "test.pair"() : () -> (f32, i32)
%t:3 = "test.triple"(%a#1) : (i32) -> (i32, !cmath.complex<f32>, f64)
"test.sink"(%a#1, %a#0, %t#2) {"quoted name" = 1 : i32, "a.b" = unit, "9lives" = "s\"q\n\t\\", plain = [1 : i64, -2 : si8, 3 : ui16, "x", f32, [unit]], ty = !cmath.complex<f64>} : (i32, f32, f64) -> ()
std.func @f(%x: i32, %c: !cmath.complex<f32>) -> (i32, f32) {
  %n = cmath.norm %c : f32
  "test.br"()[^bb1] : () -> ()
^bb1:
  %p:2 = "test.pair"() : () -> (f32, i32)
  "test.cond"(%x, %p#1)[^bb1, ^bb2] : (i32, i32) -> ()
^bb2(%y: i32, %z: f32):
  std.return %y, %n : i32, f32
}
"test.floats"() : () -> ()
)";
  OwningOpRef Module = parseSourceString(Ctx, Source, SrcMgr, Diags);
  ASSERT_TRUE(Module) << Diags.renderAll();
  Operation *Floats = &Module->getRegion(0).front().back();
  ASSERT_EQ(Floats->getName().str(), "test.floats");
  const double Inf = std::numeric_limits<double>::infinity();
  const std::pair<const char *, double> Values[] = {
      {"nan", std::nan("")}, {"neg_inf", -Inf}, {"inf", Inf},
      {"neg_zero", -0.0},    {"tenth", 0.1},    {"big", 1e300},
      {"denorm", 5e-324},    {"one", 1.0},      {"e16", 1e16},
      {"e17", 1e17},         {"third", 1.0 / 3}, {"neg", -2.5}};
  for (const auto &[Name, V] : Values) {
    Floats->setAttr(Name, Ctx.getFloatAttr(V));
    Floats->setAttr(std::string(Name) + "_32", Ctx.getFloatAttr(V, 32));
  }
  std::vector<std::pair<std::string, std::string>> Printed;
  printBothForms(Printed, "edge module", Module.get());
  // The float literals on their own.
  std::string Literals;
  for (const auto &[Name, V] : Values) {
    Literals += printAttrToString(Ctx.getFloatAttr(V));
    Literals += '\n';
  }
  Printed.emplace_back("float literals", Literals);
  expectGoldens(Printed, EdgeGoldens);
}

} // namespace
