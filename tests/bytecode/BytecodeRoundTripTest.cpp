//===- BytecodeRoundTripTest.cpp - IR bytecode roundtrips ---------------===//
///
/// Property tests over synthesized modules: for every corpus dialect and
/// every bundled dialect file, a module synthesized over the dialect
/// survives (a) generic-form print → reparse and (b) bytecode write →
/// read, structurally identical both times. Both checks reuse the same
/// isStructurallyEquivalent helper, so a bytecode divergence shows up as
/// a path into the IR, not a blind byte mismatch.

#include "bytecode/Bytecode.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/StructuralCompare.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

size_t countOps(Operation *Root) {
  size_t N = 0;
  Root->walk([&](Operation *) { ++N; });
  return N;
}

/// Runs both roundtrips for a module synthesized over \p Spec in \p Ctx.
void checkRoundTrips(IRContext &Ctx, const DialectSpec &Spec) {
  OwningOpRef M = synthesizeModule(Ctx, Spec);
  ASSERT_TRUE(M);
  ASSERT_GT(countOps(M.get()), 1u) << Spec.Name;

  // (a) Generic-form print → reparse.
  PrintOptions Generic;
  Generic.GenericForm = true;
  std::string Text = printOpToString(M.get(), Generic);
  {
    SourceMgr SM;
    DiagnosticEngine Diags(&SM);
    OwningOpRef Reparsed = parseSourceString(Ctx, Text, SM, Diags);
    ASSERT_TRUE(Reparsed) << Spec.Name << "\n"
                          << Diags.renderAll() << "\n"
                          << Text.substr(0, 2000);
    std::string WhyNot;
    EXPECT_TRUE(isStructurallyEquivalent(M.get(), Reparsed.get(), &WhyNot))
        << Spec.Name << ": print->reparse diverged at " << WhyNot;
  }

  // (b) Bytecode write → read.
  BytecodeWriter Writer;
  Writer.setModule(M.get());
  std::string Bytes = Writer.write();
  ASSERT_TRUE(isBytecodeBuffer(Bytes));
  {
    DiagnosticEngine Diags;
    BytecodeReader Reader(Ctx, Diags);
    BytecodeReadResult Result;
    ASSERT_TRUE(succeeded(Reader.read(Bytes, Result)))
        << Spec.Name << "\n"
        << Diags.renderAll();
    ASSERT_TRUE(Result.Module);
    std::string WhyNot;
    EXPECT_TRUE(
        isStructurallyEquivalent(M.get(), Result.Module.get(), &WhyNot))
        << Spec.Name << ": bytecode roundtrip diverged at " << WhyNot;
  }
}

//===----------------------------------------------------------------------===//
// All 28 corpus dialects
//===----------------------------------------------------------------------===//

class CorpusBytecodeRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CorpusBytecodeRoundTrip, SynthesizedModule) {
  const DialectProfile &Profile =
      getDialectProfiles()[static_cast<size_t>(GetParam())];
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::string Text =
      synthesizeSupportDialectIRDL() + synthesizeDialectIRDL(Profile);
  auto M = loadIRDL(Ctx, Text, SrcMgr, Diags, corpusNativeOptions());
  ASSERT_NE(M, nullptr) << Profile.Name << "\n" << Diags.renderAll();
  const DialectSpec *Spec = M->lookupDialect(Profile.Name);
  ASSERT_NE(Spec, nullptr);
  checkRoundTrips(Ctx, *Spec);
}

INSTANTIATE_TEST_SUITE_P(AllDialects, CorpusBytecodeRoundTrip,
                         ::testing::Range(0, 28));

//===----------------------------------------------------------------------===//
// All bundled dialect files
//===----------------------------------------------------------------------===//

class DialectFileBytecodeRoundTrip
    : public ::testing::TestWithParam<const char *> {};

TEST_P(DialectFileBytecodeRoundTrip, SynthesizedModule) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) + "/" +
                                 GetParam(),
                        SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  for (const auto &Spec : M->getDialects())
    checkRoundTrips(Ctx, *Spec);
}

TEST_P(DialectFileBytecodeRoundTrip, SelfContainedBufferIntoFreshContext) {
  // Specs + IR in one buffer, read into a context that has never seen the
  // dialect: the spec section must register everything the IR needs.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) + "/" +
                                 GetParam(),
                        SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();

  for (const auto &Spec : M->getDialects()) {
    OwningOpRef Synth = synthesizeModule(Ctx, *Spec);
    BytecodeWriter Writer;
    Writer.addModuleSpecs(*M);
    Writer.setModule(Synth.get());
    std::string Bytes = Writer.write();

    IRContext FreshCtx;
    DiagnosticEngine FreshDiags;
    BytecodeReader Reader(FreshCtx, FreshDiags);
    BytecodeReadResult Result;
    ASSERT_TRUE(succeeded(Reader.read(Bytes, Result)))
        << Spec->Name << "\n"
        << FreshDiags.renderAll();
    ASSERT_TRUE(Result.Module);
    ASSERT_NE(Result.Specs, nullptr);
    EXPECT_EQ(Result.Specs->getDialects().size(),
              M->getDialects().size());
    std::string WhyNot;
    EXPECT_TRUE(
        isStructurallyEquivalent(Synth.get(), Result.Module.get(), &WhyNot))
        << Spec->Name << ": cross-context roundtrip diverged at " << WhyNot;
  }
}

INSTANTIATE_TEST_SUITE_P(AllFiles, DialectFileBytecodeRoundTrip,
                         ::testing::Values("cmath.irdl", "arith.irdl",
                                           "scf.irdl", "complex.irdl",
                                           "math.irdl"));

} // namespace
