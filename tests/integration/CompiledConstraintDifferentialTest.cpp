//===- CompiledConstraintDifferentialTest.cpp - Engine equivalence ------===//
///
/// Differential suite for the compiled constraint engine: every dialect
/// of the 28-profile synthetic corpus plus the five bundled .irdl files,
/// with both valid synthesized modules and mutated-invalid variants,
/// verified through the compiled programs and through the tree
/// interpreter (the reference oracle). The verdict and the rendered
/// diagnostic stream must be byte-identical — the memo cache and dispatch
/// tables must be invisible except in speed.

#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/ConstraintCompiler.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

/// Restores the engine global even when an assertion bails.
struct GlobalsGuard {
  ~GlobalsGuard() { setCompiledConstraintsEnabled(true); }
};

/// Verifies \p M through both engines and expects identical verdicts and
/// byte-identical diagnostics.
void expectEnginesAgree(Operation *M, SourceMgr &SrcMgr,
                        const std::string &Label) {
  setCompiledConstraintsEnabled(false);
  DiagnosticEngine TreeDiags(&SrcMgr);
  bool TreeOk = succeeded(M->verify(TreeDiags));

  setCompiledConstraintsEnabled(true);
  DiagnosticEngine ProgDiags(&SrcMgr);
  bool ProgOk = succeeded(M->verify(ProgDiags));

  EXPECT_EQ(TreeOk, ProgOk) << "verdict diverged for " << Label;
  EXPECT_EQ(TreeDiags.renderAll(), ProgDiags.renderAll())
      << "diagnostics diverged for " << Label;
}

/// Invalidates \p M in-place: drops the first attribute of every op that
/// carries one (missing required attributes fail verification), so the
/// failure path is compared too. Returns how many ops changed.
unsigned mutateDropAttributes(Operation *M) {
  unsigned Mutated = 0;
  M->walk([&](Operation *Op) {
    if (!Op->getAttrs().empty()) {
      Op->removeAttr(Op->getAttrs().begin()->Name);
      ++Mutated;
    }
  });
  return Mutated;
}

TEST(CompiledConstraintDifferentialTest, CorpusDialectsAgree) {
  GlobalsGuard Guard;
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(Corpus)) << Diags.renderAll();
  ASSERT_EQ(Corpus.AnalysisDialects.size(), 28u);

  for (const auto &Spec : Corpus.AnalysisDialects) {
    OwningOpRef M = synthesizeModule(Ctx, *Spec);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    expectEnginesAgree(M.get(), SrcMgr, Spec->Name);
  }
}

TEST(CompiledConstraintDifferentialTest, MutatedCorpusModulesAgree) {
  GlobalsGuard Guard;
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(Corpus)) << Diags.renderAll();

  unsigned TotalMutations = 0;
  for (const auto &Spec : Corpus.AnalysisDialects) {
    ModuleSynthOptions Opts;
    Opts.Seed = 7;
    OwningOpRef M = synthesizeModule(Ctx, *Spec, Opts);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    TotalMutations += mutateDropAttributes(M.get());
    expectEnginesAgree(M.get(), SrcMgr, Spec->Name + " (mutated)");
  }
  // The corpus profiles carry op attributes; the mutation must have bitten.
  EXPECT_GT(TotalMutations, 0u);
}

class BundledDialectDifferentialTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BundledDialectDifferentialTest, EnginesAgree) {
  GlobalsGuard Guard;
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) + "/" +
                                      GetParam(),
                             SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();

  for (const auto &Spec : Module->getDialects()) {
    OwningOpRef M = synthesizeModule(Ctx, *Spec);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    expectEnginesAgree(M.get(), SrcMgr,
                       std::string(GetParam()) + "/" + Spec->Name);

    ModuleSynthOptions Opts;
    Opts.Seed = 13;
    OwningOpRef Mut = synthesizeModule(Ctx, *Spec, Opts);
    ASSERT_TRUE(static_cast<bool>(Mut)) << Spec->Name;
    mutateDropAttributes(Mut.get());
    expectEnginesAgree(Mut.get(), SrcMgr,
                       std::string(GetParam()) + "/" + Spec->Name +
                           " (mutated)");
  }
}

INSTANTIATE_TEST_SUITE_P(Bundled, BundledDialectDifferentialTest,
                         ::testing::Values("cmath.irdl", "arith.irdl",
                                           "scf.irdl", "complex.irdl",
                                           "math.irdl"));

} // namespace
