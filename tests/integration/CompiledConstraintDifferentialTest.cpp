//===- CompiledConstraintDifferentialTest.cpp - Engine equivalence ------===//
///
/// Differential suite for the compiled constraint engine: every dialect
/// of the 28-profile synthetic corpus, the five bundled .irdl files, and
/// specs whose constraint variables refer to each other or to themselves
/// under a type parameter. Valid synthesized modules and mutated-invalid
/// variants are checked slot by slot against the tree interpreter, the
/// reference oracle (tests/common/EngineOracle.h): verdicts and variable
/// bindings must agree, so the dispatch tables and the variable programs
/// are invisible except in speed.

#include "common/EngineOracle.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/IRParser.h"
#include "ir/Verifier.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

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
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(Corpus)) << Diags.renderAll();
  ASSERT_EQ(Corpus.AnalysisDialects.size(), 28u);

  EngineOracle Oracle;
  Oracle.addModule(*Corpus.Module);
  size_t Slots = 0;
  for (const auto &Spec : Corpus.AnalysisDialects) {
    OwningOpRef M = synthesizeModule(Ctx, *Spec);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    Slots += Oracle.check(M.get(), std::string(Spec->Name));
  }
  EXPECT_GT(Slots, 0u);
}

TEST(CompiledConstraintDifferentialTest, MutatedCorpusModulesAgree) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  CorpusLoadResult Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(Corpus)) << Diags.renderAll();

  EngineOracle Oracle;
  Oracle.addModule(*Corpus.Module);
  unsigned TotalMutations = 0;
  for (const auto &Spec : Corpus.AnalysisDialects) {
    ModuleSynthOptions Opts;
    Opts.Seed = 7;
    OwningOpRef M = synthesizeModule(Ctx, *Spec, Opts);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    TotalMutations += mutateDropAttributes(M.get());
    Oracle.check(M.get(), std::string(Spec->Name) + " (mutated)");
  }
  // The corpus profiles carry op attributes; the mutation must have bitten.
  EXPECT_GT(TotalMutations, 0u);
}

class BundledDialectDifferentialTest
    : public ::testing::TestWithParam<const char *> {};

TEST_P(BundledDialectDifferentialTest, EnginesAgree) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) + "/" +
                                      GetParam(),
                             SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();

  EngineOracle Oracle;
  Oracle.addModule(*Module);
  for (const auto &Spec : Module->getDialects()) {
    OwningOpRef M = synthesizeModule(Ctx, *Spec);
    ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
    std::string Label = std::string(GetParam()) + "/" + std::string(Spec->Name);
    Oracle.check(M.get(), Label);

    ModuleSynthOptions Opts;
    Opts.Seed = 13;
    OwningOpRef Mut = synthesizeModule(Ctx, *Spec, Opts);
    ASSERT_TRUE(static_cast<bool>(Mut)) << Spec->Name;
    mutateDropAttributes(Mut.get());
    Oracle.check(Mut.get(), Label + " (mutated)");
  }
}

INSTANTIATE_TEST_SUITE_P(Bundled, BundledDialectDifferentialTest,
                         ::testing::Values("cmath.irdl", "arith.irdl",
                                           "scf.irdl", "complex.irdl",
                                           "math.irdl"));

/// A variable refers to another (C: complex<T>) and one refers to itself
/// under a type parameter (R: AnyOf<f32, complex<R>>).
constexpr const char *VariableSpecs = R"(
  Dialect vv {
    Type complex {
      Parameters (elem: !AnyType)
    }
    Operation pair {
      ConstraintVar (!T: !AnyOf<!f32, !f64>, !C: !complex<!T>)
      Operands (x: !T, y: !C)
    }
    Operation nest {
      ConstraintVar (!R: !AnyOf<!f32, !complex<!R>>)
      Operands (x: !R)
      Results (r: !R)
    }
  }
)";

TEST(CompiledConstraintDifferentialTest, VariableProgramsAgree) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDL(Ctx, VariableSpecs, SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();

  // Valid and invalid uses of both ops, in the generic form the verifier
  // sees regardless of how the module was written.
  OwningOpRef M = parseSourceString(Ctx, R"(
    std.func @f(%a: f32, %b: f64, %ca: !vv.complex<f32>,
                %cb: !vv.complex<f64>,
                %cc: !vv.complex<!vv.complex<f32>>, %i: i32) {
      "vv.pair"(%a, %ca) : (f32, !vv.complex<f32>) -> ()
      "vv.pair"(%b, %cb) : (f64, !vv.complex<f64>) -> ()
      "vv.pair"(%a, %cb) : (f32, !vv.complex<f64>) -> ()
      "vv.pair"(%i, %ca) : (i32, !vv.complex<f32>) -> ()
      "vv.pair"(%a, %cc) : (f32, !vv.complex<!vv.complex<f32>>) -> ()
      %r0 = "vv.nest"(%a) : (f32) -> (f32)
      %r1 = "vv.nest"(%cc) : (!vv.complex<!vv.complex<f32>>)
          -> (!vv.complex<!vv.complex<f32>>)
      %r2 = "vv.nest"(%cc) : (!vv.complex<!vv.complex<f32>>) -> (f32)
      %r3 = "vv.nest"(%cb) : (!vv.complex<f64>) -> (!vv.complex<f64>)
      std.return
    }
  )",
                                    SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();

  EngineOracle Oracle;
  Oracle.addModule(*Module);
  EXPECT_EQ(Oracle.check(M.get(), "variable specs"), 2u * 5 + 2u * 4);

  // The verifier runs the same programs: only the first two pairs and
  // the first two nests are valid.
  std::vector<bool> Verdicts;
  M->walk([&](Operation *Op) {
    if (Op->getName().str().rfind("vv.", 0) != 0)
      return;
    DiagnosticEngine V;
    Verdicts.push_back(succeeded(Op->getDef()->getVerifier()(Op, V)));
  });
  EXPECT_EQ(Verdicts, (std::vector<bool>{true, true, false, false, false,
                                         true, true, false, false}));
}

} // namespace
