//===- CorpusRoundTripTest.cpp - Synthesized dialects round-trip ----------===//
///
/// Property: pretty-printing any synthesized dialect spec and reloading it
/// through the frontend yields a dialect with identical statistics. This
/// exercises the SpecPrinter (including named-constraint uses and
/// IRDL-C++ markers) against the full variety the corpus generates.

#include "analysis/DialectStatistics.h"
#include "corpus/Corpus.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

class CorpusRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(CorpusRoundTrip, PrintReloadPreservesStatistics) {
  const DialectProfile &Profile =
      getDialectProfiles()[static_cast<size_t>(GetParam())];

  // Load support + this dialect.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::string Text =
      synthesizeSupportDialectIRDL() + synthesizeDialectIRDL(Profile);
  auto M = loadIRDL(Ctx, Text, SrcMgr, Diags, corpusNativeOptions());
  ASSERT_NE(M, nullptr) << Profile.Name << "\n" << Diags.renderAll();
  const DialectSpec *Original = M->lookupDialect(Profile.Name);
  ASSERT_NE(Original, nullptr);
  auto Shared = [](const IRDLModule &Module, const DialectSpec *D) {
    for (const std::shared_ptr<DialectSpec> &Spec : Module.getDialects())
      if (Spec.get() == D)
        return Spec;
    return std::shared_ptr<DialectSpec>();
  };

  // Pretty-print and reload into a fresh context.
  std::string Printed = printDialectSpec(*Original);
  IRContext Ctx2;
  SourceMgr SrcMgr2;
  DiagnosticEngine Diags2(&SrcMgr2);
  std::string Text2 = synthesizeSupportDialectIRDL() + Printed;
  auto M2 = loadIRDL(Ctx2, Text2, SrcMgr2, Diags2, corpusNativeOptions());
  ASSERT_NE(M2, nullptr) << Profile.Name << "\n"
                         << Diags2.renderAll() << "\n"
                         << Printed.substr(0, 2000);
  const DialectSpec *Reloaded = M2->lookupDialect(Profile.Name);
  ASSERT_NE(Reloaded, nullptr);

  // Statistics must be identical.
  auto StatsOf = [](std::shared_ptr<DialectSpec> D) {
    std::vector<std::shared_ptr<DialectSpec>> One = {std::move(D)};
    return CorpusStatistics::compute(One);
  };
  CorpusStatistics A = StatsOf(Shared(*M, Original));
  CorpusStatistics B = StatsOf(Shared(*M2, Reloaded));

  ASSERT_EQ(A.getDialects().size(), 1u);
  ASSERT_EQ(B.getDialects().size(), 1u);
  const DialectStatistics &DA = A.getDialects()[0];
  const DialectStatistics &DB = B.getDialects()[0];
  ASSERT_EQ(DA.Ops.size(), DB.Ops.size());
  for (size_t I = 0; I < DA.Ops.size(); ++I) {
    const OpRecord &RA = DA.Ops[I];
    const OpRecord &RB = DB.Ops[I];
    EXPECT_EQ(RA.Name, RB.Name);
    EXPECT_EQ(RA.NumOperandDefs, RB.NumOperandDefs) << RA.Name;
    EXPECT_EQ(RA.NumVariadicOperandDefs, RB.NumVariadicOperandDefs)
        << RA.Name;
    EXPECT_EQ(RA.NumResultDefs, RB.NumResultDefs) << RA.Name;
    EXPECT_EQ(RA.NumVariadicResultDefs, RB.NumVariadicResultDefs)
        << RA.Name;
    EXPECT_EQ(RA.NumAttrDefs, RB.NumAttrDefs) << RA.Name;
    EXPECT_EQ(RA.NumRegionDefs, RB.NumRegionDefs) << RA.Name;
    EXPECT_EQ(RA.IsTerminator, RB.IsTerminator) << RA.Name;
    EXPECT_EQ(RA.LocalConstraintsInIRDL, RB.LocalConstraintsInIRDL)
        << RA.Name;
    EXPECT_EQ(RA.NeedsCppVerifier, RB.NeedsCppVerifier) << RA.Name;
    EXPECT_EQ(RA.LocalCppKinds, RB.LocalCppKinds) << RA.Name;
  }
  ASSERT_EQ(DA.TypesAndAttrs.size(), DB.TypesAndAttrs.size());
  for (size_t I = 0; I < DA.TypesAndAttrs.size(); ++I) {
    const TypeAttrRecord &RA = DA.TypesAndAttrs[I];
    const TypeAttrRecord &RB = DB.TypesAndAttrs[I];
    EXPECT_EQ(RA.Name, RB.Name);
    EXPECT_EQ(RA.ParamKinds, RB.ParamKinds) << RA.Name;
    EXPECT_EQ(RA.ParamsInIRDL, RB.ParamsInIRDL) << RA.Name;
    EXPECT_EQ(RA.NeedsCppVerifier, RB.NeedsCppVerifier) << RA.Name;
  }
}

// All 28 dialects.
INSTANTIATE_TEST_SUITE_P(AllDialects, CorpusRoundTrip,
                         ::testing::Range(0, 28));

} // namespace
