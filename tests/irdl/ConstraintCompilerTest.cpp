//===- ConstraintCompilerTest.cpp - Tree vs compiled programs ----------===//
///
/// The compiled engine's contract is semantic identity with the tree
/// interpreter (the reference oracle). These tests compile constraint
/// trees and check verdicts, variable bindings, dispatch-table lowering
/// and concreteValue against the tree over a grid of values.

#include "irdl/ConstraintCompiler.h"
#include "irdl/ConstraintProfiler.h"
#include "irdl/IRDL.h"
#include "support/File.h"

#include "common/ConstraintNodes.h"

#include <gtest/gtest.h>

#include <set>

using namespace irdl;

namespace {

class ConstraintCompilerTest : public ::testing::Test {
protected:
  ConstraintCompilerTest() {
    Dialect *D = Ctx.getOrCreateDialect("cmath");
    Complex = D->addType("complex");
    Complex->setParamNames({"elementType"});
    Pair = D->addType("pair");
    Pair->setParamNames({"first", "second"});
  }

  Type complexOf(Type Elem) {
    return Ctx.getType(Complex, {ParamValue(Elem)});
  }

  /// A value grid covering every ParamValue kind the algebra can see.
  std::vector<ParamValue> grid() {
    std::vector<ParamValue> Vs;
    Vs.emplace_back(Ctx.getFloatType(32));
    Vs.emplace_back(Ctx.getFloatType(64));
    Vs.emplace_back(complexOf(Ctx.getFloatType(32)));
    Vs.emplace_back(complexOf(Ctx.getFloatType(64)));
    Vs.emplace_back(Ctx.getType(Pair, {ParamValue(Ctx.getFloatType(32)),
                                       ParamValue(Ctx.getFloatType(64))}));
    Vs.emplace_back(Ctx.getIntegerAttr(1, 32));
    Vs.emplace_back(IntVal{32, Signedness::Signed, 3});
    Vs.emplace_back(IntVal{64, Signedness::Unsigned, 3});
    Vs.emplace_back(FloatVal{32, 1.5});
    Vs.emplace_back(FloatVal{64, 2.5});
    Vs.emplace_back(std::string("foo"));
    Vs.emplace_back(std::string("bar"));
    Vs.emplace_back(EnumVal{Ctx.getSignednessEnum(), 0});
    Vs.emplace_back(EnumVal{Ctx.getSignednessEnum(), 1});
    Vs.emplace_back(std::vector<ParamValue>{});
    Vs.emplace_back(std::vector<ParamValue>{
        ParamValue(IntVal{32, Signedness::Signless, 1}),
        ParamValue(IntVal{32, Signedness::Signless, 2})});
    return Vs;
  }

  /// Asserts that the compiled program agrees with the tree on every
  /// grid value: verdict and resulting variable bindings.
  void expectEquivalent(const ConstraintPtr &C,
                        const std::vector<ConstraintPtr> *Vars = nullptr) {
    std::vector<const ConstraintProgram *> VarProgs =
        Vars ? ConstraintCompiler::compileVarPrograms(*Vars)
             : std::vector<const ConstraintProgram *>();
    std::vector<const Constraint *> VarNodes =
        Vars ? nodesOf(*Vars) : std::vector<const Constraint *>();
    ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
    for (const ParamValue &V : grid()) {
      MatchContext TreeMC(VarNodes);
      MatchContext ProgMC(VarProgs);
      bool TreeVerdict = C->matches(V, TreeMC);
      bool ProgVerdict = Prog->run(V, ProgMC);
      EXPECT_EQ(TreeVerdict, ProgVerdict)
          << "verdict diverged on " << C->str() << " / program:\n"
          << Prog->dump();
      for (unsigned I = 0, E = TreeMC.getNumVars(); I != E; ++I) {
        ASSERT_EQ(TreeMC.getBinding(I).has_value(),
                  ProgMC.getBinding(I).has_value());
        if (TreeMC.getBinding(I)) {
          EXPECT_TRUE(*TreeMC.getBinding(I) == *ProgMC.getBinding(I));
        }
      }
    }
  }

  IRContext Ctx;
  /// The storage the trees of a test are built in.
  SpecStoragePtr Store = std::make_shared<BumpStorage>();
  TypeDefinition *Complex = nullptr;
  TypeDefinition *Pair = nullptr;
};

TEST_F(ConstraintCompilerTest, LeafEquivalence) {
  expectEquivalent(Constraint::anyType(Store));
  expectEquivalent(Constraint::anyAttr(Store));
  expectEquivalent(Constraint::anyParam(Store));
  expectEquivalent(Constraint::typeEq(Store, Ctx.getFloatType(32)));
  expectEquivalent(Constraint::intKind(Store, 32, Signedness::Signed));
  expectEquivalent(Constraint::intEq(Store, IntVal{32, Signedness::Signed, 3}));
  expectEquivalent(Constraint::floatKind(Store, 32));
  expectEquivalent(Constraint::floatKind(Store, 0));
  expectEquivalent(Constraint::floatEq(Store, FloatVal{32, 1.5}));
  expectEquivalent(Constraint::stringKind(Store));
  expectEquivalent(Constraint::stringEq(Store, "foo"));
  expectEquivalent(Constraint::enumKind(Store, Ctx.getSignednessEnum()));
  expectEquivalent(
      Constraint::enumEq(Store, EnumVal{Ctx.getSignednessEnum(), 1}));
  expectEquivalent(Constraint::anyArray(Store));
  expectEquivalent(Constraint::arrayOf(
      Store, Constraint::intKind(Store, 32, Signedness::Signless)));
  expectEquivalent(Constraint::arrayExact(
      Store, {Constraint::intEq(Store, IntVal{32, Signedness::Signless, 1}),
              Constraint::intEq(Store, IntVal{32, Signedness::Signless, 2})}));
  expectEquivalent(Constraint::opaqueKind(Store, "cmath.custom"));
}

TEST_F(ConstraintCompilerTest, CombinatorEquivalence) {
  ConstraintPtr F32 = Constraint::typeEq(Store, Ctx.getFloatType(32));
  ConstraintPtr F64 = Constraint::typeEq(Store, Ctx.getFloatType(64));
  ConstraintPtr CpxBase =
      Constraint::typeConstraint(Store, Complex, {}, /*BaseOnly=*/true);
  ConstraintPtr CpxF32 = Constraint::typeConstraint(
      Store, Complex, {Constraint::typeEq(Store, Ctx.getFloatType(32))},
      /*BaseOnly=*/false);
  expectEquivalent(Constraint::anyOf(Store, {F32, F64}));
  expectEquivalent(Constraint::anyOf(Store, {CpxF32, F32}));
  expectEquivalent(Constraint::conjunction(Store, {CpxBase, CpxF32}));
  expectEquivalent(Constraint::negation(Store, F32));
  expectEquivalent(
      Constraint::negation(Store, Constraint::anyOf(Store, {F32, CpxF32})));
  expectEquivalent(Constraint::named(Store, CpxF32, "cmath.ComplexF32"));
}

TEST_F(ConstraintCompilerTest, CppAndNativeEquivalence) {
  ConstraintPtr OnlyF32 = Constraint::native(
      Store, Constraint::anyType(Store),
      [](const ParamValue &V) {
        return V.isType() && V.getType().getParams().empty();
      },
      "paramless");
  expectEquivalent(OnlyF32);
  ConstraintPtr Cpp = Constraint::cpp(
      Store, Constraint::anyType(Store),
      [](const ParamValue &) { return true; }, "true");
  expectEquivalent(Cpp);
}

TEST_F(ConstraintCompilerTest, VariableEquivalence) {
  // AnyOf<complex<!T>, !T> where T: AnyType — exercises bind + backtrack.
  std::vector<ConstraintPtr> Vars{Constraint::anyType(Store)};
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  ConstraintPtr CpxT =
      Constraint::typeConstraint(Store, Complex, {T}, /*BaseOnly=*/false);
  expectEquivalent(Constraint::anyOf(Store, {CpxT, T}), &Vars);
  expectEquivalent(
      Constraint::conjunction(Store, {Constraint::anyType(Store), T}), &Vars);
}

TEST_F(ConstraintCompilerTest, VariablesResolveThroughVariablePrograms) {
  // T: AnyOf<f32, complex<T>> (guarded self-reference) and
  // C: complex<T> (a variable referring to another).
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  std::vector<ConstraintPtr> Vars{
      Constraint::anyOf(Store, {Constraint::typeEq(Store, Ctx.getFloatType(32)),
                                Constraint::typeConstraint(
                                    Store, Complex, {T}, /*BaseOnly=*/false)}),
      Constraint::typeConstraint(Store, Complex, {T}, /*BaseOnly=*/false)};
  expectEquivalent(Constraint::var(Store, 0, "T"), &Vars);
  expectEquivalent(Constraint::var(Store, 1, "C"), &Vars);
  expectEquivalent(
      Constraint::anyOf(Store, {Constraint::var(Store, 1, "C"), T}), &Vars);
  EXPECT_FALSE(findUnguardedVarCycle(nodesOf(Vars)).has_value());
  EXPECT_FALSE(findUnguardedVarCycle(
                   ConstraintCompiler::compileVarPrograms(Vars))
                   .has_value());

  // Nesting deeper than the grid: T matches complex<complex<f32>>.
  std::vector<const ConstraintProgram *> VarProgs =
      ConstraintCompiler::compileVarPrograms(Vars);
  MatchContext MC(VarProgs);
  ParamValue Deep(complexOf(complexOf(Ctx.getFloatType(32))));
  EXPECT_TRUE(ConstraintCompiler::compile(Constraint::var(Store, 0, "T"))
                  ->run(Deep, MC));
  ASSERT_TRUE(MC.getBinding(0).has_value());
  EXPECT_TRUE(*MC.getBinding(0) == Deep);
}

TEST_F(ConstraintCompilerTest, UnguardedVariableCyclesAreFound) {
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  ConstraintPtr U = Constraint::var(Store, 1, "U");
  ConstraintPtr F32 = Constraint::typeEq(Store, Ctx.getFloatType(32));
  ConstraintPtr CpxT =
      Constraint::typeConstraint(Store, Complex, {T}, /*BaseOnly=*/false);
  struct Case {
    std::vector<ConstraintPtr> Vars;
    std::optional<unsigned> Cycle;
  };
  std::vector<Case> Cases = {
      {{T}, 0u},
      {{U, T}, 0u},
      {{Constraint::anyOf(Store, {T, F32})}, 0u},
      {{Constraint::negation(Store, Constraint::named(Store, T, "d.Self"))},
       0u},
      // U only leads into T's self-loop; the cycle is T's.
      {{Constraint::conjunction(Store, {F32, T}), T}, 0u},
      {{U, U}, 1u},
      {{Constraint::anyOf(Store, {F32, CpxT})}, std::nullopt},
      {{Constraint::arrayOf(Store, T)}, std::nullopt},
      {{F32, Constraint::anyOf(Store, {T, CpxT})}, std::nullopt},
  };
  for (const Case &C : Cases) {
    EXPECT_EQ(findUnguardedVarCycle(nodesOf(C.Vars)), C.Cycle);
    EXPECT_EQ(
        findUnguardedVarCycle(ConstraintCompiler::compileVarPrograms(C.Vars)),
        C.Cycle);
  }
}

TEST_F(ConstraintCompilerTest, FailedAnyOfBranchUnbindsVariables) {
  // First alternative binds T then fails on the second conjunct; the
  // trail must unbind T so the second alternative sees it fresh.
  std::vector<ConstraintPtr> Vars{Constraint::anyType(Store)};
  ConstraintPtr T = Constraint::var(Store, 0, "T");
  ConstraintPtr Failing = Constraint::conjunction(
      Store, {T, Constraint::typeEq(Store, Ctx.getFloatType(64))});
  ConstraintPtr C = Constraint::anyOf(Store, {Failing, T});
  expectEquivalent(C, &Vars);

  std::vector<const ConstraintProgram *> VarProgs =
      ConstraintCompiler::compileVarPrograms(Vars);
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
  MatchContext MC(VarProgs);
  EXPECT_TRUE(Prog->run(ParamValue(Ctx.getFloatType(32)), MC));
  ASSERT_TRUE(MC.getBinding(0).has_value());
  EXPECT_TRUE(MC.getBinding(0)->getType() == Ctx.getFloatType(32));
}

TEST_F(ConstraintCompilerTest, NamedWrappersAreElided) {
  ConstraintPtr Inner = Constraint::typeEq(Store, Ctx.getFloatType(32));
  ConstraintPtr Named = Constraint::named(Store, Inner, "cmath.F32");
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(Named);
  ConstraintProgramPtr Direct = ConstraintCompiler::compile(Inner);
  EXPECT_EQ(Prog->getNumInstrs(), Direct->getNumInstrs());
}

TEST_F(ConstraintCompilerTest, AnyOfLowersToDispatchTable) {
  std::vector<ConstraintPtr> Alts;
  std::vector<Type> Elems = {Ctx.getFloatType(16), Ctx.getFloatType(32),
                             Ctx.getFloatType(64)};
  for (Type E : Elems)
    Alts.push_back(Constraint::typeEq(Store, complexOf(E)));
  Alts.push_back(Constraint::typeEq(Store, Ctx.getFloatType(32)));
  ConstraintPtr C = Constraint::anyOf(Store, Alts);
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
  ASSERT_EQ(Prog->getNumDispatchTables(), 1u);
  EXPECT_EQ(Prog->getInstr(0).Op, COpcode::AnyOfTable);
  expectEquivalent(C);
}

TEST_F(ConstraintCompilerTest, AnyOfWithUndispatchableAltStaysSequential) {
  std::vector<ConstraintPtr> Alts = {
      Constraint::typeEq(Store, complexOf(Ctx.getFloatType(16))),
      Constraint::typeEq(Store, complexOf(Ctx.getFloatType(32))),
      Constraint::typeEq(Store, complexOf(Ctx.getFloatType(64))),
      Constraint::anyType(Store)}; // not rooted in a definition
  ConstraintProgramPtr Prog =
      ConstraintCompiler::compile(Constraint::anyOf(Store, Alts));
  EXPECT_EQ(Prog->getNumDispatchTables(), 0u);
  EXPECT_EQ(Prog->getInstr(0).Op, COpcode::AnyOf);
}

TEST_F(ConstraintCompilerTest, SameDefAlternativesKeepSourceOrder) {
  // Two alternatives under the same base definition must still be tried
  // in declaration order through the table.
  std::vector<ConstraintPtr> Alts = {
      Constraint::typeEq(Store, complexOf(Ctx.getFloatType(32))),
      Constraint::typeConstraint(Store, Complex, {}, /*BaseOnly=*/true),
      Constraint::typeEq(Store, Ctx.getFloatType(32)),
      Constraint::typeEq(Store, Ctx.getFloatType(64))};
  ConstraintPtr C = Constraint::anyOf(Store, Alts);
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
  ASSERT_EQ(Prog->getNumDispatchTables(), 1u);
  expectEquivalent(C);
  MatchContext MC;
  EXPECT_TRUE(
      Prog->run(ParamValue(complexOf(Ctx.getFloatType(64))), MC));
}

TEST_F(ConstraintCompilerTest, ConcreteValueEquivalence) {
  std::vector<ConstraintPtr> Vars{Constraint::anyType(Store)};
  std::vector<ConstraintPtr> Cases = {
      Constraint::typeEq(Store, complexOf(Ctx.getFloatType(32))),
      Constraint::intEq(Store, IntVal{32, Signedness::Signed, 3}),
      Constraint::floatEq(Store, FloatVal{32, 1.5}),
      Constraint::stringEq(Store, "foo"),
      Constraint::enumEq(Store, EnumVal{Ctx.getSignednessEnum(), 1}),
      Constraint::arrayExact(
          Store,
          {Constraint::intEq(Store, IntVal{32, Signedness::Signless, 1})}),
      Constraint::conjunction(
          Store, {Constraint::anyType(Store),
                  Constraint::typeEq(Store, Ctx.getFloatType(32))}),
      Constraint::anyOf(Store,
                        {Constraint::typeEq(Store, Ctx.getFloatType(32)),
                         Constraint::typeEq(Store, Ctx.getFloatType(64))}),
      Constraint::typeConstraint(Store, Complex, {}, /*BaseOnly=*/true),
      Constraint::var(Store, 0, "T"),
      Constraint::anyType(Store),
  };
  std::vector<const ConstraintProgram *> VarProgs =
      ConstraintCompiler::compileVarPrograms(Vars);
  for (const ConstraintPtr &C : Cases) {
    ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
    std::vector<const Constraint *> VarNodes = nodesOf(Vars);
    MatchContext TreeMC(VarNodes);
    MatchContext ProgMC(VarProgs);
    if (C->getKind() == Constraint::Kind::Var) {
      TreeMC.bind(0, ParamValue(Ctx.getFloatType(64)));
      ProgMC.bind(0, ParamValue(Ctx.getFloatType(64)));
    }
    auto TreeV = C->concreteValue(TreeMC, Ctx);
    auto ProgV = Prog->concreteValue(ProgMC, Ctx);
    ASSERT_EQ(TreeV.has_value(), ProgV.has_value()) << C->str();
    if (TreeV) {
      EXPECT_TRUE(*TreeV == *ProgV) << C->str();
    }
  }
}

TEST_F(ConstraintCompilerTest, DumpNamesEveryInstruction) {
  ConstraintPtr C = Constraint::anyOf(
      Store, {Constraint::typeEq(Store, complexOf(Ctx.getFloatType(32))),
       Constraint::typeEq(Store, Ctx.getFloatType(32))});
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(C);
  std::string D = Prog->dump();
  EXPECT_NE(D.find("AnyOf"), std::string::npos);
  EXPECT_NE(D.find("TypeParams"), std::string::npos);
  EXPECT_NE(D.find("cmath.complex"), std::string::npos);
}

TEST_F(ConstraintCompilerTest, ProgramIdsAreUnique) {
  ConstraintProgramPtr A =
      ConstraintCompiler::compile(Constraint::anyType(Store));
  ConstraintProgramPtr B =
      ConstraintCompiler::compile(Constraint::anyType(Store));
  EXPECT_NE(A->getId(), B->getId());
}

TEST_F(ConstraintCompilerTest, ProfilerAttributesExecutions) {
  ConstraintProfiler &Prof = ConstraintProfiler::instance();
  Prof.reset();
  ConstraintProgramPtr Prog = ConstraintCompiler::compile(
      Constraint::anyOf(Store,
                        {Constraint::typeEq(Store, Ctx.getFloatType(32)),
                         Constraint::typeEq(Store, Ctx.getFloatType(64))}));
  Prof.registerProgram(Prog, "test.prof anyof");

  // Off by default: runs leave the counters untouched.
  EXPECT_FALSE(constraintProfilingEnabled());
  {
    MatchContext MC;
    EXPECT_TRUE(Prog->run(ParamValue(Ctx.getFloatType(32)), MC));
  }
  EXPECT_EQ(Prog->getProfiledEvals(), 0u);

  setConstraintProfilingEnabled(true);
  constexpr uint64_t Runs = 25;
  for (uint64_t I = 0; I != Runs; ++I) {
    MatchContext MC;
    EXPECT_TRUE(Prog->run(ParamValue(Ctx.getFloatType(64)), MC));
  }
  setConstraintProfilingEnabled(false);

  EXPECT_EQ(Prog->getProfiledEvals(), Runs);
  std::vector<ConstraintProfiler::Entry> Entries = Prof.collect();
  ASSERT_EQ(Entries.size(), 1u);
  EXPECT_EQ(Entries[0].Name, "test.prof anyof");
  EXPECT_EQ(Entries[0].ProgramId, Prog->getId());
  EXPECT_EQ(Entries[0].Evals, Runs);
  EXPECT_EQ(Entries[0].Nanos, Prog->getProfiledNanos());

  std::string Report = Prof.renderReport();
  EXPECT_NE(Report.find("test.prof anyof"), std::string::npos) << Report;
  std::string Json = Prof.renderJson();
  EXPECT_NE(Json.find("\"name\":\"test.prof anyof\""), std::string::npos)
      << Json;

  // reset() zeroes live programs so the next test starts clean.
  Prof.reset();
  EXPECT_EQ(Prog->getProfiledEvals(), 0u);
  EXPECT_TRUE(Prof.collect().empty());
}

/// The distinct compiled programs \p Module's specs hold.
size_t countPrograms(const IRDLModule &Module) {
  std::set<const ConstraintProgram *> Programs;
  auto Add = [&](const ConstraintProgram *P) {
    if (P)
      Programs.insert(P);
  };
  for (const auto &Spec : Module.getDialects()) {
    for (const auto *List : {&Spec->Types, &Spec->Attrs})
      for (const TypeOrAttrSpec &TS : *List)
        for (const ParamSpec &P : TS.Params)
          Add(P.Prog);
    for (const OpSpec &OS : Spec->Ops) {
      for (const ConstraintProgram *P : OS.VarPrograms)
        Add(P);
      for (const auto *List : {&OS.Operands, &OS.Results})
        for (const OperandSpec &O : *List)
          Add(O.Prog);
      for (const ParamSpec &A : OS.Attributes)
        Add(A.Prog);
      for (const RegionSpec &RS : OS.Regions)
        for (const OperandSpec &Arg : RS.Args)
          Add(Arg.Prog);
    }
  }
  return Programs.size();
}

TEST_F(ConstraintCompilerTest, ProfilerRecordsStayBoundedOverReloads) {
  // Each record pins its program's allocation, so records of unloaded
  // dialects must not pile up, with profiling off or on.
  std::string Source;
  std::string Error;
  ASSERT_TRUE(succeeded(readFileToString(
      std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", Source, Error)))
      << Error;
  ConstraintProfiler &Prof = ConstraintProfiler::instance();
  Prof.reset();
  for (bool Profiling : {false, true}) {
    setConstraintProfilingEnabled(Profiling);
    for (int Cycle = 0; Cycle != 1000; ++Cycle) {
      IRContext LoadCtx;
      SourceMgr SrcMgr;
      DiagnosticEngine Diags(&SrcMgr);
      std::unique_ptr<IRDLModule> Module =
          loadIRDL(LoadCtx, Source, SrcMgr, Diags);
      ASSERT_NE(Module, nullptr) << Diags.renderAll();
      size_t Live = countPrograms(*Module);
      ASSERT_LE(Prof.getNumRecords(), Profiling ? Live : 0)
          << "cycle " << Cycle;
      ASSERT_GT(Live, 0u);
    }
  }
  setConstraintProfilingEnabled(false);
  // The last load is gone; collect() drops its records too.
  EXPECT_TRUE(Prof.collect().empty());
  EXPECT_EQ(Prof.getNumRecords(), 0u);
}

} // namespace
