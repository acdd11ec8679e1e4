//===- SpecLifetimeTest.cpp - Spec storage outlives its handles' users ---===//
///
/// A DialectSpec owns the storage its trees, programs and compiled
/// formats live in. A ConstraintPtr or ConstraintProgramPtr is an
/// aliasing handle of the spec, and the dialect retains the spec its
/// hooks point into, so dropping the IRDLModule that loaded it frees
/// nothing any of them still uses. Under ASan a premature free shows up
/// as a use after free here.

#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Verifier.h"
#include "irdl/ConstraintCompiler.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

TEST(SpecLifetimeTest, HandlesAndHooksOutliveTheModule) {
  auto Ctx = std::make_unique<IRContext>();
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::unique_ptr<IRDLModule> Module = loadIRDLFile(
      *Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();

  std::weak_ptr<DialectSpec> Weak = Module->getDialects()[0];
  ConstraintPtr Constr;
  ConstraintProgramPtr Prog, Recompiled;
  {
    std::shared_ptr<DialectSpec> Spec = Module->getDialects()[0];
    const OpSpec *Mul = Spec->lookupOp("mul");
    ASSERT_NE(Mul, nullptr);
    // The variable's constraint, !complex<FloatType>, and its program.
    Constr = ConstraintPtr(Spec, Mul->VarConstraints[0]);
    Prog = ConstraintProgramPtr(Spec, Mul->VarPrograms[0]);
    Recompiled = ConstraintCompiler::compile(Constr);
  }
  const char *Src = R"(
    std.func @f(%a: !cmath.complex<f32>, %b: !cmath.complex<f32>) -> f32 {
      %m = cmath.mul %a, %b : f32
      %n = cmath.norm %m : f32
      std.return %n : f32
    }
  )";
  OwningOpRef Before = parseSourceString(*Ctx, Src, SrcMgr, Diags);
  ASSERT_TRUE(Before) << Diags.renderAll();
  std::string Printed = printOpToString(Before.get());

  Module.reset();
  ASSERT_FALSE(Weak.expired()) << "the dialect and the handles keep it";

  // The trees, programs and hooks all still work.
  Type C32 = Ctx->getType(Ctx->resolveTypeDef("cmath.complex"),
                          {ParamValue(Ctx->getFloatType(32))});
  Type C64 = Ctx->getType(Ctx->resolveTypeDef("cmath.complex"),
                          {ParamValue(Ctx->getFloatType(64))});
  MatchContext MC;
  EXPECT_TRUE(Constr->matches(ParamValue(C32), MC));
  EXPECT_TRUE(Prog->run(C64, MC));
  EXPECT_FALSE(Recompiled->run(ParamValue(Ctx->getFloatType(32)), MC));
  EXPECT_EQ(Constr->str(),
            "!cmath.complex<AnyOf<!builtin.f32, !builtin.f64>>");

  EXPECT_TRUE(succeeded(verifyOp(Before.get(), Diags))) << Diags.renderAll();
  EXPECT_EQ(printOpToString(Before.get()), Printed);
  OwningOpRef After = parseSourceString(*Ctx, Printed, SrcMgr, Diags);
  ASSERT_TRUE(After) << Diags.renderAll();
  EXPECT_TRUE(succeeded(verifyOp(After.get(), Diags))) << Diags.renderAll();
  EXPECT_EQ(printOpToString(After.get()), Printed);

  // With the IR and the context gone, the handles alone hold the spec.
  Before.reset();
  After.reset();
  Ctx.reset();
  EXPECT_FALSE(Weak.expired());
  Constr.reset();
  Prog.reset();
  EXPECT_FALSE(Weak.expired());
  Recompiled.reset();
  EXPECT_TRUE(Weak.expired());
}

TEST(SpecLifetimeTest, StorageGrowsBySlabs) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::unique_ptr<IRDLModule> Module = loadIRDLFile(
      Ctx, std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl", SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();
  BumpStorage &Storage = Module->getDialects()[0]->getStorage();
  // Everything of the spec fits a handful of slabs.
  EXPECT_GE(Storage.getNumSlabs(), 1u);
  EXPECT_LE(Storage.getNumSlabs(), 6u);
  EXPECT_LE(Storage.getBytesReserved(), 4 * 64 * 1024u);
}

} // namespace
