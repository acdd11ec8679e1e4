//===- SharedContextTest.cpp - Concurrent verifies on one context -------===//
///
/// irdl_serve gives each connection its own thread, and all of them parse
/// and verify against one context with loaded dialects. They share it
/// only as const: each request builds its IR in a child of the shared
/// context, so the threads only read what they share (the registry, the
/// parent's uniqued types and attributes, and the compiled constraint
/// programs with their dispatch tables; there is no verdict cache). Here
/// four threads each parse and verify every module of a set (valid ones,
/// synthesized ones over the five bundled dialects, and hand-broken ones),
/// each in its own child of one such context. Every verdict and rendered
/// diagnostic stream must equal a sequential run in the shared context
/// itself, and the threads must leave that context's pools unchanged.

#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <thread>

using namespace irdl;

namespace {

constexpr const char *BundledDialects[] = {"cmath.irdl", "arith.irdl",
                                           "scf.irdl", "complex.irdl",
                                           "math.irdl"};

/// Loads every bundled dialect into \p Ctx; returns the loaded modules.
std::vector<std::unique_ptr<IRDLModule>> loadBundled(IRContext &Ctx,
                                                     SourceMgr &SrcMgr) {
  std::vector<std::unique_ptr<IRDLModule>> Modules;
  DiagnosticEngine Diags(&SrcMgr);
  for (const char *File : BundledDialects) {
    auto Module = loadIRDLFile(
        Ctx, std::string(IRDL_DIALECTS_DIR) + "/" + File, SrcMgr, Diags);
    EXPECT_NE(Module, nullptr) << Diags.renderAll();
    if (Module)
      Modules.push_back(std::move(Module));
  }
  return Modules;
}

struct Input {
  std::string Name;
  std::string Text;
};

/// \p NumFuncs functions, each a chain of \p ChainLen cmath.mul ops.
std::string mulChains(unsigned NumFuncs, unsigned ChainLen) {
  std::string Text;
  for (unsigned F = 0; F != NumFuncs; ++F) {
    Text += "std.func @f" + std::to_string(F) +
            "(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)"
            " -> !cmath.complex<f32> {\n";
    std::string Prev = "%p";
    for (unsigned I = 0; I != ChainLen; ++I) {
      std::string Cur = "%v" + std::to_string(I);
      Text += "  " + Cur + " = cmath.mul " + Prev + ", %q : f32\n";
      Prev = Cur;
    }
    Text += "  std.return " + Prev + " : !cmath.complex<f32>\n}\n";
  }
  return Text;
}

/// Valid modules; the generic-form text of a synthesized and of an
/// attribute-dropped synthesized module per bundled dialect (both fail
/// their constraints somewhere); and modules that fail in the parser
/// and in the verifier with caret diagnostics.
std::vector<Input> makeInputs() {
  IRContext Ctx;
  SourceMgr SrcMgr;
  std::vector<std::unique_ptr<IRDLModule>> Modules = loadBundled(Ctx, SrcMgr);
  PrintOptions Generic;
  Generic.GenericForm = true;
  std::vector<Input> Inputs;
  Inputs.push_back({"chains.mlir", mulChains(8, 32)});
  Inputs.push_back({"conorm.mlir",
                    "std.func @conorm(%p: !cmath.complex<f32>, "
                    "%q: !cmath.complex<f32>) -> f32 {\n"
                    "  %norm_p = cmath.norm %p : f32\n"
                    "  %norm_q = cmath.norm %q : f32\n"
                    "  %pq = std.mulf %norm_p, %norm_q : f32\n"
                    "  std.return %pq : f32\n"
                    "}\n"});
  for (const auto &Module : Modules)
    for (const auto &Spec : Module->getDialects()) {
      OwningOpRef Synth = synthesizeModule(Ctx, *Spec);
      EXPECT_TRUE(static_cast<bool>(Synth)) << Spec->Name;
      Inputs.push_back({Spec->Name + ".synth.mlir",
                        printOpToString(Synth.get(), Generic) + "\n"});
      OwningOpRef Mutated = synthesizeModule(Ctx, *Spec, {/*Seed=*/13});
      EXPECT_TRUE(static_cast<bool>(Mutated)) << Spec->Name;
      Mutated->walk([](Operation *Op) {
        if (!Op->getAttrs().empty())
          Op->removeAttr(Op->getAttrs().begin()->Name);
      });
      Inputs.push_back({Spec->Name + ".mutated.mlir",
                        printOpToString(Mutated.get(), Generic) + "\n"});
    }
  Inputs.push_back({"bad_verify.mlir",
                    "std.func @bad(%c: f32) -> f32 {\n"
                    "  %r = \"cmath.norm\"(%c) : (f32) -> f32\n"
                    "  std.return %r : f32\n"
                    "}\n"});
  Inputs.push_back({"bad_parse.mlir", "%c = \"cmath.norm\"(%%) : oops\n"});
  return Inputs;
}

struct Outcome {
  bool Ok = false;
  std::string Diagnostics;
};

/// Parses and verifies \p In in \p Ctx with its own SourceMgr and
/// DiagnosticEngine, as one irdl_serve request does.
Outcome parseAndVerify(IRContext &Ctx, const Input &In) {
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef M = parseSourceString(Ctx, In.Text, SrcMgr, Diags, In.Name);
  if (!M)
    return {false, Diags.renderAll()};
  bool Ok = succeeded(verifyOp(M.get(), Diags));
  return {Ok, Diags.renderAll()};
}

TEST(SharedContextTest, ConcurrentParseVerifyMatchesSequential) {
  std::vector<Input> Inputs = makeInputs();
  ASSERT_GT(Inputs.size(), 10u);

  IRContext Ctx;
  SourceMgr SpecSrcMgr;
  std::vector<std::unique_ptr<IRDLModule>> Modules =
      loadBundled(Ctx, SpecSrcMgr);
  ASSERT_EQ(Modules.size(), std::size(BundledDialects));

  // The threads run first, while the shared context's pools hold only
  // what loading the dialects interned. Each starts at a different input.
  const size_t SharedTypes = Ctx.getNumUniquedTypes();
  const size_t SharedAttrs = Ctx.getNumUniquedAttrs();
  constexpr size_t NumThreads = 4;
  std::vector<std::vector<Outcome>> Concurrent(
      NumThreads, std::vector<Outcome>(Inputs.size()));
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      const IRContext &Shared = Ctx;
      for (size_t K = 0; K != Inputs.size(); ++K) {
        size_t I = (K + T * Inputs.size() / NumThreads) % Inputs.size();
        IRContext Request(Shared);
        Concurrent[T][I] = parseAndVerify(Request, Inputs[I]);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Ctx.getNumUniquedTypes(), SharedTypes);
  EXPECT_EQ(Ctx.getNumUniquedAttrs(), SharedAttrs);

  unsigned NumFailed = 0;
  for (size_t I = 0; I != Inputs.size(); ++I) {
    Outcome Sequential = parseAndVerify(Ctx, Inputs[I]);
    NumFailed += !Sequential.Ok;
    for (size_t T = 0; T != NumThreads; ++T) {
      EXPECT_EQ(Concurrent[T][I].Ok, Sequential.Ok)
          << Inputs[I].Name << " on thread " << T;
      EXPECT_EQ(Concurrent[T][I].Diagnostics, Sequential.Diagnostics)
          << Inputs[I].Name << " on thread " << T;
    }
  }
  // Both verdicts are covered.
  EXPECT_GT(NumFailed, 0u);
  EXPECT_LT(NumFailed, Inputs.size());
}

} // namespace
