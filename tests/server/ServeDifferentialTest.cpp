//===- ServeDifferentialTest.cpp - served vs irdl_opt diagnostics -------===//
///
/// Locks the tentpole guarantee of docs/serving.md: a one-shot VERIFY
/// response is byte-identical to what `irdl_opt` prints for the
/// same input. The reference side reproduces irdl_opt's exact pipeline —
/// fresh context, dialect load, parse (or bytecode read), then
/// PassManager-style verification with the trailing "IR failed to verify
/// before the pipeline" error — while the served side goes over a real
/// socket to an in-process VerifyServer. Compared over every bundled
/// dialect with valid synthesized modules, attribute-dropping mutations,
/// hand-broken textual modules (caret rendering included), and
/// module-only bytecode.

#include "bytecode/Bytecode.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "server/Client.h"
#include "server/Server.h"
#include "support/File.h"

#include <gtest/gtest.h>

#include <thread>
#include <unistd.h>

using namespace irdl;
using namespace irdl::serve;

namespace {

std::string dialectPath(const char *File) {
  return std::string(IRDL_DIALECTS_DIR) + "/" + File;
}

/// What irdl_opt prints to stderr (and with what exit status) for textual
/// input \p Source with \p DialectFile loaded and an empty pass pipeline:
/// parse diagnostics on a parse error, otherwise verification diagnostics
/// plus the pipeline tag on a verify error, otherwise nothing.
struct ReferenceRun {
  bool Ok;
  std::string DiagText;
};

ReferenceRun referenceVerify(const std::string &DialectFile,
                             std::string_view Content,
                             const std::string &BufferName) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module = loadIRDLFile(Ctx, dialectPath(DialectFile.c_str()), SrcMgr,
                             Diags);
  EXPECT_NE(Module, nullptr) << Diags.renderAll();
  if (!Module)
    return {false, Diags.renderAll()};

  OwningOpRef M;
  if (isBytecodeBuffer(Content)) {
    BytecodeReader Reader(Ctx, Diags);
    BytecodeReadResult Result;
    if (failed(Reader.read(Content, Result)) || !Result.Module)
      return {false, Diags.renderAll()};
    M = std::move(Result.Module);
  } else {
    M = parseSourceString(Ctx, Content, SrcMgr, Diags, BufferName);
    if (!M)
      return {false, Diags.renderAll()};
  }

  DiagnosticEngine PipelineDiags(&SrcMgr);
  if (failed(verifyOp(M.get(), PipelineDiags))) {
    PipelineDiags.emitError(M->getLoc(),
                            "IR failed to verify before the pipeline");
    return {false, PipelineDiags.renderAll()};
  }
  return {true, ""};
}

class ServeDifferentialTest : public ::testing::Test {
protected:
  void SetUp() override {
    SocketPath = "/tmp/irdl_serve_diff." + std::to_string(::getpid()) +
                 ".sock";
    Server = std::make_unique<VerifyServer>(ServerOptions{SocketPath});
    std::string Error;
    ASSERT_TRUE(succeeded(Server->start(Error))) << Error;
    Serving = std::thread([this]() { Server->serve(); });
    ASSERT_TRUE(succeeded(Client.connect(SocketPath, Error))) << Error;
  }

  void TearDown() override {
    Server->requestStop();
    if (Serving.joinable())
      Serving.join();
  }

  void loadBundledDialect(const char *File) {
    std::string Buffer, Error;
    ASSERT_TRUE(
        succeeded(readFileToString(dialectPath(File), Buffer, Error)))
        << Error;
    ResponseFrame Response;
    ASSERT_TRUE(succeeded(Client.loadDialect(File, Buffer, Response, Error)))
        << Error;
    ASSERT_EQ(Response.Status, FrameStatus::Ok) << Response.Payload;
  }

  /// Served and reference verification must agree byte for byte.
  void expectServedMatchesReference(const char *DialectFile,
                                    std::string_view Content,
                                    const std::string &BufferName) {
    ReferenceRun Ref = referenceVerify(DialectFile, Content, BufferName);
    ResponseFrame Response;
    std::string Error;
    ASSERT_TRUE(
        succeeded(Client.verify(BufferName, Content, Response, Error)))
        << Error;
    EXPECT_EQ(Response.Status == FrameStatus::Ok, Ref.Ok)
        << BufferName << "\nserved:\n"
        << Response.Payload << "\nreference:\n"
        << Ref.DiagText;
    EXPECT_EQ(Response.Payload, Ref.DiagText)
        << "served diagnostics diverged for " << BufferName;
  }

  std::string SocketPath;
  std::unique_ptr<VerifyServer> Server;
  std::thread Serving;
  ServeClient Client;
};

/// Drops the first attribute of every op that has one (the
/// CompiledConstraintDifferentialTest mutation): printed back to text,
/// the module exercises the failure path end to end.
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

constexpr const char *BundledDialects[] = {"cmath.irdl", "arith.irdl",
                                           "scf.irdl", "complex.irdl",
                                           "math.irdl"};

TEST_F(ServeDifferentialTest, SynthesizedModulesMatchOverText) {
  for (const char *File : BundledDialects) {
    loadBundledDialect(File);

    // Synthesize against a scratch context, ship as text.
    IRContext Ctx;
    SourceMgr SrcMgr;
    DiagnosticEngine Diags(&SrcMgr);
    auto Module = loadIRDLFile(Ctx, dialectPath(File), SrcMgr, Diags);
    ASSERT_NE(Module, nullptr) << Diags.renderAll();
    for (const auto &Spec : Module->getDialects()) {
      OwningOpRef Valid = synthesizeModule(Ctx, *Spec);
      ASSERT_TRUE(static_cast<bool>(Valid)) << Spec->Name;
      PrintOptions Generic;
      Generic.GenericForm = true;
      std::string ValidText = printOpToString(Valid.get(), Generic) + "\n";
      expectServedMatchesReference(File, ValidText,
                                   std::string(Spec->Name) + ".valid.mlir");

      OwningOpRef Mutated = synthesizeModule(Ctx, *Spec, {/*Seed=*/13});
      ASSERT_TRUE(static_cast<bool>(Mutated)) << Spec->Name;
      mutateDropAttributes(Mutated.get());
      std::string MutatedText =
          printOpToString(Mutated.get(), Generic) + "\n";
      expectServedMatchesReference(File, MutatedText,
                                   std::string(Spec->Name) + ".mutated.mlir");
    }
  }
}

TEST_F(ServeDifferentialTest, BrokenTextualModulesMatchWithCarets) {
  loadBundledDialect("cmath.irdl");

  // Verifier failure with caret rendering against the shipped source.
  const char *BadVerify = "std.func @bad(%c: f32) -> f32 {\n"
                          "  %r = \"cmath.norm\"(%c) : (f32) -> f32\n"
                          "  std.return %r : f32\n"
                          "}\n";
  expectServedMatchesReference("cmath.irdl", BadVerify, "bad_verify.mlir");

  // Parse failure: diagnostics come from the parser, not the verifier.
  const char *BadParse = "%c = \"cmath.norm\"(%%) : oops\n";
  expectServedMatchesReference("cmath.irdl", BadParse, "bad_parse.mlir");

  // Unknown type under a loaded dialect.
  const char *BadType = "std.func @t(%c: !cmath.nosuch<f32>) {\n"
                        "  std.return\n"
                        "}\n";
  expectServedMatchesReference("cmath.irdl", BadType, "bad_type.mlir");

  // And a valid one for the empty-diagnostics case.
  const char *Good =
      "std.func @good(%c: !cmath.complex<f32>) -> f32 {\n"
      "  %r = \"cmath.norm\"(%c) : (!cmath.complex<f32>) -> f32\n"
      "  std.return %r : f32\n"
      "}\n";
  expectServedMatchesReference("cmath.irdl", Good, "good.mlir");
}

TEST_F(ServeDifferentialTest, ModuleOnlyBytecodeMatches) {
  loadBundledDialect("cmath.irdl");

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Module =
      loadIRDLFile(Ctx, dialectPath("cmath.irdl"), SrcMgr, Diags);
  ASSERT_NE(Module, nullptr) << Diags.renderAll();

  for (const auto &Spec : Module->getDialects()) {
    for (uint64_t Seed : {1u, 13u}) {
      OwningOpRef M = synthesizeModule(Ctx, *Spec, {Seed});
      ASSERT_TRUE(static_cast<bool>(M)) << Spec->Name;
      if (Seed != 1)
        mutateDropAttributes(M.get());
      BytecodeWriter Writer;
      Writer.setModule(M.get());
      std::string Buffer = Writer.write();
      ASSERT_FALSE(bytecodeBufferHasSpecs(Buffer));
      expectServedMatchesReference(
          "cmath.irdl", Buffer,
          std::string(Spec->Name) + ".seed" + std::to_string(Seed) + ".irbc");
    }
  }

  // Truncated bytecode over the wire: served and reference diagnostics
  // agree (the reader's structured corruption errors, no crash).
  OwningOpRef M = synthesizeModule(Ctx, *Module->getDialects()[0]);
  ASSERT_TRUE(static_cast<bool>(M));
  BytecodeWriter Writer;
  Writer.setModule(M.get());
  std::string Buffer = Writer.write();
  expectServedMatchesReference("cmath.irdl",
                               std::string_view(Buffer).substr(
                                   0, Buffer.size() / 2),
                               "truncated.irbc");
}

} // namespace
