//===- ProgramBytecodeTest.cpp - Constraint programs of loaded specs ----===//
///
/// Constraint programs of specs loaded from `.irbc` and the content-hash
/// spec cache: a spec load compiles every program from the decoded trees
/// (as many as a textual load of the same specs), a read from a file must
/// be observationally identical to a read from memory and agree with the
/// tree interpreter over the whole synthetic corpus and over variables
/// that reference variables, loaded programs must not depend on their
/// source bytes once the read returns (the file may be rewritten or
/// truncated, the buffer overwritten or freed), and the on-disk spec
/// cache must hit on identical content and invalidate stale entries,
/// including entries of an earlier format version.

#include "bytecode/Bytecode.h"
#include "bytecode/Encoding.h"
#include "bytecode/SpecCache.h"
#include "common/EngineOracle.h"
#include "common/ScopedMetrics.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/File.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <sys/stat.h>
#include <unistd.h>
#include <utility>

using namespace irdl;
using namespace irdl::bytecode;

namespace {

/// The full corpus loaded once, with its spec-only bytecode.
struct CorpusFixture {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags{&SrcMgr};
  CorpusLoadResult Corpus;
  std::string SpecBytes;

  CorpusFixture() {
    Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
    if (!Corpus)
      return;
    BytecodeWriter Writer;
    Writer.addModuleSpecs(*Corpus.Module);
    SpecBytes = Writer.write();
  }
};

CorpusFixture &corpusFixture() {
  static CorpusFixture F;
  return F;
}

/// A spec-only cmath buffer (no native hooks needed to read it back).
std::string cmathSpecBytes() {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                 "/cmath.irdl",
                        SrcMgr, Diags);
  EXPECT_NE(M, nullptr) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*M);
  return Writer.write();
}

/// Writes \p Bytes to a per-process temporary file named after \p Stem
/// and returns its path.
std::string writeTempFile(const std::string &Stem, const std::string &Bytes) {
  std::string Path = ::testing::TempDir() + Stem + "." +
                     std::to_string(::getpid()) + ".irbc";
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  return Path;
}

/// Payload range [start, end) of the section with \p WantId, walking the
/// container (magic, varint version, then id byte + fixed u64 length).
std::pair<size_t, size_t> sectionPayload(const std::string &Buffer,
                                         SectionId WantId) {
  size_t Pos = 4; // magic
  while (Pos < Buffer.size() && (static_cast<uint8_t>(Buffer[Pos]) & 0x80))
    ++Pos;
  ++Pos; // last version-varint byte
  while (Pos + 9 <= Buffer.size()) {
    uint8_t Id = static_cast<uint8_t>(Buffer[Pos++]);
    uint64_t Len = 0;
    for (unsigned I = 0; I != 8; ++I)
      Len |= static_cast<uint64_t>(static_cast<uint8_t>(Buffer[Pos++]))
             << (8 * I);
    if (Id == static_cast<uint8_t>(WantId))
      return {Pos, Pos + Len};
    Pos += Len;
  }
  return {0, 0};
}

TEST(ProgramBytecode, SpecLoadCompilesEveryProgram) {
  CorpusFixture &F = corpusFixture();
  ASSERT_TRUE(static_cast<bool>(F.Corpus)) << F.Diags.renderAll();

  Statistic *Compiled = StatisticRegistry::instance().lookup(
      "ConstraintCompiler", "NumProgramsCompiled");
  ASSERT_NE(Compiled, nullptr);
  ScopedMetricsEnabled Metrics;

  uint64_t Before = Compiled->get();
  std::string Path = writeTempFile("program_bytecode_corpus", F.SpecBytes);
  IRContext FreshCtx;
  DiagnosticEngine FreshDiags;
  BytecodeReadResult Result;
  ASSERT_TRUE(succeeded(readBytecodeFile(Path, FreshCtx, FreshDiags, Result,
                                         corpusNativeOptions())))
      << FreshDiags.renderAll();
  std::remove(Path.c_str());
  ASSERT_NE(Result.Specs, nullptr);
  ASSERT_EQ(Result.Specs->getDialects().size(),
            F.Corpus.Module->getDialects().size());
  uint64_t FromBytecode = Compiled->get() - Before;

  Before = Compiled->get();
  IRContext TextCtx;
  SourceMgr TextSrcMgr;
  DiagnosticEngine TextDiags(&TextSrcMgr);
  ASSERT_TRUE(static_cast<bool>(
      loadSyntheticCorpus(TextCtx, TextSrcMgr, TextDiags)))
      << TextDiags.renderAll();
  uint64_t FromText = Compiled->get() - Before;

  // The file carries constraint trees only: registration compiles every
  // slot, exactly as it does after the textual frontend.
  EXPECT_GT(FromText, 0u);
  EXPECT_EQ(FromBytecode, FromText);
}

/// Loads \p SpecBytes two more ways next to the textual frontend that
/// produced them (\p TextCtx): a bytecode read from memory, and a
/// readBytecodeFile read of the same bytes on disk. Each generic-form module
/// in \p Modules (label, text) must parse and verify identically in all
/// three contexts, once as written and once with every op's first
/// attribute dropped so the failure path is compared too. The programs
/// of both bytecode reads are also checked slot by slot against the tree
/// oracle.
void expectReadPathsAgree(
    IRContext &TextCtx, const std::string &SpecBytes,
    const std::vector<std::pair<std::string, std::string>> &Modules,
    const IRDLLoadOptions &Opts = {}) {
  std::string Path = writeTempFile("program_bytecode_paths", SpecBytes);

  IRContext CopyCtx;
  DiagnosticEngine CopyDiags;
  BytecodeReader CopyReader(CopyCtx, CopyDiags, Opts);
  BytecodeReadResult CopyResult;
  ASSERT_TRUE(succeeded(CopyReader.read(SpecBytes, CopyResult)))
      << CopyDiags.renderAll();

  IRContext FileCtx;
  DiagnosticEngine FileDiags;
  BytecodeReadResult FileResult;
  ASSERT_TRUE(
      succeeded(readBytecodeFile(Path, FileCtx, FileDiags, FileResult, Opts)))
      << FileDiags.renderAll();
  std::remove(Path.c_str());

  EngineOracle CopyOracle, FileOracle;
  CopyOracle.addModule(*CopyResult.Specs);
  FileOracle.addModule(*FileResult.Specs);

  auto DropFirstAttrs = [](Operation *M) {
    M->walk([](Operation *Op) {
      if (!Op->getAttrs().empty())
        Op->removeAttr(Op->getAttrs().begin()->Name);
    });
  };

  for (const auto &[Label, Text] : Modules) {
    for (bool Mutate : {false, true}) {
      struct Outcome {
        bool Parsed = false;
        bool Verified = false;
        std::string Diags;
      };
      Outcome Outcomes[3];
      IRContext *Ctxs[3] = {&TextCtx, &CopyCtx, &FileCtx};
      EngineOracle *Oracles[3] = {nullptr, &CopyOracle, &FileOracle};
      const char *Labels[3] = {"text", "copy", "file"};
      std::string Suffix = Mutate ? " (mutated)" : "";
      for (int I = 0; I != 3; ++I) {
        SourceMgr SM;
        DiagnosticEngine PDiags(&SM);
        OwningOpRef M = parseSourceString(*Ctxs[I], Text, SM, PDiags);
        Outcomes[I].Parsed = static_cast<bool>(M);
        if (!M)
          continue;
        if (Mutate)
          DropFirstAttrs(M.get());
        DiagnosticEngine VDiags(&SM);
        Outcomes[I].Verified = succeeded(M->verify(VDiags));
        Outcomes[I].Diags = VDiags.renderAll();
        if (Oracles[I])
          Oracles[I]->check(M.get(), Label + " via " + Labels[I] + Suffix);
      }
      ASSERT_TRUE(Outcomes[0].Parsed) << Label;
      for (int I = 1; I != 3; ++I) {
        EXPECT_EQ(Outcomes[0].Parsed, Outcomes[I].Parsed)
            << Label << " via " << Labels[I];
        EXPECT_EQ(Outcomes[0].Verified, Outcomes[I].Verified)
            << Label << " via " << Labels[I] << Suffix;
        EXPECT_EQ(Outcomes[0].Diags, Outcomes[I].Diags)
            << Label << " via " << Labels[I] << Suffix;
      }
    }
  }
}

TEST(ProgramBytecode, MmapCopiedAndInterpreterVerifyIdentically) {
  CorpusFixture &F = corpusFixture();
  ASSERT_TRUE(static_cast<bool>(F.Corpus)) << F.Diags.renderAll();

  PrintOptions Generic;
  Generic.GenericForm = true;
  std::vector<std::pair<std::string, std::string>> Modules;
  for (const auto &Spec : F.Corpus.AnalysisDialects) {
    OwningOpRef Synth = synthesizeModule(F.Ctx, *Spec);
    ASSERT_TRUE(static_cast<bool>(Synth)) << Spec->Name;
    Modules.emplace_back(Spec->Name, printOpToString(Synth.get(), Generic));
  }
  expectReadPathsAgree(F.Ctx, F.SpecBytes, Modules, corpusNativeOptions());
}

TEST(ProgramBytecode, VariableProgramsRoundTrip) {
  // C's constraint refers to T, and R refers to itself under a type
  // parameter: variable programs carry Var opcodes of their own.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDL(Ctx, R"(
    Dialect vv {
      Type complex {
        Parameters (elem: !AnyType)
      }
      Operation pair {
        ConstraintVar (!T: !AnyOf<!f32, !f64>, !C: !complex<!T>)
        Operands (x: !T, y: !C)
        Attributes (tag: #AnyAttr)
      }
      Operation nest {
        ConstraintVar (!R: !AnyOf<!f32, !complex<!R>>)
        Operands (x: !R)
        Results (r: !R)
      }
    }
  )",
                    SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*M);

  expectReadPathsAgree(
      Ctx, Writer.write(),
      {{"pair", R"(
          std.func @f(%a: f32, %b: f64, %ca: !vv.complex<f32>,
                      %cb: !vv.complex<f64>) {
            "vv.pair"(%a, %ca) {tag = 1 : i32}
                : (f32, !vv.complex<f32>) -> ()
            "vv.pair"(%b, %cb) {tag = 1 : i32}
                : (f64, !vv.complex<f64>) -> ()
            std.return
          }
        )"},
       {"pair mismatch", R"(
          std.func @f(%a: f32, %cb: !vv.complex<f64>) {
            "vv.pair"(%a, %cb) {tag = 1 : i32}
                : (f32, !vv.complex<f64>) -> ()
            std.return
          }
        )"},
       {"nest", R"(
          std.func @f(%cc: !vv.complex<!vv.complex<f32>>) {
            %r = "vv.nest"(%cc) : (!vv.complex<!vv.complex<f32>>)
                -> (!vv.complex<!vv.complex<f32>>)
            std.return
          }
        )"},
       {"nest mismatch", R"(
          std.func @f(%cb: !vv.complex<f64>) {
            %r = "vv.nest"(%cb) : (!vv.complex<f64>) -> (!vv.complex<f64>)
            std.return
          }
        )"}});
}

/// A module holding a well-typed cmath.mul followed by one whose
/// operands disagree on !T.
constexpr const char *MulModule = R"(
    std.func @f(%b32: !cmath.complex<f32>, %c64: !cmath.complex<f64>) {
      %0 = "cmath.mul"(%b32, %b32)
          : (!cmath.complex<f32>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
      %1 = "cmath.mul"(%c64, %b32)
          : (!cmath.complex<f64>, !cmath.complex<f32>) -> (!cmath.complex<f32>)
      std.return
    }
  )";

/// The outcome of verifying MulModule: whether verification failed, and
/// the rendered diagnostics.
using MulVerdict = std::pair<bool, std::string>;

/// Verifies MulModule against the cmath specs already loaded into \p Ctx.
MulVerdict verifyMulModuleIn(IRContext &Ctx) {
  SourceMgr SM;
  DiagnosticEngine Diags(&SM);
  OwningOpRef M = parseSourceString(Ctx, MulModule, SM, Diags);
  if (!M) {
    ADD_FAILURE() << Diags.renderAll();
    return {};
  }
  bool Failed = failed(M->verify(Diags));
  return {Failed, Diags.renderAll()};
}

/// Loads the cmath specs from \p SpecBytes and verifies MulModule.
MulVerdict verifyMulModule(const std::string &SpecBytes) {
  IRContext Ctx;
  DiagnosticEngine ReadDiags;
  BytecodeReader Reader(Ctx, ReadDiags);
  BytecodeReadResult Result;
  if (failed(Reader.read(SpecBytes, Result))) {
    ADD_FAILURE() << ReadDiags.renderAll();
    return {};
  }
  return verifyMulModuleIn(Ctx);
}

/// Overwrites the file at \p Path with \p Bytes in place: same inode,
/// same length, no truncation.
void overwriteInPlace(const std::string &Path, const std::string &Bytes) {
  std::fstream Out(Path, std::ios::in | std::ios::out | std::ios::binary);
  ASSERT_TRUE(Out.good()) << Path;
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.flush();
  ASSERT_TRUE(Out.good()) << Path;
}

/// Decodes the unsigned LEB128 varint of \p Buffer at \p Pos and moves
/// \p Pos past it.
uint64_t varIntAt(const std::string &Buffer, size_t &Pos) {
  uint64_t V = 0;
  for (unsigned Shift = 0; Pos < Buffer.size() && Shift < 64; Shift += 7) {
    uint8_t B = static_cast<uint8_t>(Buffer[Pos++]);
    V |= static_cast<uint64_t>(B & 0x7f) << Shift;
    if (!(B & 0x80))
      break;
  }
  return V;
}

/// The unsigned LEB128 encoding of \p V.
std::string varIntBytes(uint64_t V) {
  std::string Bytes;
  for (; V >= 0x80; V >>= 7)
    Bytes += static_cast<char>((V & 0x7f) | 0x80);
  return Bytes + static_cast<char>(V);
}

/// The index of \p S in the string table of \p Buffer.
std::optional<uint64_t> stringIndex(const std::string &Buffer,
                                    std::string_view S) {
  auto [Pos, End] = sectionPayload(Buffer, SectionId::Strings);
  uint64_t N = varIntAt(Buffer, Pos);
  for (uint64_t I = 0; I != N && Pos < End; ++I) {
    uint64_t Len = varIntAt(Buffer, Pos);
    if (std::string_view(Buffer).substr(Pos, Len) == S)
      return I;
    Pos += Len;
  }
  return std::nullopt;
}

/// \p Honest with the variable of cmath.mul narrowed in the Specs section
/// from `!T: !complex<!AnyOf<!f32, !f64>>` to
/// `!T: !complex<!AnyOf<!f64, !f64>>`, so the well-typed f32 mul fails
/// too.
std::string withMulF32Dropped(const std::string &Honest) {
  std::optional<uint64_t> Complex = stringIndex(Honest, "cmath.complex");
  std::optional<uint64_t> F32 = stringIndex(Honest, "builtin.f32");
  std::optional<uint64_t> F64 = stringIndex(Honest, "builtin.f64");
  if (!Complex || !F32 || !F64 ||
      varIntBytes(*F32).size() != varIntBytes(*F64).size()) {
    ADD_FAILURE() << "unexpected string table in the spec buffer";
    return Honest;
  }
  // Wire tags (docs/serialization.md): TypeParams = 3 (definition name,
  // base-only byte, children), AnyOf = 16 (children).
  auto Exact = [](uint64_t Name) {
    return '\x03' + varIntBytes(Name) + std::string("\0\0", 2);
  };
  std::string Honest32 = Exact(*F32);
  std::string Var =
      '\x03' + varIntBytes(*Complex) + std::string("\0\x01\x10\x02", 4);
  size_t Head = Var.size();
  Var += Honest32 + Exact(*F64);

  auto [Start, End] = sectionPayload(Honest, SectionId::Specs);
  size_t At = Honest.find(Var, Start);
  if (At == std::string::npos || At + Var.size() > End ||
      Honest.find(Var, At + 1) != std::string::npos) {
    ADD_FAILURE() << "cmath.mul's variable is not once in the Specs section";
    return Honest;
  }
  std::string Rewritten = Honest;
  Rewritten.replace(At + Head, Honest32.size(), Exact(*F64));
  return Rewritten;
}

/// Checks that specs loaded from the file at \p Path by \p Load keep
/// their verdicts after the file's Specs section is rewritten in place
/// and after the file is truncated at the start of that section.
void expectLoadIgnoresLaterFileChanges(
    const std::string &Path,
    const std::function<LogicalResult(IRContext &, DiagnosticEngine &)>
        &Load) {
  std::string Honest, Error;
  ASSERT_TRUE(succeeded(readFileToString(Path, Honest, Error))) << Error;
  std::string Rewritten = withMulF32Dropped(Honest);
  ASSERT_NE(Rewritten, Honest);
  // Read fresh, the rewritten bytes also reject the well-typed mul, so a
  // program that still depended on the file's bytes would change its
  // diagnostics.
  MulVerdict Narrowed = verifyMulModule(Rewritten);
  EXPECT_TRUE(Narrowed.first);
  EXPECT_NE(Narrowed.second.find("'lhs'"), std::string::npos)
      << Narrowed.second;

  IRContext Ctx;
  DiagnosticEngine Diags;
  ASSERT_TRUE(succeeded(Load(Ctx, Diags))) << Diags.renderAll();
  MulVerdict Expected = verifyMulModuleIn(Ctx);
  EXPECT_TRUE(Expected.first);
  EXPECT_NE(Expected.second.find("does not satisfy constraint !T"),
            std::string::npos)
      << Expected.second;
  EXPECT_NE(Narrowed, Expected);

  overwriteInPlace(Path, Rewritten);
  EXPECT_EQ(verifyMulModuleIn(Ctx), Expected) << "after in-place rewrite";

  auto [Start, End] = sectionPayload(Honest, SectionId::Specs);
  ASSERT_LT(Start, End);
  ASSERT_EQ(::truncate(Path.c_str(), static_cast<off_t>(Start)), 0);
  EXPECT_EQ(verifyMulModuleIn(Ctx), Expected) << "after truncation";
}

TEST(ProgramBytecode, LoadedProgramsIgnoreLaterFileChanges) {
  // A spec file read by readBytecodeFile.
  std::string Path = writeTempFile("program_bytecode_rewrite", cmathSpecBytes());
  expectLoadIgnoresLaterFileChanges(
      Path, [&](IRContext &Ctx, DiagnosticEngine &Diags) {
        BytecodeReadResult Result;
        return readBytecodeFile(Path, Ctx, Diags, Result);
      });
  std::remove(Path.c_str());

  // A spec-cache entry read by loadCachedSpec.
  IRContext TextCtx;
  SourceMgr SrcMgr;
  DiagnosticEngine TextDiags(&SrcMgr);
  auto M = loadIRDLFile(TextCtx, std::string(IRDL_DIALECTS_DIR) +
                                     "/cmath.irdl",
                        SrcMgr, TextDiags);
  ASSERT_NE(M, nullptr) << TextDiags.renderAll();
  std::string Dir = ::testing::TempDir() + "program_bytecode_rewrite_cache." +
                    std::to_string(::getpid());
  uint64_t Hash = 0xfeedfacecafe0002ULL;
  ASSERT_TRUE(succeeded(storeCachedSpec(Dir, Hash, *M, TextDiags)))
      << TextDiags.renderAll();
  expectLoadIgnoresLaterFileChanges(
      specCachePath(Dir, Hash), [&](IRContext &Ctx, DiagnosticEngine &Diags) {
        BytecodeReadResult Result;
        return loadCachedSpec(Dir, Hash, Ctx, Diags, Result);
      });
  std::remove(specCachePath(Dir, Hash).c_str());
  ::rmdir(Dir.c_str());
}

TEST(ProgramBytecode, ReadBufferCanBeFreedBeforeVerify) {
  auto Bytes = std::make_unique<std::string>(cmathSpecBytes());
  MulVerdict Expected = verifyMulModule(*Bytes);
  EXPECT_TRUE(Expected.first);
  EXPECT_NE(Expected.second.find("does not satisfy constraint !T"),
            std::string::npos)
      << Expected.second;

  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReader Reader(Ctx, Diags);
  BytecodeReadResult Result;
  ASSERT_TRUE(succeeded(Reader.read(*Bytes, Result))) << Diags.renderAll();
  // Nothing loaded may keep a view into the buffer: scribble over it,
  // then free it (ASan reports any later read of either).
  std::fill(Bytes->begin(), Bytes->end(), '\xff');
  Bytes.reset();
  EXPECT_EQ(verifyMulModuleIn(Ctx), Expected);
}

TEST(ProgramBytecode, SpecHashIgnoresNonSpecSections) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                 "/cmath.irdl",
                        SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();

  BytecodeWriter Plain;
  Plain.addModuleSpecs(*M);
  std::string PlainBytes = Plain.write();

  BytecodeWriter WithMeta;
  WithMeta.addModuleSpecs(*M);
  WithMeta.setSourceHash(0x1234);
  std::string MetaBytes = WithMeta.write();

  // The Meta section changes the bytes but not the spec identity.
  EXPECT_NE(PlainBytes, MetaBytes);
  EXPECT_EQ(hashSpecBuffer(PlainBytes), hashSpecBuffer(MetaBytes));

  // Textual buffers hash whole — any edit is a different spec.
  EXPECT_NE(hashSpecBuffer("Dialect a {}"), hashSpecBuffer("Dialect b {}"));
}

TEST(ProgramBytecode, StaleOnDiskCacheEntryIsInvalidated) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::string SpecPath = std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl";
  auto M = loadIRDLFile(Ctx, SpecPath, SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();

  std::string Dir = ::testing::TempDir() + "program_bytecode_cache." +
                    std::to_string(::getpid());
  uint64_t Hash = 0xfeedfacecafe0001ULL;
  ASSERT_TRUE(succeeded(storeCachedSpec(Dir, Hash, *M, Diags)))
      << Diags.renderAll();

  // Round trip: the entry loads into a fresh context.
  {
    IRContext FreshCtx;
    DiagnosticEngine FreshDiags;
    BytecodeReadResult Result;
    ASSERT_TRUE(
        succeeded(loadCachedSpec(Dir, Hash, FreshCtx, FreshDiags, Result)))
        << FreshDiags.renderAll();
    ASSERT_NE(Result.Specs, nullptr);
    EXPECT_EQ(printDialectSpec(*M->getDialects()[0]),
              printDialectSpec(*Result.Specs->getDialects()[0]));
  }

  // An entry written by an earlier format version (its version varint,
  // the byte after the magic, patched to 2) is stale: the load misses,
  // warns and deletes it, and the rebuilt entry hits again.
  {
    std::string Entry, Error;
    ASSERT_TRUE(
        succeeded(readFileToString(specCachePath(Dir, Hash), Entry, Error)))
        << Error;
    ASSERT_EQ(Entry[4], static_cast<char>(FormatVersion));
    Entry[4] = 2;
    std::ofstream(specCachePath(Dir, Hash), std::ios::binary | std::ios::trunc)
        << Entry;

    IRContext FreshCtx;
    DiagnosticEngine FreshDiags;
    BytecodeReadResult Result;
    EXPECT_TRUE(
        failed(loadCachedSpec(Dir, Hash, FreshCtx, FreshDiags, Result)));
    EXPECT_NE(FreshDiags.renderAll().find("stale"), std::string::npos)
        << FreshDiags.renderAll();
    struct ::stat St;
    EXPECT_NE(::stat(specCachePath(Dir, Hash).c_str(), &St), 0)
        << "version-2 cache entry survived";

    ASSERT_TRUE(succeeded(storeCachedSpec(Dir, Hash, *M, Diags)))
        << Diags.renderAll();
    IRContext RebuiltCtx;
    DiagnosticEngine RebuiltDiags;
    BytecodeReadResult Rebuilt;
    ASSERT_TRUE(succeeded(
        loadCachedSpec(Dir, Hash, RebuiltCtx, RebuiltDiags, Rebuilt)))
        << RebuiltDiags.renderAll();
    ASSERT_NE(Rebuilt.Specs, nullptr);
  }

  // Rename the entry under a different hash: its embedded Meta hash no
  // longer matches its filename, so the load must miss, warn, and delete
  // the stale file.
  uint64_t WrongHash = Hash ^ 0xdeadULL;
  ASSERT_EQ(std::rename(specCachePath(Dir, Hash).c_str(),
                        specCachePath(Dir, WrongHash).c_str()),
            0);
  {
    IRContext FreshCtx;
    DiagnosticEngine FreshDiags;
    BytecodeReadResult Result;
    EXPECT_TRUE(
        failed(loadCachedSpec(Dir, WrongHash, FreshCtx, FreshDiags, Result)));
    EXPECT_NE(FreshDiags.renderAll().find("stale"), std::string::npos)
        << FreshDiags.renderAll();
    struct ::stat St;
    EXPECT_NE(::stat(specCachePath(Dir, WrongHash).c_str(), &St), 0)
        << "stale cache entry survived";
  }

  // An absent entry is a silent miss — no diagnostics at all.
  {
    IRContext FreshCtx;
    DiagnosticEngine FreshDiags;
    BytecodeReadResult Result;
    EXPECT_TRUE(failed(
        loadCachedSpec(Dir, Hash + 42, FreshCtx, FreshDiags, Result)));
    EXPECT_TRUE(FreshDiags.renderAll().empty())
        << FreshDiags.renderAll();
  }
  ::rmdir(Dir.c_str());
}

TEST(ProgramBytecode, VersionMismatchNamesFileAndVersions) {
  std::string Path = ::testing::TempDir() + "program_bytecode_v99." +
                     std::to_string(::getpid()) + ".irbc";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out << "IRBC" << static_cast<char>(99);
  }

  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReadResult Result;
  EXPECT_TRUE(failed(readBytecodeFile(Path, Ctx, Diags, Result)));
  std::string Rendered = Diags.renderAll();
  // The diagnostic must carry the offending file and both versions.
  EXPECT_NE(Rendered.find(Path), std::string::npos) << Rendered;
  EXPECT_NE(Rendered.find("unsupported bytecode version 99"),
            std::string::npos)
      << Rendered;
  EXPECT_NE(Rendered.find("expected 3"), std::string::npos) << Rendered;
  std::remove(Path.c_str());
}

} // namespace
