//===- ProgramBytecodeTest.cpp - Compiled program serialization ---------===//
///
/// The v2 Programs section and the content-hash spec cache: deserialized
/// constraint programs must be used as-is (no recompilation), the mmap'd
/// zero-copy read must be observationally identical to the copied read
/// and agree with the tree interpreter over the whole synthetic corpus
/// and over variables that reference variables, corrupt
/// program sections (bad padding, misalignment, truncation) must be
/// rejected with diagnostics, and both cache layers must hit on
/// identical content and invalidate stale on-disk entries.

#include "bytecode/Bytecode.h"
#include "bytecode/Encoding.h"
#include "bytecode/SpecCache.h"
#include "common/EngineOracle.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sys/stat.h>
#include <unistd.h>

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

bool tryRead(const std::string &Buffer, std::string *RenderedDiags) {
  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReader Reader(Ctx, Diags);
  BytecodeReadResult Result;
  bool Ok = succeeded(Reader.read(Buffer, Result));
  if (RenderedDiags)
    *RenderedDiags = Diags.renderAll();
  return Ok;
}

/// Payload range [start, end) of the section with \p WantId, walking the
/// v2 container (magic, varint version, then id byte + fixed u64 length).
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

TEST(ProgramBytecode, DeserializedProgramsAreNotRecompiled) {
  CorpusFixture &F = corpusFixture();
  ASSERT_TRUE(static_cast<bool>(F.Corpus)) << F.Diags.renderAll();

  Statistic *Compiled = StatisticRegistry::instance().lookup(
      "ConstraintCompiler", "NumProgramsCompiled");
  ASSERT_NE(Compiled, nullptr);
  uint64_t Before = Compiled->get();

  IRContext FreshCtx;
  DiagnosticEngine FreshDiags;
  BytecodeReader Reader(FreshCtx, FreshDiags, corpusNativeOptions());
  BytecodeReadResult Result;
  ASSERT_TRUE(succeeded(Reader.read(F.SpecBytes, Result)))
      << FreshDiags.renderAll();
  ASSERT_NE(Result.Specs, nullptr);
  ASSERT_EQ(Result.Specs->getDialects().size(),
            F.Corpus.Module->getDialects().size());

  // Every compiled program came out of the Programs section; registration
  // found all slots populated and compiled nothing.
  EXPECT_EQ(Compiled->get(), Before);
}

/// Loads \p SpecBytes two more ways next to the textual frontend that
/// produced them (\p TextCtx): a copied bytecode read, and the zero-copy
/// mmap read whose programs alias the mapping. Each generic-form module
/// in \p Modules (label, text) must parse and verify identically in all
/// three contexts, once as written and once with every op's first
/// attribute dropped so the failure path is compared too. The programs
/// of both bytecode reads are also checked slot by slot against the tree
/// oracle.
void expectReadPathsAgree(
    IRContext &TextCtx, const std::string &SpecBytes,
    const std::vector<std::pair<std::string, std::string>> &Modules,
    const IRDLLoadOptions &Opts = {}) {
  std::string Path = ::testing::TempDir() + "program_bytecode_paths." +
                     std::to_string(::getpid()) + ".irbc";
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(SpecBytes.data(),
              static_cast<std::streamsize>(SpecBytes.size()));
  }

  IRContext CopyCtx;
  DiagnosticEngine CopyDiags;
  BytecodeReader CopyReader(CopyCtx, CopyDiags, Opts);
  BytecodeReadResult CopyResult;
  ASSERT_TRUE(succeeded(CopyReader.read(SpecBytes, CopyResult)))
      << CopyDiags.renderAll();

  IRContext MmapCtx;
  DiagnosticEngine MmapDiags;
  BytecodeReadResult MmapResult;
  ASSERT_TRUE(succeeded(
      readBytecodeFileMapped(Path, MmapCtx, MmapDiags, MmapResult, Opts)))
      << MmapDiags.renderAll();
  std::remove(Path.c_str());

  EngineOracle CopyOracle, MmapOracle;
  CopyOracle.addModule(*CopyResult.Specs);
  MmapOracle.addModule(*MmapResult.Specs);

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
      IRContext *Ctxs[3] = {&TextCtx, &CopyCtx, &MmapCtx};
      EngineOracle *Oracles[3] = {nullptr, &CopyOracle, &MmapOracle};
      const char *Labels[3] = {"text", "copy", "mmap"};
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

TEST(ProgramBytecode, OversizedPadCountIsRejected) {
  std::string Buffer = cmathSpecBytes();
  auto [Start, End] = sectionPayload(Buffer, SectionId::Programs);
  ASSERT_NE(Start, 0u) << "no Programs section in a spec buffer";
  ASSERT_LT(Start, End);

  // The pad count must stay below the 8-byte alignment unit.
  std::string Corrupt = Buffer;
  Corrupt[Start] = 8;
  std::string Rendered;
  EXPECT_FALSE(tryRead(Corrupt, &Rendered));
  EXPECT_NE(Rendered.find("pad count"), std::string::npos) << Rendered;
}

TEST(ProgramBytecode, MisalignedProgramBodyIsRejected) {
  std::string Buffer = cmathSpecBytes();
  auto [Start, End] = sectionPayload(Buffer, SectionId::Programs);
  ASSERT_NE(Start, 0u);

  // Any in-range pad count other than the written one shifts the body
  // off its 8-byte boundary; the reader must refuse before decoding.
  uint8_t Pad = static_cast<uint8_t>(Buffer[Start]);
  std::string Corrupt = Buffer;
  Corrupt[Start] = static_cast<char>((Pad + 1) % 8);
  std::string Rendered;
  EXPECT_FALSE(tryRead(Corrupt, &Rendered));
  EXPECT_NE(Rendered.find("misaligned"), std::string::npos) << Rendered;
}

TEST(ProgramBytecode, TruncatedProgramSectionIsRejected) {
  std::string Buffer = cmathSpecBytes();
  auto [Start, End] = sectionPayload(Buffer, SectionId::Programs);
  ASSERT_NE(Start, 0u);

  for (size_t Len : {Start + 1, (Start + End) / 2, End - 1}) {
    std::string Rendered;
    EXPECT_FALSE(tryRead(Buffer.substr(0, Len), &Rendered))
        << "chopped at " << Len;
    EXPECT_NE(Rendered.find("invalid bytecode"), std::string::npos)
        << "chopped at " << Len << ": " << Rendered;
  }
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

TEST(ProgramBytecode, InProcessSpecCacheHitsOnIdenticalContent) {
  std::string Source = "in-process spec cache test source";
  uint64_t Hash = hashSpecBuffer(Source);

  ASSERT_EQ(SpecLoadCache::instance().lookup(Hash), nullptr);

  CachedSpecs Entry;
  Entry.Ctx = std::make_shared<IRContext>();
  {
    SourceMgr SM;
    DiagnosticEngine Diags(&SM);
    Entry.Module = loadIRDLFile(*Entry.Ctx,
                                std::string(IRDL_DIALECTS_DIR) +
                                    "/cmath.irdl",
                                SM, Diags);
    ASSERT_NE(Entry.Module, nullptr) << Diags.renderAll();
  }
  const IRDLModule *Inserted = Entry.Module.get();
  SpecLoadCache::instance().insert(Hash, std::move(Entry));

  auto Hit = SpecLoadCache::instance().lookup(Hash);
  ASSERT_NE(Hit, nullptr);
  EXPECT_EQ(Hit->Module.get(), Inserted);
  EXPECT_EQ(SpecLoadCache::instance().lookup(Hash ^ 1), nullptr);
}

TEST(ProgramBytecode, StaleOnDiskCacheEntryIsInvalidated) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::string SpecPath = std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl";
  auto M = loadIRDLFile(Ctx, SpecPath, SrcMgr, Diags);
  ASSERT_NE(M, nullptr) << Diags.renderAll();

  std::string Dir = ::testing::TempDir() + "irdl_spec_cache_test." +
                    std::to_string(::getpid());
  uint64_t Hash = 0xfeedfacecafe0001ULL;
  ASSERT_TRUE(succeeded(storeCachedSpec(Dir, Hash, *M, Diags)))
      << Diags.renderAll();

  // Round trip: the entry loads via mmap into a fresh context.
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
  EXPECT_NE(Rendered.find("expected 2"), std::string::npos) << Rendered;
  std::remove(Path.c_str());
}

} // namespace
