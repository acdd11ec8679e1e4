//===- ProgramBytecodeTest.cpp - Compiled program serialization ---------===//
///
/// The v2 Programs section and the content-hash spec cache: deserialized
/// constraint programs must be used as-is (no recompilation), a read from
/// a file must be observationally identical to a read from memory and
/// agree with the tree interpreter over the whole synthetic corpus and
/// over variables that reference variables, loaded programs must not
/// depend on their source bytes once the read returns (the file may be
/// rewritten or truncated, the buffer overwritten or freed), corrupt
/// program sections (bad padding, misalignment, truncation, unknown flag
/// bits) must be rejected with diagnostics, the retired memo flag bit
/// must not change any verdict, and the on-disk spec cache must hit on
/// identical content and invalidate stale entries.

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

  // Every compiled program came out of the Programs section; registration
  // found all slots populated and compiled nothing.
  EXPECT_EQ(Compiled->get(), Before);

  // Positive control: the same specs through the textual frontend do
  // compile, so the check above cannot pass on a counter that never moves.
  IRContext TextCtx;
  SourceMgr TextSrcMgr;
  DiagnosticEngine TextDiags(&TextSrcMgr);
  ASSERT_TRUE(static_cast<bool>(
      loadSyntheticCorpus(TextCtx, TextSrcMgr, TextDiags)))
      << TextDiags.renderAll();
  EXPECT_GT(Compiled->get(), Before);
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

/// Bytes per instruction in the Programs section, and the offset of the
/// flag byte within one.
constexpr size_t InstrWireSize = 12;
constexpr size_t InstrWireFlagsOffset = 1;

/// The wire form of \p I (little-endian Op, Flags, NumChildren, A,
/// ChildrenBegin), as the Programs section stores it.
std::string instrWireBytes(const CInstr &I) {
  std::string Bytes(InstrWireSize, '\0');
  auto Put = [&Bytes](size_t At, uint32_t V, unsigned N) {
    for (unsigned K = 0; K != N; ++K)
      Bytes[At + K] = static_cast<char>((V >> (8 * K)) & 0xff);
  };
  Put(0, static_cast<uint8_t>(I.Op), 1);
  Put(1, I.Flags, 1);
  Put(2, I.NumChildren, 2);
  Put(4, I.A, 4);
  Put(8, I.ChildrenBegin, 4);
  return Bytes;
}

/// Byte offsets within \p Buffer of the instructions of cmath.mul's
/// programs (variable, operand and result programs) that \p Pick selects.
/// Each program's instruction array is located by its wire bytes at an
/// 8-byte-aligned offset of the Programs section; a program that occurs
/// more than once (identical constraints elsewhere in the dialect)
/// contributes every occurrence.
std::vector<size_t>
mulInstrOffsets(const std::string &Buffer,
                const std::function<bool(const CInstr &)> &Pick) {
  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReader Reader(Ctx, Diags);
  BytecodeReadResult Result;
  std::vector<size_t> Offsets;
  if (failed(Reader.read(Buffer, Result))) {
    ADD_FAILURE() << Diags.renderAll();
    return Offsets;
  }
  const OpSpec *Mul = Result.Specs->getDialects()[0]->lookupOp("mul");
  if (!Mul) {
    ADD_FAILURE() << "cmath.mul missing from the spec buffer";
    return Offsets;
  }
  std::vector<const ConstraintProgram *> Progs;
  for (const ConstraintProgramPtr &P : Mul->VarPrograms)
    Progs.push_back(P.get());
  for (const OperandSpec &O : Mul->Operands)
    Progs.push_back(O.Prog.get());
  for (const OperandSpec &R : Mul->Results)
    Progs.push_back(R.Prog.get());
  auto [Start, End] = sectionPayload(Buffer, SectionId::Programs);
  for (const ConstraintProgram *P : Progs) {
    std::string Wire;
    for (size_t I = 0, E = P->getNumInstrs(); I != E; ++I)
      Wire += instrWireBytes(P->getInstr(I));
    bool Found = false;
    for (size_t At = (Start + 7) / 8 * 8; At + Wire.size() <= End; At += 8) {
      if (Buffer.compare(At, Wire.size(), Wire) != 0)
        continue;
      Found = true;
      for (size_t I = 0, E = P->getNumInstrs(); I != E; ++I)
        if (Pick(P->getInstr(I)))
          Offsets.push_back(At + I * InstrWireSize);
    }
    if (!Found) {
      ADD_FAILURE() << "program not found in the Programs section:\n"
                    << P->dump();
      return {};
    }
  }
  return Offsets;
}

/// Copy of \p Buffer with \p Bits or'ed into the flag byte of the
/// instructions at \p Offsets.
std::string withFlagBits(std::string Buffer, const std::vector<size_t> &Offsets,
                         uint8_t Bits) {
  for (size_t Off : Offsets)
    Buffer[Off + InstrWireFlagsOffset] |= static_cast<char>(Bits);
  return Buffer;
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

TEST(ProgramBytecode, MemoFlagBitDoesNotChangeVerdicts) {
  std::string Honest = cmathSpecBytes();
  MulVerdict Expected = verifyMulModule(Honest);
  EXPECT_TRUE(Expected.first);
  EXPECT_NE(Expected.second.find("does not satisfy constraint !T"),
            std::string::npos)
      << Expected.second;

  // Bit 1 once marked a subprogram whose verdict was cached per
  // uniqued value. On a Var instruction that let the second mul reuse
  // the first mul's verdict for the same operand type and skip the !T
  // check; the flag must be inert.
  std::vector<size_t> VarInstrs = mulInstrOffsets(
      Honest, [](const CInstr &I) { return I.Op == COpcode::Var; });
  ASSERT_FALSE(VarInstrs.empty());
  EXPECT_EQ(verifyMulModule(withFlagBits(Honest, VarInstrs, 1u << 1)),
            Expected);

  // Bit 1 on var-free instructions, where files written before the
  // cache was removed set it, loads and verifies the same.
  std::vector<size_t> VarFreeInstrs = mulInstrOffsets(
      Honest, [](const CInstr &I) { return I.Op != COpcode::Var; });
  ASSERT_FALSE(VarFreeInstrs.empty());
  EXPECT_EQ(verifyMulModule(withFlagBits(Honest, VarFreeInstrs, 1u << 1)),
            Expected);

  // Bit 2 has never had a meaning and is still rejected.
  std::vector<size_t> AllInstrs =
      mulInstrOffsets(Honest, [](const CInstr &) { return true; });
  ASSERT_FALSE(AllInstrs.empty());
  std::string Rendered;
  EXPECT_FALSE(
      tryRead(withFlagBits(Honest, {AllInstrs[0]}, 1u << 2), &Rendered));
  EXPECT_NE(Rendered.find("unknown flag bits"), std::string::npos)
      << Rendered;
}

/// \p Honest with every Var instruction of cmath.mul's programs turned
/// into AnyParam, so the mul whose operands disagree on !T verifies.
std::string withMulVarsErased(const std::string &Honest) {
  std::string Rewritten = Honest;
  for (size_t Off : mulInstrOffsets(
           Honest, [](const CInstr &I) { return I.Op == COpcode::Var; }))
    Rewritten[Off] = static_cast<char>(COpcode::AnyParam);
  return Rewritten;
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

/// Checks that specs loaded from the file at \p Path by \p Load keep
/// their verdicts after the file's Programs section is rewritten in place
/// and after the file is truncated into that section.
void expectLoadIgnoresLaterFileChanges(
    const std::string &Path,
    const std::function<LogicalResult(IRContext &, DiagnosticEngine &)>
        &Load) {
  std::string Honest, Error;
  ASSERT_TRUE(succeeded(readFileToString(Path, Honest, Error))) << Error;
  std::string Rewritten = withMulVarsErased(Honest);
  ASSERT_NE(Rewritten, Honest);
  // Read fresh, the rewritten bytes accept the mismatched mul, so a
  // program that still ran the file's bytes would change its verdict.
  EXPECT_EQ(verifyMulModule(Rewritten), MulVerdict(false, ""));

  IRContext Ctx;
  DiagnosticEngine Diags;
  ASSERT_TRUE(succeeded(Load(Ctx, Diags))) << Diags.renderAll();
  MulVerdict Expected = verifyMulModuleIn(Ctx);
  EXPECT_TRUE(Expected.first);
  EXPECT_NE(Expected.second.find("does not satisfy constraint !T"),
            std::string::npos)
      << Expected.second;

  overwriteInPlace(Path, Rewritten);
  EXPECT_EQ(verifyMulModuleIn(Ctx), Expected) << "after in-place rewrite";

  auto [Start, End] = sectionPayload(Honest, SectionId::Programs);
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
