//===- perf_bytecode.cpp - Bytecode vs textual loading ------------------===//
///
/// The serialization ablation (docs/serialization.md): loading a module
/// from `.irbc` bytecode vs parsing its textual form, and loading dialect
/// specs from bytecode vs running the full IRDL frontend. Modules come
/// from the deterministic synthesizer over corpus dialects, so the
/// encoded surface covers parametric types, attributes, regions, and
/// block arguments at realistic shapes.

#include "PerfHarness.h"

#include "bytecode/Bytecode.h"
#include "corpus/Corpus.h"
#include "corpus/ModuleSynthesizer.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <fstream>
#include <unistd.h>

using namespace irdl;

namespace {

/// One context holding the whole synthetic corpus, a synthesized module
/// over its dialects, and both serialized forms of that module.
struct Fixture {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags{&SrcMgr};
  CorpusLoadResult Corpus;
  OwningOpRef M;
  std::string Text;
  std::string Bytes;
  std::string SpecText;
  std::string SpecBytes;

  Fixture() {
    Corpus = loadSyntheticCorpus(Ctx, SrcMgr, Diags);
    // One parent module holding a synthesized module per corpus dialect
    // (nested whole so block-argument operands stay owned).
    M = parseSourceString(Ctx, "builtin.module {\n}\n", SrcMgr, Diags);
    if (M->getRegion(0).empty())
      M->getRegion(0).emplaceBlock();
    Block *Body = &M->getRegion(0).front();
    for (size_t I = 0, N = Corpus.Module->getDialects().size(); I != N;
         ++I) {
      OwningOpRef Part =
          synthesizeModule(Ctx, *Corpus.Module->getDialects()[I],
                           {/*Seed=*/perfSeed() + I});
      Body->push_back(Part.release());
    }

    PrintOptions Generic;
    Generic.GenericForm = true;
    Text = printOpToString(M.get(), Generic);

    BytecodeWriter Writer;
    Writer.setModule(M.get());
    Bytes = Writer.write();

    SpecText = synthesizeCorpusIRDL();
    BytecodeWriter SpecWriter;
    SpecWriter.addModuleSpecs(*Corpus.Module);
    SpecBytes = SpecWriter.write();
  }
};

Fixture &fixture() {
  static Fixture F;
  return F;
}

void BM_LoadModule_TextualParse(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    SourceMgr SM;
    DiagnosticEngine Diags(&SM);
    OwningOpRef M = parseSourceString(F.Ctx, F.Text, SM, Diags);
    benchmark::DoNotOptimize(M.get());
  }
  State.SetBytesProcessed(State.iterations() * F.Text.size());
}
BENCHMARK(BM_LoadModule_TextualParse)->Unit(benchmark::kMillisecond);

void BM_LoadModule_Bytecode(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    DiagnosticEngine Diags;
    BytecodeReader Reader(F.Ctx, Diags);
    BytecodeReadResult Result;
    LogicalResult R = Reader.read(F.Bytes, Result);
    benchmark::DoNotOptimize(R);
  }
  State.SetBytesProcessed(State.iterations() * F.Bytes.size());
}
BENCHMARK(BM_LoadModule_Bytecode)->Unit(benchmark::kMillisecond);

void BM_WriteModule_Bytecode(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    BytecodeWriter Writer;
    Writer.setModule(F.M.get());
    std::string Bytes = Writer.write();
    benchmark::DoNotOptimize(Bytes);
  }
}
BENCHMARK(BM_WriteModule_Bytecode)->Unit(benchmark::kMillisecond);

void BM_PrintModule_Textual(benchmark::State &State) {
  Fixture &F = fixture();
  PrintOptions Generic;
  Generic.GenericForm = true;
  for (auto _ : State) {
    std::string Text = printOpToString(F.M.get(), Generic);
    benchmark::DoNotOptimize(Text);
  }
}
BENCHMARK(BM_PrintModule_Textual)->Unit(benchmark::kMillisecond);

void BM_LoadSpecs_IRDLFrontend(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    IRContext Ctx;
    SourceMgr SM;
    DiagnosticEngine Diags(&SM);
    auto Module =
        loadIRDL(Ctx, F.SpecText, SM, Diags, corpusNativeOptions());
    benchmark::DoNotOptimize(Module);
  }
  State.SetBytesProcessed(State.iterations() * F.SpecText.size());
}
BENCHMARK(BM_LoadSpecs_IRDLFrontend)->Unit(benchmark::kMillisecond);

void BM_LoadSpecs_Bytecode(benchmark::State &State) {
  Fixture &F = fixture();
  for (auto _ : State) {
    IRContext Ctx;
    DiagnosticEngine Diags;
    BytecodeReader Reader(Ctx, Diags, corpusNativeOptions());
    BytecodeReadResult Result;
    LogicalResult R = Reader.read(F.SpecBytes, Result);
    benchmark::DoNotOptimize(R);
  }
  State.SetBytesProcessed(State.iterations() * F.SpecBytes.size());
}
BENCHMARK(BM_LoadSpecs_Bytecode)->Unit(benchmark::kMillisecond);

/// Phase breakdown (PerfHarness.h): both load paths under named timing
/// scopes; the bytecode library's own scopes (bytecode-read, read-specs,
/// register, read-pool, read-ir) nest inside; under --metrics the
/// bytecode statistics report op/pool/byte counts.
void runPhaseBreakdown() {
  Fixture *F;
  {
    IRDL_TIME_SCOPE("fixture-setup");
    F = &fixture();
  }
  {
    IRDL_TIME_SCOPE("textual-parse-x20");
    for (int I = 0; I != 20; ++I) {
      SourceMgr SM;
      DiagnosticEngine Diags(&SM);
      OwningOpRef M = parseSourceString(F->Ctx, F->Text, SM, Diags);
      benchmark::DoNotOptimize(M.get());
    }
  }
  {
    IRDL_TIME_SCOPE("bytecode-load-x20");
    for (int I = 0; I != 20; ++I) {
      DiagnosticEngine Diags;
      BytecodeReader Reader(F->Ctx, Diags);
      BytecodeReadResult Result;
      LogicalResult R = Reader.read(F->Bytes, Result);
      benchmark::DoNotOptimize(R);
    }
  }
  // The file load check_bytecode.py gates on: loading the corpus specs
  // from an .irbc file on disk. It skips lexing, parsing and semantic
  // analysis; registration compiles the constraint programs on both
  // paths.
  std::string SpecPath = "perf_bytecode_specs_" +
                         std::to_string(::getpid()) + ".irbc";
  {
    std::ofstream Out(SpecPath, std::ios::binary | std::ios::trunc);
    Out.write(F->SpecBytes.data(),
              static_cast<std::streamsize>(F->SpecBytes.size()));
  }
  auto Frontend = [&] {
    IRDL_TIME_SCOPE("spec-frontend");
    IRContext Ctx;
    SourceMgr SM;
    DiagnosticEngine Diags(&SM);
    auto Module = loadIRDL(Ctx, F->SpecText, SM, Diags, corpusNativeOptions());
    benchmark::DoNotOptimize(Module);
  };
  auto FromBuffer = [&] {
    IRDL_TIME_SCOPE("spec-bytecode");
    IRContext Ctx;
    DiagnosticEngine Diags;
    BytecodeReader Reader(Ctx, Diags, corpusNativeOptions());
    BytecodeReadResult Result;
    LogicalResult R = Reader.read(F->SpecBytes, Result);
    benchmark::DoNotOptimize(R);
  };
  auto FromFile = [&] {
    IRDL_TIME_SCOPE("spec-file-load");
    IRContext Ctx;
    DiagnosticEngine Diags;
    BytecodeReadResult Result;
    LogicalResult R = readBytecodeFile(SpecPath, Ctx, Diags, Result,
                                       corpusNativeOptions());
    if (failed(R)) {
      std::fprintf(stderr, "spec-file-load failed:\n%s",
                   Diags.renderAll().c_str());
      std::exit(1);
    }
    benchmark::DoNotOptimize(Result.Specs.get());
  };
  // One unsampled load of each kind first: the first loads of a run are
  // the slow ones. Then the kinds alternate, so a slow stretch of the
  // host lands on all of them alike.
  {
    IRDL_TIME_SCOPE("spec-warmup");
    Frontend();
    FromBuffer();
    FromFile();
  }
  {
    IRDL_TIME_SCOPE("spec-loads-x10");
    PhaseSampler FrontendSampler("spec-frontend");
    PhaseSampler BufferSampler("spec-bytecode");
    PhaseSampler FileSampler("spec-file-load");
    for (int I = 0; I != 10; ++I) {
      FrontendSampler.sample(Frontend);
      BufferSampler.sample(FromBuffer);
      FileSampler.sample(FromFile);
    }
  }
  std::remove(SpecPath.c_str());
}

} // namespace

int main(int argc, char **argv) {
  return runPerfMain(argc, argv, "perf_bytecode", runPhaseBreakdown);
}
