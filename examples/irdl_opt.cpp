//===- irdl_opt.cpp - An mlir-opt-style driver over dynamic dialects ------===//
///
/// The full Section 3 story as a command-line tool: dialects come from
/// .irdl files given on the command line (no recompilation), the IR comes
/// from a file or stdin, and a pass pipeline (verification, DCE, the
/// cmath conorm peephole) runs over it.
///
/// Usage:
///   irdl_opt [--dialect file.irdl]... [--pass dce|conorm]...
///            [--generic] [--verify-each=0|1] [--emit-bytecode[=FILE]]
///            [--compiled-constraints=0|1] [--timing]
///            [--stats] [--stats-json=FILE] [--trace-json=FILE]
///            [--metrics] [--metrics-json=FILE] [--profile-constraints]
///            [--spec-cache-dir=DIR] [input.mlir]
///
/// With no --dialect, loads dialects/cmath.irdl. With no input, reads
/// stdin. Unknown flags and unknown pass names are hard errors. Both
/// --dialect files and the input may be binary `.irbc` bytecode
/// (docs/serialization.md) — the format is sniffed from the buffer's
/// magic, never from the file extension. The observability flags
/// (docs/observability.md):
///
///   --compiled-constraints=0|1
///                      constraint engine: 1 (default) verifies through
///                      the compiled bytecode programs, 0 through the
///                      reference tree interpreter (docs/constraint-
///                      compiler.md)
///   --timing           print a hierarchical wall-time tree (stderr)
///   --stats            print the statistics registry (stderr)
///   --stats-json=FILE  write the statistics registry as JSON (sorted by
///                      group/name for deterministic diffs)
///   --trace-json=FILE  write a chrome://tracing / Perfetto trace
///   --metrics          collect runtime metrics (counters/gauges/latency
///                      histograms) and print the Prometheus text
///                      exposition to stderr
///   --metrics-json=FILE
///                      collect runtime metrics and write them as JSON
///                      (implies collection like --metrics)
///   --profile-constraints
///                      time every compiled-constraint execution and
///                      print the hottest constraint programs (stderr)
///   --emit-bytecode    write the result module (plus every dialect
///                      loaded from text) as bytecode instead of text;
///                      with =FILE to disk, otherwise to stdout
///   --spec-cache-dir=DIR
///                      cache compiled dialect specs on disk, keyed by
///                      the content hash of their source: a hit replaces
///                      the IRDL frontend with an mmap'd bytecode load
///                      whose compiled constraint programs alias the
///                      mapping (docs/serialization.md)
///
/// Examples:
///
///   echo '%c = std.constant 1.5 : f32' | build/examples/irdl_opt
///   build/examples/irdl_opt --timing --pass conorm --pass dce test.mlir
///   build/examples/irdl_opt --emit-bytecode=out.irbc test.mlir
///   build/examples/irdl_opt out.irbc   # reads dialects + IR back

#include "bytecode/Bytecode.h"
#include "bytecode/SpecCache.h"
#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "irdl/ConstraintCompiler.h"
#include "irdl/ConstraintProfiler.h"
#include "irdl/IRDL.h"
#include "support/File.h"
#include "support/Hashing.h"
#include "support/MappedFile.h"
#include "support/Metrics.h"
#include "support/Signal.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <atomic>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace irdl;

namespace {

/// The Listing 1 peephole, as in cmath_opt.cpp.
struct ConormPattern : RewritePattern {
  ConormPattern() : RewritePattern("std.mulf") {}

  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *L = Op->getOperand(0).getDefiningOp();
    Operation *R = Op->getOperand(1).getDefiningOp();
    auto IsNorm = [](Operation *N) {
      return N && N->getName().str() == "cmath.norm";
    };
    if (!IsNorm(L) || !IsNorm(R) ||
        L->getOperand(0).getType() != R->getOperand(0).getType())
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState MulState(*Ctx, Ctx->resolveOpDef("cmath.mul"), Op->getLoc());
    MulState.Operands = {L->getOperand(0), R->getOperand(0)};
    MulState.ResultTypes = {L->getOperand(0).getType()};
    Operation *Mul = Rewriter.createOp(MulState);
    OperationState NormState(*Ctx, Ctx->resolveOpDef("cmath.norm"),
                             Op->getLoc());
    NormState.Operands = {Mul->getResult(0)};
    NormState.ResultTypes = {Op->getResult(0).getType()};
    Operation *Norm = Rewriter.createOp(NormState);
    Rewriter.replaceOp(Op, {Norm->getResult(0)});
    return success();
  }
};

} // namespace

int main(int argc, char **argv) {
  std::vector<std::string> DialectFiles;
  std::vector<std::string> PassNames;
  std::string InputFile;
  std::string TraceJsonFile;
  std::string BytecodeFile;
  std::string StatsJsonFile;
  std::string MetricsJsonFile;
  std::string SpecCacheDir;
  bool EmitBytecode = false;
  bool Generic = false;
  bool Timing = false;
  bool Stats = false;
  bool Metrics = false;
  bool ProfileConstraints = false;
  bool VerifyEach = true;

  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    auto NextValue = [&]() -> const char * {
      if (I + 1 >= argc) {
        std::cerr << "missing value after " << Arg << "\n";
        std::exit(1);
      }
      return argv[++I];
    };
    if (Arg == "--dialect")
      DialectFiles.push_back(NextValue());
    else if (Arg == "--pass")
      PassNames.push_back(NextValue());
    else if (Arg == "--generic")
      Generic = true;
    else if (Arg == "--timing")
      Timing = true;
    else if (Arg == "--stats")
      Stats = true;
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg == "--profile-constraints")
      ProfileConstraints = true;
    else if (Arg.rfind("--metrics-json=", 0) == 0) {
      MetricsJsonFile = Arg.substr(std::string("--metrics-json=").size());
      if (MetricsJsonFile.empty()) {
        std::cerr << "--metrics-json= requires a file name\n";
        return 1;
      }
    }
    else if (Arg.rfind("--stats-json=", 0) == 0) {
      StatsJsonFile = Arg.substr(std::string("--stats-json=").size());
      if (StatsJsonFile.empty()) {
        std::cerr << "--stats-json= requires a file name\n";
        return 1;
      }
    }
    else if (Arg.rfind("--trace-json=", 0) == 0 ||
             Arg == "--trace-json") {
      TraceJsonFile =
          Arg == "--trace-json"
              ? NextValue()
              : Arg.substr(std::string("--trace-json=").size());
      if (TraceJsonFile.empty()) {
        std::cerr << "--trace-json requires a file name\n";
        return 1;
      }
    }
    else if (Arg.rfind("--spec-cache-dir=", 0) == 0) {
      SpecCacheDir = Arg.substr(std::string("--spec-cache-dir=").size());
      if (SpecCacheDir.empty()) {
        std::cerr << "--spec-cache-dir= requires a directory name\n";
        return 1;
      }
    }
    else if (Arg == "--emit-bytecode")
      EmitBytecode = true;
    else if (Arg.rfind("--emit-bytecode=", 0) == 0) {
      EmitBytecode = true;
      BytecodeFile = Arg.substr(std::string("--emit-bytecode=").size());
      if (BytecodeFile.empty()) {
        std::cerr << "--emit-bytecode= requires a file name\n";
        return 1;
      }
    }
    else if (Arg.rfind("--compiled-constraints=", 0) == 0) {
      std::string V =
          Arg.substr(std::string("--compiled-constraints=").size());
      if (V != "0" && V != "1") {
        std::cerr << "invalid value '" << V
                  << "' for --compiled-constraints (expected 0 or 1)\n";
        return 1;
      }
      setCompiledConstraintsEnabled(V == "1");
    }
    else if (Arg.rfind("--verify-each=", 0) == 0) {
      std::string V = Arg.substr(std::string("--verify-each=").size());
      if (V == "1" || V == "true")
        VerifyEach = true;
      else if (V == "0" || V == "false")
        VerifyEach = false;
      else {
        std::cerr << "invalid value '" << V
                  << "' for --verify-each (expected 0 or 1)\n";
        return 1;
      }
    } else if (Arg == "--help" || Arg == "-h") {
      std::cout << "usage: irdl_opt [--dialect f.irdl]... "
                   "[--pass dce|conorm]... [--generic]\n"
                   "                [--verify-each=0|1] "
                   "[--emit-bytecode[=FILE]]\n"
                   "                [--compiled-constraints=0|1] "
                   "[--timing] [--stats]\n"
                   "                [--stats-json=FILE] [--trace-json=FILE] "
                   "[--metrics]\n"
                   "                [--metrics-json=FILE] "
                   "[--profile-constraints]\n"
                   "                [--spec-cache-dir=DIR] [input]\n";
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::cerr << "unknown option " << Arg << " (see --help)\n";
      return 1;
    } else {
      InputFile = Arg;
    }
  }
  // Read the input up front: bytecode buffers carry their own dialect
  // specs, so the cmath.irdl default only applies to textual input.
  std::string Input;
  if (InputFile.empty()) {
    std::ostringstream SS;
    SS << std::cin.rdbuf();
    Input = SS.str();
  } else {
    std::string Error;
    if (failed(readFileToString(InputFile, Input, Error))) {
      std::cerr << "cannot read " << InputFile << ": " << Error << "\n";
      return 1;
    }
  }
  if (DialectFiles.empty() && !isBytecodeBuffer(Input))
    DialectFiles.push_back(std::string(IRDL_DIALECTS_DIR) +
                           "/cmath.irdl");

  // Install the timer group before any timed work so the frontend,
  // parser, pipeline, and verifier scopes all land in one tree.
  TimerGroup Timers("irdl_opt");
  bool WantTiming = Timing || !TraceJsonFile.empty();
  if (WantTiming) {
    setActiveTimerGroup(&Timers);
#if !IRDL_ENABLE_TIMING
    std::cerr << "warning: built with IRDL_ENABLE_TIMING=OFF; timing "
                 "report and trace will be empty\n";
#endif
  }
  bool WantMetrics = Metrics || !MetricsJsonFile.empty();
  if (WantMetrics)
    setMetricsEnabled(true);
  if (ProfileConstraints)
    setConstraintProfilingEnabled(true);

  // Declared before the report guard so it is destroyed after it: the
  // constraint profiler holds weak references to programs owned by the
  // registered dialect specs, so the hottest-constraints report must
  // render while the context is still alive.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);

  // Emit reports on every exit path: the destructor covers normal returns
  // and early errors, and a SIGINT/SIGTERM handler (installed below)
  // calls flush() directly so --metrics-json/--trace-json artifacts are
  // not dropped on interrupt. The atomic exchange makes the flush run at
  // most once whichever path gets there first.
  struct ReportGuard {
    TimerGroup &Timers;
    bool Timing, Stats, Metrics, ProfileConstraints;
    std::string TraceJsonFile, StatsJsonFile, MetricsJsonFile;
    std::atomic<bool> Flushed{false};
    ~ReportGuard() { flush(); }
    void flush() {
      if (Flushed.exchange(true))
        return;
      setActiveTimerGroup(nullptr);
      if (Timing)
        std::cerr << Timers.renderTree();
      if (Stats)
        std::cerr << StatisticRegistry::instance().renderTable();
      if (!StatsJsonFile.empty()) {
        std::ofstream Out(StatsJsonFile);
        if (!Out)
          std::cerr << "cannot write stats to " << StatsJsonFile << "\n";
        else
          Out << StatisticRegistry::instance().renderJson() << "\n";
      }
      if (Metrics)
        std::cerr << MetricsRegistry::instance().renderPrometheus();
      if (!MetricsJsonFile.empty()) {
        std::ofstream Out(MetricsJsonFile);
        if (!Out)
          std::cerr << "cannot write metrics to " << MetricsJsonFile << "\n";
        else
          Out << MetricsRegistry::instance().renderJson() << "\n";
      }
      if (ProfileConstraints)
        std::cerr << ConstraintProfiler::instance().renderReport();
      if (!TraceJsonFile.empty()) {
        std::ofstream Out(TraceJsonFile);
        if (!Out)
          std::cerr << "cannot write trace to " << TraceJsonFile << "\n";
        else
          Out << Timers.renderTraceJson("irdl_opt");
      }
    }
  } Guard{Timers,        Timing,        Stats,
          Metrics,       ProfileConstraints,
          TraceJsonFile, StatsJsonFile, MetricsJsonFile};
  installExitFlushHandler([&Guard]() { Guard.flush(); });

  // Dialects loaded from textual IRDL are re-emitted by --emit-bytecode
  // so the resulting .irbc is self-contained.
  IRDLModule LoadedSpecs;
  {
    IRDL_TIME_SCOPE("load-dialects");
    for (const std::string &Path : DialectFiles) {
      std::string Error;
      std::shared_ptr<MappedFile> File = MappedFile::open(Path, Error);
      if (!File) {
        std::cerr << "cannot read dialect file " << Path << ": " << Error
                  << "\n";
        return 1;
      }
      if (isBytecodeBuffer(File->data())) {
        // Zero-copy: compiled programs in the buffer alias the mapping,
        // which they keep alive past this scope.
        BytecodeReader Reader(Ctx, Diags);
        BytecodeReadResult Result;
        if (failed(Reader.read(File->data(), Result, Path, File))) {
          std::cerr << Diags.renderAll();
          return 1;
        }
        if (Result.Specs)
          LoadedSpecs.append(std::move(*Result.Specs));
        continue;
      }
      std::string Buffer(File->data());
      File.reset();
      if (!SpecCacheDir.empty()) {
        // Content-hash cache: a prior run already parsed, compiled, and
        // serialized this exact text — mmap-load the compiled entry
        // instead of running the frontend.
        uint64_t Hash = hashSpecBuffer(Buffer);
        BytecodeReadResult Cached;
        if (succeeded(loadCachedSpec(SpecCacheDir, Hash, Ctx, Diags,
                                     Cached)) &&
            Cached.Specs) {
          LoadedSpecs.append(std::move(*Cached.Specs));
          continue;
        }
        auto Loaded = loadIRDL(Ctx, Buffer, SrcMgr, Diags, {}, Path);
        if (!Loaded) {
          std::cerr << Diags.renderAll();
          return 1;
        }
        if (failed(storeCachedSpec(SpecCacheDir, Hash, *Loaded, Diags)))
          std::cerr << Diags.renderAll();
        LoadedSpecs.append(std::move(*Loaded));
        continue;
      }
      auto Loaded = loadIRDL(Ctx, Buffer, SrcMgr, Diags, {}, Path);
      if (!Loaded) {
        std::cerr << Diags.renderAll();
        return 1;
      }
      LoadedSpecs.append(std::move(*Loaded));
    }
  }

  OwningOpRef M;
  if (isBytecodeBuffer(Input)) {
    BytecodeReader Reader(Ctx, Diags);
    BytecodeReadResult Result;
    if (failed(Reader.read(Input, Result,
                           InputFile.empty() ? "<stdin>" : InputFile))) {
      std::cerr << Diags.renderAll();
      return 1;
    }
    if (!Result.Module) {
      std::cerr << (InputFile.empty() ? "<stdin>" : InputFile)
                << ": bytecode buffer contains no IR module\n";
      return 1;
    }
    if (Result.Specs)
      LoadedSpecs.append(std::move(*Result.Specs));
    M = std::move(Result.Module);
  } else {
    M = parseSourceString(Ctx, Input, SrcMgr, Diags,
                          InputFile.empty() ? "<stdin>" : InputFile);
  }
  if (!M) {
    std::cerr << Diags.renderAll();
    return 1;
  }

  PassManager PM(&Ctx);
  PM.enableVerifier(VerifyEach);
  if (WantTiming)
    PM.addInstrumentation<PassTimingInstrumentation>(&Timers);
  if (WantMetrics)
    PM.addInstrumentation<MetricsInstrumentation>();
  for (const std::string &Name : PassNames) {
    if (Name == "dce") {
      PM.addPass<DeadCodeEliminationPass>(
          std::vector<std::string>{},
          /*AssumeRegisteredOpsPure=*/true);
    } else if (Name == "conorm") {
      auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
      Patterns->add<ConormPattern>();
      PM.addPass<GreedyRewritePass>("conorm", Patterns);
    } else {
      std::cerr << "unknown pass '" << Name << "' (have: dce, conorm)\n";
      return 1;
    }
  }

  DiagnosticEngine PipelineDiags(&SrcMgr);
  if (failed(PM.run(M.get(), PipelineDiags))) {
    std::cerr << PipelineDiags.renderAll();
    return 1;
  }

  if (EmitBytecode) {
    IRDL_TIME_SCOPE("emit-bytecode");
    if (!BytecodeFile.empty()) {
      DiagnosticEngine WriteDiags;
      if (failed(writeBytecodeFile(BytecodeFile, M.get(), &LoadedSpecs,
                                   WriteDiags))) {
        std::cerr << WriteDiags.renderAll();
        return 1;
      }
    } else {
      BytecodeWriter Writer;
      Writer.addModuleSpecs(LoadedSpecs);
      Writer.setModule(M.get());
      std::cout << Writer.write();
    }
    return 0;
  }

  {
    IRDL_TIME_SCOPE("print-output");
    PrintOptions Opts;
    Opts.GenericForm = Generic;
    std::cout << printOpToString(M.get(), Opts) << "\n";
  }
  return 0;
}
