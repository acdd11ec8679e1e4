//===- PerfHarness.h - Shared main() for the perf_* suites ------*- C++ -*-===//
///
/// \file
/// Wraps the google-benchmark suites with the instrumentation layer
/// (support/Timing.h, support/Statistic.h, support/Metrics.h): before
/// the registered benchmarks run, a phase-breakdown callback executes a
/// representative workload under an active TimerGroup, and the harness
/// prints the resulting timing tree and statistics table to stderr — so
/// a perf run reports *where* time goes, not one opaque number. Phase
/// callbacks record per-iteration samples through PhaseSampler, so the
/// JSON summary also carries p50/p90/p99 latency distributions.
///
/// Flags handled before google-benchmark sees the command line:
///   --json        print the machine-readable summary (timing tree +
///                 statistics + metrics) to stdout and exit without
///                 running the google-benchmark suites (stdout stays
///                 pure JSON)
///   --json=FILE   write the summary to FILE, then run the suites
///   --metrics     enable library metrics collection (the memo-cache /
///                 dispatch / verifier instrumentation) and print the
///                 Prometheus exposition to stderr
///   --metrics-json=FILE
///                 enable library metrics collection and write the
///                 registry as JSON to FILE (also honored on the --json
///                 short-circuit path, so CI collects both in one run)
///   --compiled-constraints=0|1
///                 select the constraint engine (1 = compiled programs,
///                 the default; 0 = the tree interpreter oracle)
///   --seed=N      RNG seed for benches that synthesize their workload
///                 through ModuleSynthesizer (perf_bytecode, perf_serve),
///                 so a corpus is reproducible across runs and CI
///                 machines; read via perfSeed(), default 1
///
/// The JSON shape, for BENCH_*.json trajectory tracking:
///   {"bench": NAME, "timing": <TimerGroup::renderJsonSummary()>,
///    "statistics": <StatisticRegistry::renderJson()>,
///    "metrics": <MetricsRegistry::renderJson()>}
///
/// Note the split: PhaseSampler records its bench_phase_duration_ns
/// histograms *unconditionally* (so p50/p90/p99 appear in every --json
/// run), while the library's own instrumentation stays behind --metrics
/// — keeping the disabled-overhead guarantee the CI perf gate measures.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_BENCH_PERFHARNESS_H
#define IRDL_BENCH_PERFHARNESS_H

#include "irdl/ConstraintCompiler.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

namespace irdl {

/// The workload RNG seed from --seed=N (default 1). Benches that
/// synthesize modules pass `perfSeed()` (plus a per-module offset) into
/// ModuleSynthOptions::Seed.
inline uint64_t &perfSeedSlot() {
  static uint64_t Seed = 1;
  return Seed;
}
inline uint64_t perfSeed() { return perfSeedSlot(); }

/// Per-iteration sampling for a phase-breakdown workload: construct one
/// per phase, call sample() around each iteration (or record() with a
/// measured duration). Samples land in the process metrics registry as
/// `bench_phase_duration_ns{phase="<name>"}`, which the harness summary
/// serializes with p50/p90/p99.
class PhaseSampler {
public:
  explicit PhaseSampler(std::string PhaseName)
      : Hist(MetricsRegistry::instance().getHistogram(
            "bench_phase_duration_ns",
            "per-iteration wall time of one bench phase",
            {{"phase", std::move(PhaseName)}})) {}

  /// Runs \p Fn once and records its wall time.
  template <typename FnT> void sample(FnT &&Fn) {
    uint64_t Begin = steadyNowNs();
    Fn();
    Hist.record(steadyNowNs() - Begin);
  }

  void record(uint64_t Nanos) { Hist.record(Nanos); }

private:
  Histogram &Hist;
};

inline int runPerfMain(int argc, char **argv, const char *BenchName,
                       const std::function<void()> &PhaseBreakdown) {
  bool JsonToStdout = false;
  bool Metrics = false;
  std::string JsonFile;
  std::string MetricsJsonFile;
  std::vector<char *> BenchArgs{argv[0]};
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I];
    if (Arg == "--json")
      JsonToStdout = true;
    else if (Arg.rfind("--json=", 0) == 0)
      JsonFile = Arg.substr(std::string("--json=").size());
    else if (Arg == "--metrics")
      Metrics = true;
    else if (Arg.rfind("--metrics-json=", 0) == 0)
      MetricsJsonFile = Arg.substr(std::string("--metrics-json=").size());
    else if (Arg.rfind("--seed=", 0) == 0) {
      std::string V = Arg.substr(std::string("--seed=").size());
      char *End = nullptr;
      unsigned long long Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || !End || *End != '\0') {
        std::cerr << "invalid value '" << V
                  << "' for --seed (expected a non-negative integer)\n";
        return 1;
      }
      perfSeedSlot() = Seed;
    } else if (Arg.rfind("--compiled-constraints=", 0) == 0) {
      std::string V = Arg.substr(std::string("--compiled-constraints=").size());
      if (V != "0" && V != "1") {
        std::cerr << "invalid value '" << V
                  << "' for --compiled-constraints (expected 0 or 1)\n";
        return 1;
      }
      setCompiledConstraintsEnabled(V == "1");
    } else
      BenchArgs.push_back(argv[I]);
  }

  if (Metrics || !MetricsJsonFile.empty())
    setMetricsEnabled(true);

  TimerGroup Timers(BenchName);
  StatisticRegistry::instance().resetAll();
  MetricsRegistry::instance().resetAll();
  setActiveTimerGroup(&Timers);
  PhaseBreakdown();
  setActiveTimerGroup(nullptr);

  std::string Summary = std::string("{\"bench\":\"") + BenchName +
                        "\",\"timing\":" + Timers.renderJsonSummary() +
                        ",\"statistics\":" +
                        StatisticRegistry::instance().renderJson() +
                        ",\"metrics\":" +
                        MetricsRegistry::instance().renderJson() + "}\n";
  auto WriteMetricsJson = [&]() -> bool {
    if (MetricsJsonFile.empty())
      return true;
    std::ofstream Out(MetricsJsonFile);
    if (!Out) {
      std::cerr << "cannot write " << MetricsJsonFile << "\n";
      return false;
    }
    Out << MetricsRegistry::instance().renderJson() << "\n";
    return true;
  };
  if (JsonToStdout) {
    std::cout << Summary;
    return WriteMetricsJson() ? 0 : 1;
  }
  std::cerr << Timers.renderTree()
            << StatisticRegistry::instance().renderTable();
  if (Metrics)
    std::cerr << MetricsRegistry::instance().renderPrometheus();
  if (!WriteMetricsJson())
    return 1;
  if (!JsonFile.empty()) {
    std::ofstream Out(JsonFile);
    if (!Out) {
      std::cerr << "cannot write " << JsonFile << "\n";
      return 1;
    }
    Out << Summary;
  }

  int BenchArgc = (int)BenchArgs.size();
  benchmark::Initialize(&BenchArgc, BenchArgs.data());
  if (benchmark::ReportUnrecognizedArguments(BenchArgc, BenchArgs.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

} // namespace irdl

#endif // IRDL_BENCH_PERFHARNESS_H
