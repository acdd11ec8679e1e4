//===- Metrics.h - Labeled runtime metrics -----------------------*- C++ -*-===//
///
/// \file
/// The service-telemetry layer of the observability stack: a process-wide
/// registry of labeled **counters**, **gauges**, and **log-bucketed
/// histograms**, built for a long-lived daemon (`irdl_serve`) where the
/// operational contract is rates (memo-cache hit ratio), distributions
/// (p50/p99 verification latency), and load (active connections) —
/// questions the run-scoped TimerGroup/Statistic layers cannot answer.
///
/// Design points:
///
///  * **Labels.** A metric series is identified by (name, label set);
///    series of the same name form a family sharing one HELP/TYPE header
///    in the Prometheus exposition. `MetricsRegistry::getCounter(name,
///    help, labels)` returns the canonical instance, so call sites cache
///    it in a function-local `static Counter &`.
///
///  * **Per-thread sharding.** Every series holds a fixed array of
///    cache-line-aligned atomic cells; a thread records into the cell
///    picked by its (round-robin assigned) thread shard index and scrapes
///    merge all cells. This mirrors the 16-way sharding of the IRContext
///    uniquer and the constraint memo cache: concurrent recorders on
///    different threads almost never touch the same cache line, and a
///    record is a single relaxed RMW — no locks anywhere on the hot path.
///
///  * **Log-bucketed histograms.** 64 buckets, bucket `i` holding values
///    whose bit width is `i` (i.e. `[2^(i-1), 2^i)`; 0 lands in bucket 0,
///    everything >= 2^62 in bucket 63). p50/p90/p99/max come straight
///    from the merged bucket counts without sampling or reservoirs; a
///    percentile estimate is the upper edge of its bucket, so it is
///    always within one power-of-2 bucket boundary of the exact value.
///
///  * **Zero cost when off.** Recording is *unconditional* at the metric
///    object level; instrumented call sites guard with
///    `if (irdl::metricsEnabled())` — one relaxed atomic load and a
///    predictable branch — so a build with metrics disabled (the default
///    for one-shot runs) pays nothing measurable on the verifier hot
///    path. Drivers flip the flag with `--metrics` / `--metrics-json`.
///
/// Exporters: Prometheus text exposition format (`renderPrometheus`) and
/// JSON (`renderJson`, with precomputed p50/p90/p99 per histogram).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_METRICS_H
#define IRDL_SUPPORT_METRICS_H

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace irdl {

//===----------------------------------------------------------------------===//
// Global enable flag
//===----------------------------------------------------------------------===//

namespace detail {
extern std::atomic<bool> MetricsEnabledFlag;
/// The calling thread's shard slot, assigned round-robin on first use.
unsigned metricsShardIndex();
} // namespace detail

/// True when instrumented call sites should record. Library
/// instrumentation guards every record with this; direct users of metric
/// objects (benches, tests) may record unconditionally.
inline bool metricsEnabled() {
  return detail::MetricsEnabledFlag.load(std::memory_order_relaxed);
}
/// Flips collection on/off process-wide (drivers: --metrics).
void setMetricsEnabled(bool Enabled);

/// Label set of one series: (key, value) pairs. Canonicalized (sorted by
/// key) by the registry, so {{"a","1"},{"b","2"}} and the reverse name
/// the same series.
using MetricLabels = std::vector<std::pair<std::string, std::string>>;

//===----------------------------------------------------------------------===//
// Series types
//===----------------------------------------------------------------------===//

namespace detail {
/// One cache-line-padded atomic cell of a sharded series.
struct alignas(64) MetricCell {
  std::atomic<uint64_t> V{0};
};
constexpr unsigned NumMetricShards = 16;
} // namespace detail

/// A monotonically increasing counter (merged over shards on read).
class Counter {
public:
  void inc(uint64_t N = 1) {
    Shards[detail::metricsShardIndex()].V.fetch_add(
        N, std::memory_order_relaxed);
  }
  /// Sum of all shards.
  uint64_t get() const;
  void reset();

  const MetricLabels &getLabels() const { return Labels; }

private:
  friend class MetricsRegistry;
  explicit Counter(MetricLabels L) : Labels(std::move(L)) {}
  MetricLabels Labels;
  std::array<detail::MetricCell, detail::NumMetricShards> Shards;
};

/// A value that can go up and down. add/sub are sharded deltas (safe
/// concurrently); set() rewrites the whole gauge and is only meaningful
/// when a single writer owns the series (e.g. pool size at startup).
class Gauge {
public:
  void add(int64_t N) {
    Shards[detail::metricsShardIndex()].V.fetch_add(
        (uint64_t)N, std::memory_order_relaxed);
  }
  void sub(int64_t N) { add(-N); }
  void inc() { add(1); }
  void dec() { add(-1); }
  void set(int64_t V);
  /// Sum of all shard deltas (two's complement wraps cancel out).
  int64_t get() const;
  void reset();

  const MetricLabels &getLabels() const { return Labels; }

private:
  friend class MetricsRegistry;
  explicit Gauge(MetricLabels L) : Labels(std::move(L)) {}
  MetricLabels Labels;
  std::array<detail::MetricCell, detail::NumMetricShards> Shards;
};

/// Merged point-in-time view of a histogram (all shards summed).
struct HistogramSnapshot {
  static constexpr unsigned NumBuckets = 64;
  uint64_t Count = 0;
  uint64_t Sum = 0;
  uint64_t Max = 0;
  std::array<uint64_t, NumBuckets> Buckets{}; // incremental, not cumulative

  /// Upper edge (inclusive) of bucket \p I: 0 for bucket 0, 2^I - 1
  /// otherwise (bucket 63 is open-ended; its edge is 2^63 - 1).
  static uint64_t bucketUpperEdge(unsigned I) {
    return I == 0 ? 0 : (I >= 63 ? ~uint64_t(0) >> 1 : (uint64_t(1) << I) - 1);
  }

  /// The estimate for quantile \p Q in [0,1]: the upper edge of the
  /// bucket containing the Q-th ranked sample (0 when empty). Always
  /// within one bucket boundary of the exact order statistic.
  uint64_t quantile(double Q) const;
};

/// A log-bucketed (power-of-2) histogram of uint64 samples, typically
/// nanoseconds. Fixed 64-bucket layout; see HistogramSnapshot.
class Histogram {
public:
  void record(uint64_t V) {
    Shard &S = Shards[detail::metricsShardIndex()];
    S.Buckets[bucketOf(V)].fetch_add(1, std::memory_order_relaxed);
    S.Sum.fetch_add(V, std::memory_order_relaxed);
    // Racy max via CAS: rarely contended (new maxima are rare).
    uint64_t Cur = S.Max.load(std::memory_order_relaxed);
    while (V > Cur &&
           !S.Max.compare_exchange_weak(Cur, V, std::memory_order_relaxed))
      ;
  }

  HistogramSnapshot snapshot() const;
  void reset();

  const MetricLabels &getLabels() const { return Labels; }

  /// Bucket index of \p V: 0 for 0, bit_width(V) clamped to 63 otherwise.
  static unsigned bucketOf(uint64_t V);

private:
  friend class MetricsRegistry;
  explicit Histogram(MetricLabels L) : Labels(std::move(L)) {}

  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, HistogramSnapshot::NumBuckets>
        Buckets{};
    std::atomic<uint64_t> Sum{0};
    std::atomic<uint64_t> Max{0};
  };
  MetricLabels Labels;
  std::array<Shard, detail::NumMetricShards> Shards;
};

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

/// The process-wide set of metric families. Series are created on first
/// request and live for the process (references stay valid forever), so
/// instrumented sites cache them in function-local statics:
///
///   static Counter &Hits = MetricsRegistry::instance().getCounter(
///       "irdl_constraint_memo_hits_total", "verification-cache hits");
///   ...
///   if (metricsEnabled())
///     Hits.inc();
class MetricsRegistry {
public:
  static MetricsRegistry &instance();

  /// Returns the canonical series of (name, labels), creating the family
  /// and/or series on first use. Requesting an existing name with a
  /// different type asserts.
  Counter &getCounter(std::string_view Name, std::string_view Help,
                      MetricLabels Labels = {});
  Gauge &getGauge(std::string_view Name, std::string_view Help,
                  MetricLabels Labels = {});
  Histogram &getHistogram(std::string_view Name, std::string_view Help,
                          MetricLabels Labels = {});

  /// Prometheus text exposition format, families sorted by name and
  /// series by label signature; histogram buckets are cumulative `le`
  /// series (sparse: empty buckets are skipped) plus _sum/_count.
  std::string renderPrometheus() const;

  /// {"counters":[{name,labels,value}...],"gauges":[...],
  ///  "histograms":[{name,labels,count,sum,max,p50,p90,p99,buckets}...]}
  /// with the same deterministic ordering as renderPrometheus.
  std::string renderJson() const;

  /// Zeroes every series' cells (bench/test isolation); series and
  /// families stay registered.
  void resetAll();

private:
  MetricsRegistry() = default;

  enum class Kind { Counter, Gauge, Histogram };
  struct Family {
    std::string Name;
    std::string Help;
    Kind K;
    /// (canonical label signature, series), insertion-ordered; rendering
    /// sorts by signature.
    std::vector<std::pair<std::string, std::unique_ptr<Counter>>> Counters;
    std::vector<std::pair<std::string, std::unique_ptr<Gauge>>> Gauges;
    std::vector<std::pair<std::string, std::unique_ptr<Histogram>>>
        Histograms;
  };

  Family &getFamily(std::string_view Name, std::string_view Help, Kind K);

  mutable std::mutex Mu;
  std::vector<std::unique_ptr<Family>> Families;
};

/// Escapes a Prometheus label value (backslash, double quote, newline).
std::string escapePrometheusLabelValue(std::string_view V);

} // namespace irdl

#endif // IRDL_SUPPORT_METRICS_H
