//===- Statistic.h - Named counters in the metrics registry -----*- C++ -*-===//
///
/// \file
/// LLVM-`STATISTIC`-style declarations over the one counter system: a
/// Statistic is a handle to a MetricsRegistry counter, declared at file
/// scope with a group, a variable name and a Prometheus name:
///
///   IRDL_STATISTIC(Verifier, NumOpsVerified, "irdl_verifier_ops_total",
///                  "operations checked by the verifier");
///   ...
///   ++NumOpsVerified;
///
/// A bump records only while `metricsEnabled()`; with collection off it
/// costs one relaxed load and a branch and writes nothing. The counter
/// shows up in `--metrics` / `--metrics-json` under its Prometheus name.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_STATISTIC_H
#define IRDL_SUPPORT_STATISTIC_H

#include "support/Metrics.h"

#include <cstdint>
#include <string_view>

namespace irdl {

/// A (group, name) handle to one MetricsRegistry counter. Instances must
/// have static storage duration: construction links them into the list
/// that StatisticRegistry::lookup walks.
class Statistic {
public:
  Statistic(const char *Group, const char *Name, std::string_view Metric,
            std::string_view Help, MetricLabels Labels = {});

  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  uint64_t get() const { return C.get(); }
  void inc(uint64_t N = 1) {
    if (metricsEnabled())
      C.inc(N);
  }
  Statistic &operator++() {
    inc();
    return *this;
  }
  Statistic &operator+=(uint64_t N) {
    inc(N);
    return *this;
  }

private:
  friend class StatisticRegistry;
  const char *Group;
  const char *Name;
  Counter &C;
  Statistic *Next;
};

/// Finds a statistic by its (group, variable name) pair.
class StatisticRegistry {
public:
  static StatisticRegistry &instance();

  /// The statistic declared as GROUP.NAME; null if absent.
  Statistic *lookup(std::string_view Group, std::string_view Name) const;
};

/// Declares a file-local statistic named VARNAME in group GROUP, counted
/// by the MetricsRegistry counter METRIC.
#define IRDL_STATISTIC(GROUP, VARNAME, METRIC, HELP)                        \
  static ::irdl::Statistic VARNAME(#GROUP, #VARNAME, METRIC, HELP)

} // namespace irdl

#endif // IRDL_SUPPORT_STATISTIC_H
