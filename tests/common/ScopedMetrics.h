//===- ScopedMetrics.h - Metrics collection for one scope ------*- C++ -*-===//
///
/// \file
/// Statistics and metrics record only while collection is on. A test that
/// reads a counter turns collection on around what it measures with
///
///   ScopedMetricsEnabled Metrics;
///
/// and the previous state comes back when the scope ends.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_TESTS_COMMON_SCOPEDMETRICS_H
#define IRDL_TESTS_COMMON_SCOPEDMETRICS_H

#include "support/Metrics.h"

namespace irdl {

class ScopedMetricsEnabled {
public:
  explicit ScopedMetricsEnabled(bool Enabled = true)
      : Previous(metricsEnabled()) {
    setMetricsEnabled(Enabled);
  }
  ~ScopedMetricsEnabled() { setMetricsEnabled(Previous); }

  ScopedMetricsEnabled(const ScopedMetricsEnabled &) = delete;
  ScopedMetricsEnabled &operator=(const ScopedMetricsEnabled &) = delete;

private:
  bool Previous;
};

} // namespace irdl

#endif // IRDL_TESTS_COMMON_SCOPEDMETRICS_H
