//===- ConstraintProfiler.h - Hot-constraint attribution ---------*- C++ -*-===//
///
/// \file
/// The `--profile-constraints` subsystem: every ConstraintProgram carries
/// two relaxed atomic counters (executions, cumulative exec nanoseconds)
/// that the interpreter bumps only while profiling is enabled, and this
/// process-wide profiler maps live programs to human-readable attribution
/// names ("cmath.mul operand 'lhs'", "cmath.complex param 'elem'", ...)
/// assigned at dialect registration. The report answers "which constraint
/// is hot" — the question neither the phase timers (too coarse) nor the
/// statistics counters (no per-program identity) can.
///
/// Nested programs account independently: a Var opcode that runs its
/// variable's own program adds that time to *both* the outer and the
/// variable program, like callees in a non-exclusive profile. Registered
/// names cover every program compiled at registration, so the report
/// attributes essentially all constraint-eval time to named programs;
/// programs compiled outside registration (tests, ad-hoc tooling) show up
/// as `<unregistered>`.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINTPROFILER_H
#define IRDL_IRDL_CONSTRAINTPROFILER_H

#include "irdl/ConstraintProgram.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace irdl {

namespace detail {
extern std::atomic<bool> ConstraintProfilingFlag;
} // namespace detail

/// True when ConstraintProgram::run should time itself.
inline bool constraintProfilingEnabled() {
  return detail::ConstraintProfilingFlag.load(std::memory_order_relaxed);
}
/// Flips profiling process-wide (drivers: --profile-constraints).
void setConstraintProfilingEnabled(bool Enabled);

/// Process-wide map from live constraint programs to attribution names.
class ConstraintProfiler {
public:
  static ConstraintProfiler &instance();

  /// Associates \p Name with \p Prog. Holds only a weak reference: a
  /// program dies with its spec and silently drops out of reports. A
  /// weak reference still pins the program's allocation, so the records
  /// of dead programs are dropped here and in collect().
  void registerProgram(const ConstraintProgramPtr &Prog, std::string Name);

  /// Records held, those of dead programs included.
  size_t getNumRecords() const;

  struct Entry {
    std::string Name;
    uint64_t ProgramId = 0;
    uint64_t NumInstrs = 0;
    uint64_t Evals = 0;
    uint64_t Nanos = 0;
  };

  /// All live registered programs with at least one profiled execution,
  /// sorted by cumulative nanoseconds descending (ties by program id for
  /// determinism). Drops the records of dead programs.
  std::vector<Entry> collect() const;

  /// Human-readable "top N hottest constraint programs" table with
  /// per-program evals, cumulative/mean time, and % of the profiled
  /// total.
  std::string renderReport(size_t TopN = 20) const;

  /// JSON array of collect(), same order.
  std::string renderJson() const;

  /// Zeroes the counters of every live registered program and prunes
  /// dead entries (bench/test isolation).
  void reset();

private:
  ConstraintProfiler() = default;

  struct Record {
    std::weak_ptr<const ConstraintProgram> Prog;
    std::string Name;
  };
  /// Drops the records of dead programs; Mu must be held.
  void pruneExpired() const;

  mutable std::mutex Mu;
  /// Mutable so the const report paths can prune it.
  mutable std::vector<Record> Records;
};

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINTPROFILER_H
