//===- Statistic.h - Cheap named counters ------------------------*- C++ -*-===//
///
/// \file
/// LLVM-`STATISTIC`-style counters: a Statistic is a named atomic counter
/// that registers itself with a process-wide registry at construction and
/// costs one relaxed atomic increment per bump. Instrumented code declares
/// counters at file scope with
///
///   IRDL_STATISTIC(Verifier, NumConstraintEvals, "constraint evals");
///   ...
///   ++NumConstraintEvals;
///
/// and drivers dump the registry sorted by (group, name) as a table or as
/// machine-readable JSON. Statistics are cheap enough to always collect.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_STATISTIC_H
#define IRDL_SUPPORT_STATISTIC_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace irdl {

/// One named counter. Construction registers it permanently with the
/// StatisticRegistry, so instances must have static storage duration.
class Statistic {
public:
  Statistic(const char *Group, const char *Name, const char *Desc);

  Statistic(const Statistic &) = delete;
  Statistic &operator=(const Statistic &) = delete;

  const char *getGroup() const { return Group; }
  const char *getName() const { return Name; }
  const char *getDesc() const { return Desc; }

  uint64_t get() const { return Value.load(std::memory_order_relaxed); }
  void inc(uint64_t N = 1) {
    Value.fetch_add(N, std::memory_order_relaxed);
  }
  Statistic &operator++() {
    inc();
    return *this;
  }
  Statistic &operator+=(uint64_t N) {
    inc(N);
    return *this;
  }
  void reset() { Value.store(0, std::memory_order_relaxed); }

private:
  const char *Group;
  const char *Name;
  const char *Desc;
  std::atomic<uint64_t> Value{0};
};

/// The process-wide set of all Statistic instances.
class StatisticRegistry {
public:
  static StatisticRegistry &instance();

  void add(Statistic *S);

  /// All registered statistics, sorted by (group, name).
  std::vector<Statistic *> getAll() const;

  /// Looks up one statistic; null if absent.
  Statistic *lookup(std::string_view Group, std::string_view Name) const;

  /// Aligned "value group.name - description" table; zero-valued
  /// counters are skipped unless \p IncludeZero.
  std::string renderTable(bool IncludeZero = false) const;

  /// JSON array [{"group":...,"name":...,"value":N,"desc":...},...].
  std::string renderJson(bool IncludeZero = false) const;

  /// Zeroes every registered counter (bench/test isolation).
  void resetAll();

private:
  StatisticRegistry() = default;
  mutable std::mutex Mu;
  std::vector<Statistic *> Stats;
};

/// Declares a file-local statistic named VARNAME in group GROUP.
#define IRDL_STATISTIC(GROUP, VARNAME, DESC)                                \
  static ::irdl::Statistic VARNAME(#GROUP, #VARNAME, DESC)

} // namespace irdl

#endif // IRDL_SUPPORT_STATISTIC_H
