//===- Timing.h - Hierarchical execution timers ------------------*- C++ -*-===//
///
/// \file
/// Hierarchical wall-clock timing in the spirit of MLIR's `-mlir-timing`:
/// a TimerGroup owns an aggregated tree of timing nodes, and TimingScope
/// is the RAII handle that opens one node for the duration of a scope.
/// Scopes nest (per thread, via thread-local cursors inside the group),
/// and scopes with the same name under the same parent aggregate into one
/// node with a count. The group renders either a human-readable tree
/// report (wall time, count, % of parent, exclusive time) or a Chrome
/// `chrome://tracing` / Perfetto-compatible trace-event JSON file.
///
/// Instrumentation sites in the library use IRDL_TIME_SCOPE("name"),
/// which times against the process-wide *active* timer group — a plain
/// pointer that drivers install around the work they want profiled and
/// that defaults to null (scopes are then single-branch no-ops).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_TIMING_H
#define IRDL_SUPPORT_TIMING_H

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

namespace irdl {

/// Returns a monotonic timestamp in nanoseconds (steady_clock).
uint64_t steadyNowNs();

/// An aggregated tree of named timers plus the flat trace-event log
/// needed for Chrome trace export. Thread-safe: concurrent scopes on
/// different threads maintain independent nesting stacks.
class TimerGroup {
public:
  /// One node of the timing tree. Scopes with the same name under the
  /// same parent share a node; WallNs/Count accumulate.
  class Node {
  public:
    const std::string &getName() const { return Name; }
    uint64_t getWallNs() const { return WallNs; }
    uint64_t getCount() const { return Count; }
    const std::vector<std::unique_ptr<Node>> &getChildren() const {
      return Children;
    }
    /// Sum of the children's wall times.
    uint64_t getChildrenWallNs() const;
    /// Time spent in this node but not in any child (clamped at zero:
    /// concurrent child scopes on other threads can exceed the parent).
    uint64_t getExclusiveNs() const;
    /// Returns the child named \p Name, or null.
    const Node *findChild(std::string_view Name) const;

  private:
    friend class TimerGroup;
    Node *getOrCreateChild(std::string_view ChildName);

    std::string Name;
    uint64_t WallNs = 0;
    uint64_t Count = 0;
    Node *Parent = nullptr;
    std::vector<std::unique_ptr<Node>> Children;
  };

  explicit TimerGroup(std::string Name = "total");
  ~TimerGroup();

  TimerGroup(const TimerGroup &) = delete;
  TimerGroup &operator=(const TimerGroup &) = delete;

  const std::string &getName() const { return GroupName; }

  /// The synthetic root; its wall time is the sum of the top-level
  /// scopes and its children are the outermost timed scopes.
  const Node &getRoot() const { return *Root; }

  /// Opens a scope named \p Name under the calling thread's current
  /// cursor and returns its node; \p StartNsOut receives the start
  /// timestamp to pass back to endScope. Used by TimingScope.
  Node *startScope(std::string_view Name, uint64_t &StartNsOut);
  /// Closes \p N (which must be the innermost open scope of this
  /// thread), accumulating elapsed time and recording a trace event.
  void endScope(Node *N, uint64_t StartNs);

  /// Drops all recorded timings, trace events, and open-scope state.
  void clear();

  /// Human-readable tree report: wall ms, count, % of parent, exclusive
  /// ms per node.
  std::string renderTree() const;

  /// Chrome trace-event JSON ("traceEvents" with complete 'X' events,
  /// microsecond timestamps) loadable by chrome://tracing and Perfetto.
  std::string renderTraceJson(std::string_view ProcessName = "irdl") const;

  /// Machine-readable summary of the aggregated tree:
  /// {"group":..., "total_wall_ms":..., "tree":{name,wall_ms,count,
  ///  children:[...]}}.
  std::string renderJsonSummary() const;

private:
  struct TraceEvent {
    std::string Name;
    uint64_t TsNs;  // relative to the group's epoch
    uint64_t DurNs;
    uint32_t Tid;
  };

  mutable std::mutex Mu;
  std::string GroupName;
  std::unique_ptr<Node> Root;
  std::unordered_map<std::thread::id, std::vector<Node *>> Stacks;
  std::unordered_map<std::thread::id, uint32_t> TidMap;
  std::vector<TraceEvent> Events;
  uint64_t EpochNs;
};

/// The process-wide group IRDL_TIME_SCOPE records into (null by default:
/// library scopes are no-ops until a driver installs a group).
TimerGroup *getActiveTimerGroup();
/// Installs \p G as the active group; pass null to disable. Returns the
/// previously active group so callers can restore it.
TimerGroup *setActiveTimerGroup(TimerGroup *G);

/// RAII handle for one timed scope. A null group makes it a no-op.
class TimingScope {
public:
  TimingScope(TimerGroup *Group, std::string_view Name) {
    if (Group) {
      G = Group;
      N = Group->startScope(Name, StartNs);
    }
  }
  TimingScope(TimerGroup &Group, std::string_view Name)
      : TimingScope(&Group, Name) {}
  ~TimingScope() { stop(); }
  TimingScope(const TimingScope &) = delete;
  TimingScope &operator=(const TimingScope &) = delete;

  /// Ends the scope early (idempotent).
  void stop() {
    if (G) {
      G->endScope(N, StartNs);
      G = nullptr;
    }
  }

private:
  TimerGroup *G = nullptr;
  TimerGroup::Node *N = nullptr;
  uint64_t StartNs = 0;
};

#define IRDL_TIME_CONCAT_IMPL(A, B) A##B
#define IRDL_TIME_CONCAT(A, B) IRDL_TIME_CONCAT_IMPL(A, B)
/// Times the enclosing scope under NAME in the active timer group.
#define IRDL_TIME_SCOPE(NAME)                                               \
  ::irdl::TimingScope IRDL_TIME_CONCAT(IrdlTimingScope_, __LINE__)(         \
      ::irdl::getActiveTimerGroup(), NAME)

} // namespace irdl

#endif // IRDL_SUPPORT_TIMING_H
