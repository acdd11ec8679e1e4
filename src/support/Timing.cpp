//===- Timing.cpp ----------------------------------------------------===//

#include "support/Timing.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <sstream>

using namespace irdl;

uint64_t irdl::steadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===----------------------------------------------------------------------===//
// Active group
//===----------------------------------------------------------------------===//

static std::atomic<TimerGroup *> ActiveGroup{nullptr};

TimerGroup *irdl::getActiveTimerGroup() {
  return ActiveGroup.load(std::memory_order_relaxed);
}

TimerGroup *irdl::setActiveTimerGroup(TimerGroup *G) {
  return ActiveGroup.exchange(G, std::memory_order_relaxed);
}

//===----------------------------------------------------------------------===//
// TimerGroup::Node
//===----------------------------------------------------------------------===//

uint64_t TimerGroup::Node::getChildrenWallNs() const {
  uint64_t Sum = 0;
  for (const auto &C : Children)
    Sum += C->WallNs;
  return Sum;
}

uint64_t TimerGroup::Node::getExclusiveNs() const {
  uint64_t ChildNs = getChildrenWallNs();
  return WallNs > ChildNs ? WallNs - ChildNs : 0;
}

const TimerGroup::Node *
TimerGroup::Node::findChild(std::string_view ChildName) const {
  for (const auto &C : Children)
    if (C->Name == ChildName)
      return C.get();
  return nullptr;
}

TimerGroup::Node *TimerGroup::Node::getOrCreateChild(
    std::string_view ChildName) {
  for (const auto &C : Children)
    if (C->Name == ChildName)
      return C.get();
  auto C = std::make_unique<Node>();
  C->Name = std::string(ChildName);
  C->Parent = this;
  Children.push_back(std::move(C));
  return Children.back().get();
}

//===----------------------------------------------------------------------===//
// TimerGroup
//===----------------------------------------------------------------------===//

TimerGroup::TimerGroup(std::string Name)
    : GroupName(std::move(Name)), Root(std::make_unique<Node>()),
      EpochNs(steadyNowNs()) {
  Root->Name = "<total>";
  Root->Count = 1;
}

TimerGroup::~TimerGroup() {
  // Make sure a dangling active pointer never outlives the group.
  TimerGroup *Self = this;
  ActiveGroup.compare_exchange_strong(Self, nullptr,
                                      std::memory_order_relaxed);
}

TimerGroup::Node *TimerGroup::startScope(std::string_view Name,
                                         uint64_t &StartNsOut) {
  std::lock_guard<std::mutex> Lock(Mu);
  std::vector<Node *> &Stack = Stacks[std::this_thread::get_id()];
  Node *Parent = Stack.empty() ? Root.get() : Stack.back();
  Node *N = Parent->getOrCreateChild(Name);
  Stack.push_back(N);
  StartNsOut = steadyNowNs();
  return N;
}

void TimerGroup::endScope(Node *N, uint64_t StartNs) {
  uint64_t Now = steadyNowNs();
  uint64_t Elapsed = Now > StartNs ? Now - StartNs : 0;
  std::lock_guard<std::mutex> Lock(Mu);
  auto ThreadId = std::this_thread::get_id();
  std::vector<Node *> &Stack = Stacks[ThreadId];
  assert(!Stack.empty() && Stack.back() == N &&
         "TimingScope closed out of order");
  (void)N;
  Node *Top = Stack.back();
  Stack.pop_back();
  Top->WallNs += Elapsed;
  ++Top->Count;
  // Root time = sum of outermost scopes.
  if (Stack.empty())
    Root->WallNs += Elapsed;
  auto [It, Inserted] =
      TidMap.try_emplace(ThreadId, (uint32_t)TidMap.size() + 1);
  (void)Inserted;
  Events.push_back({Top->Name, StartNs - std::min(StartNs, EpochNs),
                    Elapsed, It->second});
}

void TimerGroup::clear() {
  std::lock_guard<std::mutex> Lock(Mu);
  Root = std::make_unique<Node>();
  Root->Name = "<total>";
  Root->Count = 1;
  Stacks.clear();
  TidMap.clear();
  Events.clear();
  EpochNs = steadyNowNs();
}

//===----------------------------------------------------------------------===//
// Rendering
//===----------------------------------------------------------------------===//

static double nsToMs(uint64_t Ns) { return (double)Ns / 1e6; }

static void renderNode(std::ostringstream &OS, const TimerGroup::Node &N,
                       uint64_t ParentWallNs, unsigned Depth) {
  char Buf[96];
  double Pct = ParentWallNs
                   ? 100.0 * (double)N.getWallNs() / (double)ParentWallNs
                   : 100.0;
  std::snprintf(Buf, sizeof(Buf), "  %10.3f  %7llu  %6.1f%%  %10.3f  ",
                nsToMs(N.getWallNs()),
                (unsigned long long)N.getCount(), Pct,
                nsToMs(N.getExclusiveNs()));
  OS << Buf;
  for (unsigned I = 0; I != Depth; ++I)
    OS << "  ";
  OS << N.getName() << "\n";
  for (const auto &C : N.getChildren())
    renderNode(OS, *C, N.getWallNs(), Depth + 1);
}

std::string TimerGroup::renderTree() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "===-------------------------------------------------------"
        "---===\n";
  OS << "  execution timing report: " << GroupName << "\n";
  OS << "===-------------------------------------------------------"
        "---===\n";
  OS << "    wall (ms)    count  %parent   excl (ms)  name\n";
  renderNode(OS, *Root, Root->WallNs, 0);
  return OS.str();
}

/// Minimal JSON string escaping (quotes, backslashes, control chars).
static void appendJsonString(std::ostringstream &OS, std::string_view S) {
  OS << '"';
  for (char C : S) {
    switch (C) {
    case '"':
      OS << "\\\"";
      break;
    case '\\':
      OS << "\\\\";
      break;
    case '\n':
      OS << "\\n";
      break;
    case '\t':
      OS << "\\t";
      break;
    default:
      if ((unsigned char)C < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        OS << Buf;
      } else {
        OS << C;
      }
    }
  }
  OS << '"';
}

std::string
TimerGroup::renderTraceJson(std::string_view ProcessName) const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  // Process-name metadata event, the idiom Perfetto expects.
  OS << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":";
  appendJsonString(OS, ProcessName);
  OS << "}}";
  char Buf[128];
  // Thread-name metadata events, so about://tracing shows labeled rows
  // instead of bare tids. Tid 1 is the first thread to close a scope;
  // higher tids are other threads (serve connections) in first-seen order.
  std::vector<uint32_t> Tids;
  Tids.reserve(TidMap.size());
  for (const auto &[ThreadId, Tid] : TidMap)
    Tids.push_back(Tid);
  std::sort(Tids.begin(), Tids.end());
  for (uint32_t Tid : Tids) {
    std::string Name =
        Tid == 1 ? "main" : "worker-" + std::to_string(Tid - 1);
    std::snprintf(Buf, sizeof(Buf),
                  ",\n{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                  "\"tid\":%u,\"args\":{\"name\":\"%s\"}}",
                  Tid, Name.c_str());
    OS << Buf;
  }
  for (const TraceEvent &E : Events) {
    OS << ",\n{\"name\":";
    appendJsonString(OS, E.Name);
    std::snprintf(Buf, sizeof(Buf),
                  ",\"cat\":\"irdl\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f}",
                  E.Tid, (double)E.TsNs / 1e3, (double)E.DurNs / 1e3);
    OS << Buf;
  }
  OS << "\n]}\n";
  return OS.str();
}

static void renderSummaryNode(std::ostringstream &OS,
                              const TimerGroup::Node &N) {
  char Buf[64];
  OS << "{\"name\":";
  appendJsonString(OS, N.getName());
  std::snprintf(Buf, sizeof(Buf), ",\"wall_ms\":%.3f,\"count\":%llu",
                nsToMs(N.getWallNs()), (unsigned long long)N.getCount());
  OS << Buf << ",\"children\":[";
  bool First = true;
  for (const auto &C : N.getChildren()) {
    if (!First)
      OS << ",";
    First = false;
    renderSummaryNode(OS, *C);
  }
  OS << "]}";
}

std::string TimerGroup::renderJsonSummary() const {
  std::lock_guard<std::mutex> Lock(Mu);
  std::ostringstream OS;
  OS << "{\"group\":";
  appendJsonString(OS, GroupName);
  char Buf[48];
  std::snprintf(Buf, sizeof(Buf), ",\"total_wall_ms\":%.3f,",
                nsToMs(Root->WallNs));
  OS << Buf << "\"tree\":";
  renderSummaryNode(OS, *Root);
  OS << "}";
  return OS.str();
}
