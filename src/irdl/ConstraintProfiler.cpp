//===- ConstraintProfiler.cpp - Hot-constraint attribution ------*- C++ -*-===//

#include "irdl/ConstraintProfiler.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

using namespace irdl;

namespace irdl {
namespace detail {
std::atomic<bool> ConstraintProfilingFlag{false};
} // namespace detail
} // namespace irdl

void irdl::setConstraintProfilingEnabled(bool Enabled) {
  detail::ConstraintProfilingFlag.store(Enabled, std::memory_order_relaxed);
}

ConstraintProfiler &ConstraintProfiler::instance() {
  // Leaked singleton: programs registered from function-local statics may
  // outlive any static profiler object on some teardown orders.
  static ConstraintProfiler *Profiler = new ConstraintProfiler();
  return *Profiler;
}

void ConstraintProfiler::registerProgram(const ConstraintProgramPtr &Prog,
                                         std::string Name) {
  if (!Prog)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  pruneExpired();
  Records.push_back({Prog, std::move(Name)});
}

size_t ConstraintProfiler::getNumRecords() const {
  std::lock_guard<std::mutex> Lock(Mu);
  return Records.size();
}

void ConstraintProfiler::pruneExpired() const {
  std::erase_if(Records, [](const Record &R) { return R.Prog.expired(); });
}

std::vector<ConstraintProfiler::Entry> ConstraintProfiler::collect() const {
  std::vector<Entry> Entries;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    pruneExpired();
    Entries.reserve(Records.size());
    for (const Record &R : Records) {
      ConstraintProgramPtr P = R.Prog.lock();
      if (!P)
        continue;
      uint64_t Evals = P->getProfiledEvals();
      if (Evals == 0)
        continue;
      Entries.push_back({R.Name, P->getId(), P->getNumInstrs(), Evals,
                         P->getProfiledNanos()});
    }
  }
  std::sort(Entries.begin(), Entries.end(),
            [](const Entry &A, const Entry &B) {
              if (A.Nanos != B.Nanos)
                return A.Nanos > B.Nanos;
              return A.ProgramId < B.ProgramId;
            });
  return Entries;
}

std::string ConstraintProfiler::renderReport(size_t TopN) const {
  std::vector<Entry> Entries = collect();
  uint64_t TotalNs = 0, TotalEvals = 0;
  for (const Entry &E : Entries) {
    TotalNs += E.Nanos;
    TotalEvals += E.Evals;
  }

  std::string Out;
  char Buf[256];
  snprintf(Buf, sizeof(Buf),
           "===-------------------------------------------------------------"
           "---===\n"
           "            Hottest constraint programs (%zu of %zu, %" PRIu64
           " evals)\n"
           "===-------------------------------------------------------------"
           "---===\n",
           std::min(TopN, Entries.size()), Entries.size(), TotalEvals);
  Out += Buf;
  snprintf(Buf, sizeof(Buf), "  %10s  %12s  %9s  %7s  %6s  %s\n", "evals",
           "total(us)", "mean(ns)", "pct", "instrs", "program");
  Out += Buf;
  size_t Shown = 0;
  for (const Entry &E : Entries) {
    if (Shown++ == TopN)
      break;
    double Pct = TotalNs ? 100.0 * (double)E.Nanos / (double)TotalNs : 0.0;
    double MeanNs = E.Evals ? (double)E.Nanos / (double)E.Evals : 0.0;
    snprintf(Buf, sizeof(Buf),
             "  %10" PRIu64 "  %12.1f  %9.1f  %6.2f%%  %6" PRIu64 "  %s\n",
             E.Evals, (double)E.Nanos / 1000.0, MeanNs, Pct, E.NumInstrs,
             E.Name.empty() ? "<unregistered>" : E.Name.c_str());
    Out += Buf;
  }
  if (Entries.empty())
    Out += "  (no profiled constraint executions)\n";
  return Out;
}

static void appendJsonEscaped(std::string &Out, std::string_view S) {
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if ((unsigned char)C < 0x20) {
        char Buf[8];
        snprintf(Buf, sizeof(Buf), "\\u%04x", (unsigned char)C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
}

std::string ConstraintProfiler::renderJson() const {
  std::vector<Entry> Entries = collect();
  std::string Out = "[";
  bool First = true;
  char Buf[160];
  for (const Entry &E : Entries) {
    if (!First)
      Out += ",";
    First = false;
    Out += "{\"name\":\"";
    appendJsonEscaped(Out, E.Name);
    snprintf(Buf, sizeof(Buf),
             "\",\"program_id\":%" PRIu64 ",\"num_instrs\":%" PRIu64
             ",\"evals\":%" PRIu64 ",\"nanos\":%" PRIu64 "}",
             E.ProgramId, E.NumInstrs, E.Evals, E.Nanos);
    Out += Buf;
  }
  Out += "]";
  return Out;
}

void ConstraintProfiler::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  pruneExpired();
  for (const Record &R : Records)
    if (ConstraintProgramPtr P = R.Prog.lock())
      P->resetProfile();
}
