//===- Statistic.cpp -------------------------------------------------===//

#include "support/Statistic.h"

using namespace irdl;

/// Head of the list of every Statistic, newest first. Statistics are
/// constructed during static initialization, before any thread starts.
static Statistic *Head = nullptr;

Statistic::Statistic(const char *Group, const char *Name,
                     std::string_view Metric, std::string_view Help,
                     MetricLabels Labels)
    : Group(Group), Name(Name),
      C(MetricsRegistry::instance().getCounter(Metric, Help,
                                               std::move(Labels))),
      Next(Head) {
  Head = this;
}

StatisticRegistry &StatisticRegistry::instance() {
  static StatisticRegistry Registry;
  return Registry;
}

Statistic *StatisticRegistry::lookup(std::string_view Group,
                                     std::string_view Name) const {
  for (Statistic *S = Head; S; S = S->Next)
    if (Group == S->Group && Name == S->Name)
      return S;
  return nullptr;
}
