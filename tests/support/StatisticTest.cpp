//===- StatisticTest.cpp - Statistic handles and lookup --------------===//

#include "common/ScopedMetrics.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace irdl;

// File-scope counters, the way instrumented code declares them.
IRDL_STATISTIC(StatisticTest, TestCounterA, "irdl_statistic_test_a_total",
               "a test counter");
IRDL_STATISTIC(StatisticTest, TestCounterB, "irdl_statistic_test_b_total",
               "another test counter");

namespace {

TEST(StatisticTest, RegistersAndLooksUp) {
  Statistic *S =
      StatisticRegistry::instance().lookup("StatisticTest", "TestCounterA");
  ASSERT_NE(S, nullptr);
  EXPECT_EQ(S, &TestCounterA);
  EXPECT_EQ(StatisticRegistry::instance().lookup("StatisticTest", "Nope"),
            nullptr);
  EXPECT_EQ(StatisticRegistry::instance().lookup("Nope", "TestCounterA"),
            nullptr);
}

TEST(StatisticTest, IncrementAndAdd) {
  Counter &C = MetricsRegistry::instance().getCounter(
      "irdl_statistic_test_a_total", "");
  uint64_t Before = TestCounterA.get();
  {
    ScopedMetricsEnabled Metrics;
    ++TestCounterA;
    TestCounterA += 41;
  }
  // The statistic is the registry counter under its Prometheus name.
  EXPECT_EQ(TestCounterA.get(), Before + 42);
  EXPECT_EQ(C.get(), Before + 42);
  EXPECT_NE(MetricsRegistry::instance().renderJson().find(
                "\"name\":\"irdl_statistic_test_a_total\""),
            std::string::npos);

  // With collection off a bump records nothing.
  ScopedMetricsEnabled Off(false);
  ++TestCounterA;
  TestCounterA.inc(5);
  EXPECT_EQ(TestCounterA.get(), Before + 42);
}

TEST(StatisticTest, AtomicUnderConcurrentIncrements) {
  ScopedMetricsEnabled Metrics;
  uint64_t Before = TestCounterB.get();
  constexpr int NumThreads = 8;
  constexpr int IncsPerThread = 20000;
  std::vector<std::thread> Threads;
  for (int T = 0; T != NumThreads; ++T)
    Threads.emplace_back([] {
      for (int I = 0; I != IncsPerThread; ++I)
        ++TestCounterB;
    });
  for (auto &T : Threads)
    T.join();
  EXPECT_EQ(TestCounterB.get() - Before,
            (uint64_t)NumThreads * (uint64_t)IncsPerThread);
}

} // namespace
