//===- TimingTest.cpp - TimerGroup/TimingScope -----------------------===//

#include "support/Timing.h"

#include <gtest/gtest.h>

#include <thread>

using namespace irdl;

namespace {

// A scope long enough that steady_clock registers nonzero time.
void spinBriefly() {
  uint64_t Start = steadyNowNs();
  while (steadyNowNs() - Start < 200 * 1000) // 0.2 ms
    ;
}

TEST(TimingTest, NestingBuildsAHierarchy) {
  TimerGroup G("test");
  {
    TimingScope Outer(G, "outer");
    spinBriefly();
    {
      TimingScope Inner(G, "inner1");
      spinBriefly();
    }
    {
      TimingScope Inner(G, "inner2");
      spinBriefly();
    }
  }
  const TimerGroup::Node &Root = G.getRoot();
  ASSERT_EQ(Root.getChildren().size(), 1u);
  const TimerGroup::Node *Outer = Root.findChild("outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->getCount(), 1u);
  ASSERT_EQ(Outer->getChildren().size(), 2u);
  EXPECT_NE(Outer->findChild("inner1"), nullptr);
  EXPECT_NE(Outer->findChild("inner2"), nullptr);
  // The root aggregates the outermost scopes only.
  EXPECT_EQ(Root.getWallNs(), Outer->getWallNs());
}

TEST(TimingTest, SameNameScopesAggregate) {
  TimerGroup G("test");
  for (int I = 0; I != 3; ++I) {
    TimingScope S(G, "repeated");
    spinBriefly();
  }
  const TimerGroup::Node *N = G.getRoot().findChild("repeated");
  ASSERT_NE(N, nullptr);
  EXPECT_EQ(N->getCount(), 3u);
  EXPECT_EQ(G.getRoot().getChildren().size(), 1u);
  EXPECT_GT(N->getWallNs(), 0u);
}

TEST(TimingTest, ExclusiveTimeMath) {
  TimerGroup G("test");
  {
    TimingScope Outer(G, "outer");
    spinBriefly(); // exclusive work
    {
      TimingScope Inner(G, "inner");
      spinBriefly();
    }
  }
  const TimerGroup::Node *Outer = G.getRoot().findChild("outer");
  ASSERT_NE(Outer, nullptr);
  const TimerGroup::Node *Inner = Outer->findChild("inner");
  ASSERT_NE(Inner, nullptr);
  // Parent wall time covers the child's.
  EXPECT_GE(Outer->getWallNs(), Inner->getWallNs());
  EXPECT_EQ(Outer->getChildrenWallNs(), Inner->getWallNs());
  // Exclusive = wall - children, and the exclusive spin is nonzero.
  EXPECT_EQ(Outer->getExclusiveNs(),
            Outer->getWallNs() - Inner->getWallNs());
  EXPECT_GT(Outer->getExclusiveNs(), 0u);
  // A leaf's exclusive time is its wall time.
  EXPECT_EQ(Inner->getExclusiveNs(), Inner->getWallNs());
}

TEST(TimingTest, RecursiveSameNameDoesNotDoubleCountOneNode) {
  TimerGroup G("test");
  {
    TimingScope A(G, "work");
    {
      TimingScope B(G, "work"); // nests as a child, not the same node
      spinBriefly();
    }
  }
  const TimerGroup::Node *Top = G.getRoot().findChild("work");
  ASSERT_NE(Top, nullptr);
  EXPECT_EQ(Top->getCount(), 1u);
  const TimerGroup::Node *Nested = Top->findChild("work");
  ASSERT_NE(Nested, nullptr);
  EXPECT_EQ(Nested->getCount(), 1u);
  EXPECT_EQ(G.getRoot().getWallNs(), Top->getWallNs());
}

TEST(TimingTest, ThreadsGetIndependentStacks) {
  TimerGroup G("test");
  std::vector<std::thread> Threads;
  for (int T = 0; T != 4; ++T)
    Threads.emplace_back([&G] {
      for (int I = 0; I != 8; ++I) {
        TimingScope Outer(G, "thread-outer");
        TimingScope Inner(G, "thread-inner");
        spinBriefly();
      }
    });
  for (auto &T : Threads)
    T.join();
  const TimerGroup::Node *Outer = G.getRoot().findChild("thread-outer");
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(Outer->getCount(), 32u);
  const TimerGroup::Node *Inner = Outer->findChild("thread-inner");
  ASSERT_NE(Inner, nullptr);
  EXPECT_EQ(Inner->getCount(), 32u);
}

TEST(TimingTest, NullGroupScopesAreNoOps) {
  // Must not crash and must record nothing anywhere.
  TimingScope S(static_cast<TimerGroup *>(nullptr), "nothing");
  S.stop();
  SUCCEED();
}

TEST(TimingTest, MacroUsesActiveGroupAndDefaultsOff) {
  ASSERT_EQ(getActiveTimerGroup(), nullptr);
  {
    IRDL_TIME_SCOPE("inactive"); // no active group: no-op
  }
  TimerGroup G("active");
  setActiveTimerGroup(&G);
  {
    IRDL_TIME_SCOPE("macro-scope");
  }
  setActiveTimerGroup(nullptr);
  EXPECT_NE(G.getRoot().findChild("macro-scope"), nullptr);
}

TEST(TimingTest, RenderTreeListsScopes) {
  TimerGroup G("render-me");
  {
    TimingScope Outer(G, "phase-a");
    TimingScope Inner(G, "phase-b");
    spinBriefly();
  }
  std::string Tree = G.renderTree();
  EXPECT_NE(Tree.find("render-me"), std::string::npos);
  EXPECT_NE(Tree.find("phase-a"), std::string::npos);
  EXPECT_NE(Tree.find("phase-b"), std::string::npos);
  EXPECT_NE(Tree.find("%parent"), std::string::npos);
}

TEST(TimingTest, ClearResets) {
  TimerGroup G("test");
  {
    TimingScope S(G, "gone");
  }
  ASSERT_FALSE(G.getRoot().getChildren().empty());
  G.clear();
  EXPECT_TRUE(G.getRoot().getChildren().empty());
  EXPECT_EQ(G.getRoot().getWallNs(), 0u);
}

TEST(TimingTest, DestructorClearsActivePointer) {
  {
    auto G = std::make_unique<TimerGroup>("short-lived");
    setActiveTimerGroup(G.get());
  }
  // The group's destructor must not leave a dangling active pointer.
  EXPECT_EQ(getActiveTimerGroup(), nullptr);
}

} // namespace
