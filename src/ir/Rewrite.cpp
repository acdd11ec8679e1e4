//===- Rewrite.cpp --------------------------------------------------===//

#include "ir/Rewrite.h"

#include "ir/Block.h"
#include "ir/Region.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <algorithm>
#include <deque>
#include <unordered_set>

using namespace irdl;

IRDL_STATISTIC(Rewrite, NumGreedyIterations,
               "irdl_rewrite_greedy_iterations_total",
               "greedy rewriter worklist sweeps");
IRDL_STATISTIC(Rewrite, NumPatternRewrites, "irdl_rewrite_rewrites_total",
               "successful pattern applications");
IRDL_STATISTIC(Rewrite, NumPatternMatchFailures,
               "irdl_rewrite_match_failures_total",
               "pattern matchAndRewrite attempts that failed");

PatternRewriter::~PatternRewriter() = default;
RewritePattern::~RewritePattern() = default;

void PatternRewriter::replaceOp(Operation *Op,
                                std::span<const Value> NewValues) {
  notifyOpReplaced(Op, NewValues);
  Op->replaceAllUsesWith(NewValues);
  eraseOp(Op);
}

void PatternRewriter::eraseOp(Operation *Op) {
  assert(Op->use_empty() && "erasing an operation with live uses");
  // Notify for every nested op too: the driver must drop any worklist
  // pointers into the erased subtree.
  Op->walk([&](Operation *Nested) { notifyOpErased(Nested); });
  Op->erase();
}

Operation *PatternRewriter::createOp(OperationState &State) {
  Operation *Op = create(State);
  notifyOpInserted(Op);
  return Op;
}

namespace {

/// The worklist-driven rewriter behind applyPatternsGreedily.
class GreedyRewriter : public PatternRewriter {
public:
  GreedyRewriter(IRContext *Ctx, const RewritePatternSet &Patterns)
      : PatternRewriter(Ctx) {
    for (const auto &P : Patterns.getPatterns())
      Sorted.push_back(P.get());
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const RewritePattern *A, const RewritePattern *B) {
                       return A->getBenefit() > B->getBenefit();
                     });
  }

  RewriteStatistics run(Operation *Root, unsigned MaxIterations) {
    IRDL_TIME_SCOPE("greedy-rewrite");
    RewriteStatistics Stats;
    for (unsigned Iter = 0; Iter != MaxIterations; ++Iter) {
      ++Stats.NumIterations;
      ++NumGreedyIterations;
      seedWorklist(Root);
      bool Changed = processWorklist(Stats);
      if (!Changed)
        return Stats;
    }
    // One more sweep to detect non-convergence.
    seedWorklist(Root);
    RewriteStatistics Probe;
    if (processWorklist(Probe)) {
      Stats.NumRewrites += Probe.NumRewrites;
      Stats.Converged = false;
    }
    return Stats;
  }

private:
  void seedWorklist(Operation *Root) {
    Worklist.clear();
    InWorklist.clear();
    for (Region &R : Root->getRegions())
      for (Block &B : R)
        for (Operation &Op : B)
          Op.walk([&](Operation *Nested) { addToWorklist(Nested); });
  }

  void addToWorklist(Operation *Op) {
    if (InWorklist.insert(Op).second)
      Worklist.push_back(Op);
  }

  bool processWorklist(RewriteStatistics &Stats) {
    bool Changed = false;
    while (!Worklist.empty()) {
      Operation *Op = Worklist.front();
      Worklist.pop_front();
      if (!InWorklist.count(Op))
        continue;
      InWorklist.erase(Op);
      if (Erased.count(Op))
        continue;

      for (const RewritePattern *P : Sorted) {
        if (!P->getRootName().empty() &&
            P->getRootName() != Op->getName().str())
          continue;
        CurrentRoot = Op;
        setInsertionPoint(Op);
        if (succeeded(P->matchAndRewrite(Op, *this))) {
          ++Stats.NumRewrites;
          ++NumPatternRewrites;
          Changed = true;
          break; // Op may be gone; revisit via worklist updates.
        }
        ++NumPatternMatchFailures;
      }
    }
    // Forget erased pointers; they may be reused by the allocator.
    Erased.clear();
    return Changed;
  }

  void notifyOpInserted(Operation *Op) override {
    // A new op may reuse the address of a previously erased one.
    Erased.erase(Op);
    addToWorklist(Op);
  }

  void notifyOpErased(Operation *Op) override {
    Erased.insert(Op);
    InWorklist.erase(Op);
  }

  void notifyOpReplaced(Operation *Op,
                        std::span<const Value> NewValues) override {
    // Users of the replaced values may now match new patterns.
    for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
      for (OpOperand *Use = Op->getResult(I).getFirstUse(); Use;
           Use = Use->getNextUse())
        addToWorklist(Use->getOwner());
    (void)NewValues;
  }

public:
  void notifyOpModified(Operation *Op) override { addToWorklist(Op); }

private:
  std::vector<const RewritePattern *> Sorted;
  std::deque<Operation *> Worklist;
  std::unordered_set<Operation *> InWorklist;
  std::unordered_set<Operation *> Erased;
  Operation *CurrentRoot = nullptr;
};

} // namespace

RewriteStatistics irdl::applyPatternsGreedily(
    Operation *Root, const RewritePatternSet &Patterns,
    unsigned MaxIterations) {
  GreedyRewriter Rewriter(Patterns.getContext(), Patterns);
  return Rewriter.run(Root, MaxIterations);
}

unsigned irdl::eraseDeadOps(Operation *Root,
                            const std::vector<std::string> &PureOpNames) {
  unsigned NumErased = 0;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    std::vector<Operation *> Dead;
    Root->walk([&](Operation *Op) {
      if (Op == Root || !Op->use_empty() || Op->getNumResults() == 0)
        return;
      if (std::find(PureOpNames.begin(), PureOpNames.end(),
                    Op->getName().str()) == PureOpNames.end())
        return;
      Dead.push_back(Op);
    });
    for (Operation *Op : Dead) {
      if (!Op->use_empty())
        continue;
      Op->erase();
      ++NumErased;
      Changed = true;
    }
  }
  return NumErased;
}
