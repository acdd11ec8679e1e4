//===- Rewrite.cpp --------------------------------------------------===//

#include "ir/Rewrite.h"

#include "ir/Block.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <algorithm>

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
  notifyOpErased(Op);
  Op->erase();
}

Operation *PatternRewriter::createOp(OperationState &State) {
  Operation *Op = create(State);
  notifyOpInserted(Op);
  return Op;
}

namespace irdl {

/// The worklist-driven rewriter behind applyPatternsGreedily. The
/// worklist is a FIFO vector; an op's slot is kept on the op
/// (Operation::WorklistIndex), so queueing and dequeueing cost no hashing,
/// and an erased op's slot is nulled in place, so a new op that takes its
/// address is processed at its own position.
class GreedyRewriter final : public PatternRewriter {
public:
  GreedyRewriter(const RewritePatternSet &Patterns, ChangeSet *Changes)
      : PatternRewriter(Patterns.getContext()), Changes(Changes) {
    std::vector<const RewritePattern *> Sorted;
    for (const auto &P : Patterns.getPatterns())
      Sorted.push_back(P.get());
    std::stable_sort(Sorted.begin(), Sorted.end(),
                     [](const RewritePattern *A, const RewritePattern *B) {
                       return A->getBenefit() > B->getBenefit();
                     });
    // Bucket the patterns by the definition of their root op. A pattern
    // rooted at any op joins every bucket; one rooted at a name no
    // definition resolves joins the buckets of definitions so named. Both
    // kinds are all an op without a bucket tries, the latter by name.
    std::vector<const OpDefinition *> RootDefs;
    for (const RewritePattern *P : Sorted) {
      const std::string &Root = P->getRootName();
      const OpDefinition *Def =
          Root.empty() ? nullptr : getContext()->resolveOpDef(Root);
      RootDefs.push_back(Def);
      if (!Def) {
        Unbucketed.push_back(P);
        continue;
      }
      if (std::none_of(Buckets.begin(), Buckets.end(),
                       [&](const Bucket &B) { return B.Def == Def; }))
        Buckets.push_back({Def, {}});
    }
    for (Bucket &B : Buckets)
      for (size_t I = 0, E = Sorted.size(); I != E; ++I) {
        const std::string &Root = Sorted[I]->getRootName();
        if (RootDefs[I] == B.Def || Root.empty() ||
            (!RootDefs[I] && Root == B.Def->getFullName()))
          B.Patterns.push_back(Sorted[I]);
      }
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

  void notifyOpModified(Operation *Op) override {
    if (Changes)
      Changes->addModified(Op);
    addToWorklist(Op);
  }

  void notifyBlockModified(Block *) override {
    if (Changes)
      Changes->markUnlocalized();
  }

private:
  struct Bucket {
    const OpDefinition *Def;
    std::vector<const RewritePattern *> Patterns;
  };

  /// The patterns \p Op may match, highest benefit first. A bucket holds
  /// exactly those; the unbucketed list still needs the root-name check.
  const std::vector<const RewritePattern *> &patternsFor(
      const Operation *Op) const {
    if (const OpDefinition *Def = Op->getDef())
      for (const Bucket &B : Buckets)
        if (B.Def == Def)
          return B.Patterns;
    return Unbucketed;
  }

  void seedWorklist(Operation *Root) {
    Root->walk([&](Operation *Op) {
      if (Op != Root)
        addToWorklist(Op);
    });
  }

  /// Queues \p Op unless it is queued already or no pattern can match it.
  void addToWorklist(Operation *Op) {
    if (Op->WorklistIndex || patternsFor(Op).empty())
      return;
    Worklist.push_back(Op);
    Op->WorklistIndex = static_cast<uint32_t>(Worklist.size());
  }

  bool processWorklist(RewriteStatistics &Stats) {
    bool Changed = false;
    for (size_t Head = 0; Head != Worklist.size(); ++Head) {
      Operation *Op = Worklist[Head];
      if (!Op)
        continue; // erased while queued
      Op->WorklistIndex = 0;
      const std::vector<const RewritePattern *> &Candidates = patternsFor(Op);
      bool CheckNames = &Candidates == &Unbucketed;
      for (const RewritePattern *P : Candidates) {
        if (CheckNames && !P->getRootName().empty() &&
            P->getRootName() != Op->getName().str())
          continue;
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
    Worklist.clear();
    return Changed;
  }

  void notifyOpInserted(Operation *Op) override {
    if (Changes)
      Changes->addCreated(Op);
    addToWorklist(Op);
  }

  void notifyOpErased(Operation *Op) override {
    Op->walk([&](Operation *Nested) {
      if (uint32_t Index = Nested->WorklistIndex) {
        Worklist[Index - 1] = nullptr;
        Nested->WorklistIndex = 0;
      }
    });
    if (Changes)
      Changes->addErased(Op);
  }

  void notifyOpReplaced(Operation *Op,
                        std::span<const Value> NewValues) override {
    // Users of the replaced values may now match new patterns, and their
    // operands change.
    for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
      for (OpOperand *Use = Op->getResult(I).getFirstUse(); Use;
           Use = Use->getNextUse()) {
        if (Changes)
          Changes->addModified(Use->getOwner());
        addToWorklist(Use->getOwner());
      }
    (void)NewValues;
  }

  std::vector<Bucket> Buckets;
  std::vector<const RewritePattern *> Unbucketed;
  std::vector<Operation *> Worklist;
  ChangeSet *Changes;
};

} // namespace irdl

RewriteStatistics irdl::applyPatternsGreedily(
    Operation *Root, const RewritePatternSet &Patterns,
    unsigned MaxIterations, ChangeSet *Changes) {
  GreedyRewriter Rewriter(Patterns, Changes);
  return Rewriter.run(Root, MaxIterations);
}

unsigned irdl::eraseDeadOps(Operation *Root,
                            const std::function<bool(Operation *)> &IsErasable,
                            ChangeSet *Changes) {
  auto IsDead = [&](Operation *Op) {
    return Op != Root && Op->getNumResults() != 0 && Op->use_empty() &&
           Op->getNumRegions() == 0 && IsErasable(Op);
  };
  std::vector<Operation *> Worklist;
  Root->walk([&](Operation *Op) {
    if (IsDead(Op))
      Worklist.push_back(Op);
  });
  unsigned NumErased = 0;
  while (!Worklist.empty()) {
    Operation *Op = Worklist.back();
    Worklist.pop_back();
    // Drop the operands one by one: a definition turns dead exactly when
    // its last use goes, so it is queued once.
    for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
      Operation *Def = Op->getOperand(I).getDefiningOp();
      Op->setOperand(I, Value());
      if (Def && IsDead(Def))
        Worklist.push_back(Def);
    }
    if (Changes)
      Changes->addErased(Op);
    Op->erase();
    ++NumErased;
  }
  return NumErased;
}

unsigned irdl::eraseDeadOps(Operation *Root,
                            const std::vector<std::string> &PureOpNames) {
  return eraseDeadOps(
      Root,
      [&](Operation *Op) {
        return std::find(PureOpNames.begin(), PureOpNames.end(),
                         Op->getName().str()) != PureOpNames.end();
      },
      nullptr);
}
