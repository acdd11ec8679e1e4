//===- Verifier.cpp -------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <algorithm>
#include <atomic>

using namespace irdl;

IRDL_STATISTIC(Verifier, NumVerifierRuns, "irdl_verify_runs_total",
               "entry-point structural verifications");
IRDL_STATISTIC(Verifier, NumOpsVerified, "irdl_verify_ops_total",
               "operations structurally verified");
IRDL_STATISTIC(Verifier, NumOpsNumbered,
               "irdl_verify_ops_numbered_total",
               "operations numbered for same-block dominance");

//===----------------------------------------------------------------------===//
// DominanceInfo
//===----------------------------------------------------------------------===//

namespace {
/// Reverse post-order over the blocks of a region, from the entry block.
/// Unreachable blocks are appended at the end (they dominate nothing).
std::vector<Block *> computeRPO(Region *R) {
  std::vector<Block *> PostOrder;
  std::unordered_map<Block *, bool> Visited;
  // Iterative DFS.
  if (!R->empty()) {
    std::vector<std::pair<Block *, unsigned>> Stack;
    Stack.emplace_back(&R->front(), 0);
    Visited[&R->front()] = true;
    while (!Stack.empty()) {
      auto &[B, NextSucc] = Stack.back();
      SuccessorRange Succs = B->getSuccessors();
      if (NextSucc < Succs.size()) {
        Block *S = Succs[NextSucc++];
        if (!Visited[S]) {
          Visited[S] = true;
          Stack.emplace_back(S, 0);
        }
        continue;
      }
      PostOrder.push_back(B);
      Stack.pop_back();
    }
  }
  std::reverse(PostOrder.begin(), PostOrder.end());
  for (Block &B : *R)
    if (!Visited[&B])
      PostOrder.push_back(&B);
  return PostOrder;
}
} // namespace

DominanceInfo::DominanceInfo() {
  static std::atomic<uint64_t> NextEpoch{1};
  Epoch = NextEpoch.fetch_add(1, std::memory_order_relaxed);
}

DominanceInfo::~DominanceInfo() { NumOpsNumbered += OpsNumbered; }

void DominanceInfo::numberBlock(Block *B) {
  uint32_t Index = 0;
  for (Operation &Op : *B)
    Op.BlockOrderIndex = Index++;
  B->OrderEpoch = Epoch;
  OpsNumbered += Index;
}

void DominanceInfo::computeRegion(Region *R) {
  if (Processed[R])
    return;
  Processed[R] = true;

  std::vector<Block *> RPO = computeRPO(R);
  std::unordered_map<Block *, unsigned> Order;
  for (unsigned I = 0, E = RPO.size(); I != E; ++I)
    Order[RPO[I]] = I;

  // Predecessor map.
  std::unordered_map<Block *, std::vector<Block *>> Preds;
  for (Block &B : *R)
    for (Block *S : B.getSuccessors())
      Preds[S].push_back(&B);

  if (RPO.empty())
    return;
  Block *Entry = RPO.front();
  IDom[Entry] = Entry;

  auto Intersect = [&](Block *A, Block *B) {
    while (A != B) {
      while (Order[A] > Order[B]) {
        A = IDom[A];
      }
      while (Order[B] > Order[A]) {
        B = IDom[B];
      }
    }
    return A;
  };

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (Block *B : RPO) {
      if (B == Entry)
        continue;
      Block *NewIDom = nullptr;
      for (Block *P : Preds[B]) {
        if (!IDom.count(P))
          continue;
        NewIDom = NewIDom ? Intersect(NewIDom, P) : P;
      }
      if (!NewIDom) {
        // Unreachable block: treat the entry as its dominator so lookups
        // terminate; dominance queries against it conservatively fail.
        NewIDom = Entry;
      }
      auto It = IDom.find(B);
      if (It == IDom.end() || It->second != NewIDom) {
        IDom[B] = NewIDom;
        Changed = true;
      }
    }
  }
}

bool DominanceInfo::dominates(Block *A, Block *B) {
  assert(A->getParent() == B->getParent() &&
         "dominance query across regions");
  computeRegion(A->getParent());
  Block *Cur = B;
  while (true) {
    if (Cur == A)
      return true;
    auto It = IDom.find(Cur);
    if (It == IDom.end() || It->second == Cur)
      return Cur == A;
    Cur = It->second;
  }
}

bool DominanceInfo::properlyDominates(Value V, Operation *User) {
  // Null for a block argument (and a null value).
  Operation *DefOp = V.getDefiningOp();
  Block *DefBlock = DefOp ? DefOp->getBlock() : V.getOwnerBlock();
  if (!DefBlock)
    return false;
  Region *DefRegion = DefBlock->getParent();

  // Hoist the user up until it lives in the same region as the definition
  // (values are visible inside nested regions).
  Operation *ScopedUser = User;
  while (ScopedUser && ScopedUser->getBlock() &&
         ScopedUser->getBlock()->getParent() != DefRegion)
    ScopedUser = ScopedUser->getParentOp();
  if (!ScopedUser || !ScopedUser->getBlock())
    return false;
  Block *UseBlock = ScopedUser->getBlock();

  if (DefBlock == UseBlock) {
    // Block arguments dominate every op in the block.
    if (!DefOp)
      return true;
    if (DefOp == ScopedUser)
      // An op does not dominate itself — unless the original user was
      // nested inside one of its regions... which would be a use-before-
      // def of its own result; reject.
      return false;
    if (UseBlock->OrderEpoch != Epoch)
      numberBlock(UseBlock);
    return DefOp->BlockOrderIndex < ScopedUser->BlockOrderIndex;
  }
  return dominates(DefBlock, UseBlock);
}

//===----------------------------------------------------------------------===//
// Structural verification
//===----------------------------------------------------------------------===//

namespace irdl {
class Verifier {
public:
  Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}
  /// Statistics are shared atomics: one add per walk, not one per op.
  ~Verifier() { NumOpsVerified += OpsVerified; }

  LogicalResult verify(Operation *Op) {
    // Per-function latency distribution: isolated-from-above ops are the
    // function-like grain.
    const OpDefinition *Def = Op->getDef();
    if (metricsEnabled() && Def && Def->isIsolatedFromAbove()) {
      static Histogram &FuncLatency = MetricsRegistry::instance().getHistogram(
          "irdl_verify_function_duration_ns",
          "wall time verifying one isolated-from-above operation");
      uint64_t Begin = steadyNowNs();
      LogicalResult Result = verifyImpl(Op);
      FuncLatency.record(steadyNowNs() - Begin);
      return Result;
    }
    return verifyImpl(Op);
  }

  /// Visits \p Op and the recorded ops nested in it in walk order,
  /// interleaving the checks exactly as verify() does, so the first
  /// failure is the one a full verify would report.
  LogicalResult verifyChanged(Operation *Op, const ChangeSet &Changes) {
    uint8_t Flags = Changes.flags(Op);
    if (Flags & ChangeSet::Body)
      return verify(Op);
    bool Own = Flags & ChangeSet::Own;
    bool Descend = Flags & ChangeSet::Descend;
    if (Own && failed(verifyOpItself(Op)))
      return failure();
    if (!Descend && !Own)
      return success();
    for (Region &R : Op->getRegions()) {
      bool MultiBlock = R.getNumBlocks() > 1;
      for (Block &B : R) {
        if (Own && MultiBlock && failed(verifyBlockEnd(B)))
          return failure();
        if (Descend)
          for (Operation &Nested : B)
            if (Changes.flags(&Nested) &&
                failed(verifyChanged(&Nested, Changes)))
              return failure();
      }
    }
    return success();
  }

private:
  LogicalResult verifyImpl(Operation *Op) {
    if (failed(verifyOpItself(Op)))
      return failure();
    for (Region &R : Op->getRegions())
      if (failed(verifyRegion(R)))
        return failure();
    return success();
  }

  LogicalResult verifyOpItself(Operation *Op) {
    ++OpsVerified;
    for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
      if (!Op->getResult(I).getType()) {
        Diags.emitError(Op->getLoc(), "operation '" + Op->getName().str() +
                                          "' has a null result type");
        return failure();
      }

    const OpDefinition *Def = Op->getDef();
    if (!Def) {
      // Unregistered operations are only structural; acceptability was
      // decided at creation/parse time.
    } else {
      if (auto ExpectedSucc = Def->getNumSuccessors()) {
        if (Op->getNumSuccessors() != *ExpectedSucc) {
          Diags.emitError(Op->getLoc(),
                          "'" + Op->getName().str() + "' expects " +
                              std::to_string(*ExpectedSucc) +
                              " successors but has " +
                              std::to_string(Op->getNumSuccessors()));
          return failure();
        }
      }
    }

    if (Op->getNumSuccessors() != 0 && !Op->isTerminator()) {
      Diags.emitError(Op->getLoc(),
                      "only terminator operations may have successors");
      return failure();
    }

    if (Op->isTerminator() && Op->getBlock() &&
        Op->getBlock()->getTerminator() != Op) {
      Diags.emitError(Op->getLoc(), "terminator '" + Op->getName().str() +
                                        "' must be the last operation of "
                                        "its block");
      return failure();
    }

    // Successors must be blocks of the same region.
    if (Op->getNumSuccessors()) {
      Region *Parent =
          Op->getBlock() ? Op->getBlock()->getParent() : nullptr;
      for (unsigned I = 0, E = Op->getNumSuccessors(); I != E; ++I) {
        Block *Succ = Op->getSuccessor(I);
        if (!Succ || Succ->getParent() != Parent) {
          Diags.emitError(Op->getLoc(),
                          "successor does not belong to the same region");
          return failure();
        }
      }
    }

    // SSA dominance for each operand.
    for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
      Value V = Op->getOperand(I);
      if (!V) {
        Diags.emitError(Op->getLoc(), "operation '" + Op->getName().str() +
                                          "' has a null operand");
        return failure();
      }
      if (!Dom.properlyDominates(V, Op)) {
        Diags.emitError(Op->getLoc(),
                        "operand #" + std::to_string(I) + " of '" +
                            Op->getName().str() +
                            "' does not dominate its use");
        return failure();
      }
    }

    // Registered (IRDL-generated or native) verifier.
    if (Def && Def->getVerifier())
      if (failed(Def->getVerifier()(Op, Diags)))
        return failure();

    return success();
  }

  LogicalResult verifyRegion(Region &R) {
    bool MultiBlock = R.getNumBlocks() > 1;
    for (Block &B : R) {
      if (MultiBlock && failed(verifyBlockEnd(B)))
        return failure();
      for (Operation &Op : B)
        if (failed(verify(&Op)))
          return failure();
    }
    return success();
  }

  /// The rule for a block of a multi-block region.
  LogicalResult verifyBlockEnd(Block &B) {
    if (!B.empty() && B.back().isTerminator())
      return success();
    SMLoc Loc = B.empty() ? SMLoc() : B.back().getLoc();
    Diags.emitError(Loc, "block in a multi-block region must end "
                         "with a terminator operation");
    return failure();
  }

  DiagnosticEngine &Diags;
  DominanceInfo Dom;
  uint64_t OpsVerified = 0;
};
} // namespace irdl

//===----------------------------------------------------------------------===//
// ChangeSet
//===----------------------------------------------------------------------===//

void ChangeSet::mark(Operation *Op, uint8_t Flags) {
  if (uint32_t Index = Op->ChangeIndex) {
    Entry &E = Entries[Index - 1];
    if ((Flags & Own) && !(E.Flags & Own))
      ++NumChecked;
    E.Flags |= Flags;
    return;
  }
  Entries.push_back({Op, Flags});
  Op->ChangeIndex = static_cast<uint32_t>(Entries.size());
  if (Flags & Own)
    ++NumChecked;
}

uint8_t ChangeSet::flags(const Operation *Op) const {
  uint32_t Index = Op->ChangeIndex;
  return Index ? Entries[Index - 1].Flags : 0;
}

void ChangeSet::markBlockChanged(Block *B) {
  if (Operation *Parent = B->getParentOp())
    mark(Parent, Own);
}

void ChangeSet::addModified(Operation *Op) {
  if (!Localized)
    return;
  if (Op->getNumSuccessors()) {
    markUnlocalized(); // its successors may have changed
    return;
  }
  mark(Op, Own);
  if (Block *B = Op->getBlock(); B && !Op->getNextNode())
    markBlockChanged(B);
}

void ChangeSet::addCreated(Operation *Op) {
  if (!Localized)
    return;
  if (Op->getNumSuccessors()) {
    markUnlocalized(); // new CFG edges
    return;
  }
  mark(Op, Op->getNumRegions() ? Own | Body : Own);
  Block *B = Op->getBlock();
  if (!B)
    return;
  markBlockChanged(B);
  // An op appended after a terminator makes that terminator misplaced.
  if (!Op->getNextNode())
    if (Operation *Prev = Op->getPrevNode())
      mark(Prev, Own);
}

void ChangeSet::addErased(Operation *Op) {
  if (Localized) {
    if (Op->getNumSuccessors())
      markUnlocalized(); // removed CFG edges
    else if (Block *B = Op->getBlock())
      markBlockChanged(B);
  }
  if (Entries.empty())
    return;
  Op->walk([&](Operation *Nested) {
    uint32_t Index = Nested->ChangeIndex;
    if (!Index)
      return;
    Entry &E = Entries[Index - 1];
    if (E.Flags & Own)
      --NumChecked;
    E.Op = nullptr;
    Nested->ChangeIndex = 0;
  });
}

void ChangeSet::markUnlocalized() {
  clear();
  Localized = false;
}

void ChangeSet::clear() {
  for (const Entry &E : Entries)
    if (E.Op)
      E.Op->ChangeIndex = 0;
  Entries.clear();
  NumChecked = 0;
  Localized = true;
}

void ChangeSet::markAncestors() {
  // Each climb goes to the top or to an ancestor already marked, whose
  // own climb went to the top.
  for (size_t I = 0; I != Entries.size(); ++I) {
    Operation *Op = Entries[I].Op;
    if (!Op)
      continue;
    for (Operation *P = Op->getParentOp(); P; P = P->getParentOp()) {
      if (flags(P) & Descend)
        break;
      mark(P, Descend);
    }
  }
}

LogicalResult irdl::verifyChanges(Operation *Root, ChangeSet &Changes,
                                  DiagnosticEngine &Diags) {
  if (!Changes.isLocalized())
    return verifyOp(Root, Diags);
  IRDL_TIME_SCOPE("verify");
  ++NumVerifierRuns;
  Changes.markAncestors();
  return Verifier(Diags).verifyChanged(Root, Changes);
}

LogicalResult irdl::verifyOpsIncremental(const std::vector<Operation *> &Ops,
                                         DiagnosticEngine &Diags) {
  IRDL_TIME_SCOPE("verify-incremental");
  Verifier V(Diags);
  for (Operation *Op : Ops)
    if (failed(V.verify(Op)))
      return failure();
  return success();
}

LogicalResult irdl::verifyOp(Operation *Op, DiagnosticEngine &Diags) {
  IRDL_TIME_SCOPE("verify");
  ++NumVerifierRuns;
  return Verifier(Diags).verify(Op);
}

LogicalResult Operation::verify(DiagnosticEngine &Diags) {
  return verifyOp(this, Diags);
}
