//===- Verifier.cpp -------------------------------------------------===//

#include "ir/Verifier.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <algorithm>

using namespace irdl;

IRDL_STATISTIC(Verifier, NumVerifierRuns,
               "entry-point structural verifications");
IRDL_STATISTIC(Verifier, NumOpsVerified,
               "operations structurally verified");

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
  Block *DefBlock = V.getParentBlock();
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
    if (V.isBlockArgument())
      return true;
    Operation *DefOp = V.getDefiningOp();
    if (DefOp == ScopedUser)
      // An op does not dominate itself — unless the original user was
      // nested inside one of its regions... which would be a use-before-
      // def of its own result; reject.
      return false;
    if (UseBlock != LastNumbered) {
      if (NumberedBlocks.insert(UseBlock).second) {
        uint32_t Index = 0;
        for (Operation &Op : *UseBlock)
          Op.BlockOrderIndex = Index++;
      }
      LastNumbered = UseBlock;
    }
    return DefOp->BlockOrderIndex < ScopedUser->BlockOrderIndex;
  }
  return dominates(DefBlock, UseBlock);
}

//===----------------------------------------------------------------------===//
// Structural verification
//===----------------------------------------------------------------------===//

namespace {
class Verifier {
public:
  Verifier(DiagnosticEngine &Diags) : Diags(Diags) {}

  LogicalResult verify(Operation *Op) {
    // Per-function latency distribution: isolated-from-above ops are the
    // function-like grain.
    if (metricsEnabled() && Op->isIsolatedFromAbove()) {
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
    ++NumOpsVerified;
    IRContext *Ctx = nullptr;
    for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I)
      if (!Op->getResult(I).getType()) {
        Diags.emitError(Op->getLoc(), "operation '" + Op->getName().str() +
                                          "' has a null result type");
        return failure();
      }

    const OpDefinition *Def = Op->getDef();
    if (Def)
      Ctx = Def->getDialect()->getContext();

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

    (void)Ctx;
    return success();
  }

  LogicalResult verifyRegion(Region &R) {
    bool MultiBlock = R.getNumBlocks() > 1;
    for (Block &B : R) {
      if (MultiBlock) {
        if (B.empty() || !B.back().isTerminator()) {
          SMLoc Loc = B.empty() ? SMLoc() : B.back().getLoc();
          Diags.emitError(Loc, "block in a multi-block region must end "
                               "with a terminator operation");
          return failure();
        }
      }
      for (Operation &Op : B)
        if (failed(verify(&Op)))
          return failure();
    }
    return success();
  }

  DiagnosticEngine &Diags;
  DominanceInfo Dom;
};
} // namespace

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
