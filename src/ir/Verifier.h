//===- Verifier.h - Structural IR verification -------------------*- C++ -*-===//
///
/// \file
/// Structural SSA verification: registration checks, terminator placement,
/// successor sanity, and SSA dominance (including across nested regions),
/// followed by each operation's registered verifier — the one compiled
/// from IRDL constraints for dynamic dialects.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_VERIFIER_H
#define IRDL_IR_VERIFIER_H

#include "ir/Operation.h"

#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace irdl {

class Block;
class Region;

/// Dominator-tree information computed per region on demand
/// (Cooper–Harvey–Kennedy iterative algorithm over a reverse post-order).
/// Same-block queries compare op positions, which the first query in a
/// block numbers in place on its ops. Both caches are valid only while
/// the IR is unchanged, and two DominanceInfos must not query the same
/// block from different threads at once.
class DominanceInfo {
public:
  /// Returns true if \p A dominates \p B (reflexively) within their common
  /// region. Both blocks must be in the same region.
  bool dominates(Block *A, Block *B);

  /// Returns true if the value \p V is usable by operation \p User under
  /// SSA dominance rules, hoisting the user out of nested regions as
  /// needed.
  bool properlyDominates(Value V, Operation *User);

private:
  void computeRegion(Region *R);

  /// Immediate dominator of each processed block (entry maps to itself).
  std::unordered_map<Block *, Block *> IDom;
  std::unordered_map<Region *, bool> Processed;
  /// Blocks whose ops carry their position (Operation::BlockOrderIndex).
  std::unordered_set<const Block *> NumberedBlocks;
  /// The block of the previous same-block query, known to be numbered;
  /// consecutive queries mostly share it and skip the set lookup.
  const Block *LastNumbered = nullptr;
};

/// Verifies \p Op and everything nested within it. Reports problems to
/// \p Diags and returns failure if any were found.
LogicalResult verifyOp(Operation *Op, DiagnosticEngine &Diags);

/// Verifies a batch of independent top-level operations (each recursively),
/// in batch order. The streaming entry point: the server calls this once
/// per arriving VERIFY chunk with that chunk's function-like ops, so
/// verification overlaps with the client still sending later frames.
/// Verification stops after the first failed op, like verifyOp.
LogicalResult verifyOpsIncremental(const std::vector<Operation *> &Ops,
                                   DiagnosticEngine &Diags);

} // namespace irdl

#endif // IRDL_IR_VERIFIER_H
