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

#include <cstdint>
#include <unordered_map>
#include <vector>

namespace irdl {

class Block;
class Region;

/// Dominator-tree information computed per region on demand
/// (Cooper–Harvey–Kennedy iterative algorithm over a reverse post-order).
/// Same-block queries compare op positions, which the first query in a
/// block numbers in place on its ops, stamping the block with this
/// DominanceInfo's epoch so later queries check one field instead of
/// probing a set. Both caches are valid only while the IR is unchanged,
/// and two DominanceInfos must not query the same block from different
/// threads at once.
class DominanceInfo {
public:
  DominanceInfo();
  /// Adds getNumOpsNumbered() to the Verifier.NumOpsNumbered statistic.
  ~DominanceInfo();
  DominanceInfo(const DominanceInfo &) = delete;
  DominanceInfo &operator=(const DominanceInfo &) = delete;

  /// Returns true if \p A dominates \p B (reflexively) within their common
  /// region. Both blocks must be in the same region.
  bool dominates(Block *A, Block *B);

  /// Returns true if the value \p V is usable by operation \p User under
  /// SSA dominance rules, hoisting the user out of nested regions as
  /// needed.
  bool properlyDominates(Value V, Operation *User);

  /// Operations numbered so far for same-block queries. Each block is
  /// numbered at most once per DominanceInfo, so this never exceeds the
  /// number of ops in the blocks queried.
  uint64_t getNumOpsNumbered() const { return OpsNumbered; }

private:
  void computeRegion(Region *R);
  void numberBlock(Block *B);

  /// Immediate dominator of each processed block (entry maps to itself).
  std::unordered_map<Block *, Block *> IDom;
  std::unordered_map<Region *, bool> Processed;
  /// Process-unique, never 0; a block whose Block::OrderEpoch equals it
  /// carries this DominanceInfo's op positions.
  uint64_t Epoch;
  uint64_t OpsNumbered = 0;
};

/// What one pass changed, so that the verify after it can check only
/// that (the pass manager's verify-each). It records
/// - ops created or modified in place, and the users of replaced values:
///   each gets its own checks (a created op with regions gets its whole
///   body verified, all of it being new);
/// - the parent op of every block whose op list changed: its own checks,
///   which include its IRDL region and terminator constraints, plus the
///   multi-block terminator rule for its regions, without its body.
/// A recorded op that ends its block also records the block's parent op,
/// whose verifier may read its blocks' last ops (`std.func` checks the
/// types its `std.return` returns).
///
/// Membership is an index stored on each recorded op, so an erased op
/// leaves the set at once and no pointer to it remains (the op arena
/// reuses addresses). An op is in at most one ChangeSet at a time.
///
/// A change that cannot be localized makes the set unlocalized: it drops
/// its entries and the next verify checks the whole root. Such changes
/// are an op with successors created, modified or erased (the CFG may
/// have changed), and whatever the recording pass reports it cannot
/// localize, such as a block's arguments changing or ops moving between
/// blocks.
class ChangeSet {
public:
  ChangeSet() = default;
  /// Unmarks the recorded ops, which must still be alive.
  ~ChangeSet() { clear(); }
  ChangeSet(const ChangeSet &) = delete;
  ChangeSet &operator=(const ChangeSet &) = delete;

  /// Records \p Op, changed in place: its operands, attributes or result
  /// types.
  void addModified(Operation *Op);
  /// Records \p Op, just created and inserted, and the block it went to.
  void addCreated(Operation *Op);
  /// Records that \p Op is about to be erased: it and every op nested in
  /// it leave the set, and its block's op list changes.
  void addErased(Operation *Op);

  /// Gives up localizing: drops every entry, and records nothing more.
  void markUnlocalized();
  bool isLocalized() const { return Localized; }

  /// The number of ops the next verify checks itself (entries whose own
  /// checks run; a created op's body is not counted).
  size_t size() const { return NumChecked; }

private:
  friend class Verifier;
  friend LogicalResult verifyChanges(Operation *Root, ChangeSet &Changes,
                                     DiagnosticEngine &Diags);

  enum Flag : uint8_t {
    Own = 1,     ///< run the op's own checks
    Body = 2,    ///< verify everything nested in the op
    Descend = 4, ///< some op nested in this one is recorded
  };
  struct Entry {
    Operation *Op;
    uint8_t Flags;
  };

  /// Unmarks every entry and starts over, localized.
  void clear();
  void mark(Operation *Op, uint8_t Flags);
  /// Records the parent op of \p B, whose op list changed.
  void markBlockChanged(Block *B);
  /// Flags of \p Op, 0 when it is not recorded.
  uint8_t flags(const Operation *Op) const;
  /// Marks every ancestor of a recorded op with Descend, so a walk from
  /// the root can skip the subtrees that hold no change.
  void markAncestors();

  std::vector<Entry> Entries; ///< Op is null once the op left the set
  size_t NumChecked = 0;
  bool Localized = true;
};

/// Verifies \p Op and everything nested within it. Reports problems to
/// \p Diags and returns failure if any were found.
LogicalResult verifyOp(Operation *Op, DiagnosticEngine &Diags);

/// Verifies what \p Changes records under \p Root, in IR walk order, so
/// the first diagnostic is the one verifyOp(Root) would emit. When the
/// changes could not be localized, verifies all of \p Root. Root must
/// have verified before the changes were made.
LogicalResult verifyChanges(Operation *Root, ChangeSet &Changes,
                            DiagnosticEngine &Diags);

/// Verifies a batch of independent top-level operations (each recursively),
/// in batch order. The streaming entry point: the server calls this once
/// per arriving VERIFY chunk with that chunk's function-like ops, so
/// verification overlaps with the client still sending later frames.
/// Verification stops after the first failed op, like verifyOp.
LogicalResult verifyOpsIncremental(const std::vector<Operation *> &Ops,
                                   DiagnosticEngine &Diags);

} // namespace irdl

#endif // IRDL_IR_VERIFIER_H
