//===- Rewrite.h - Pattern rewriting -----------------------------*- C++ -*-===//
///
/// \file
/// A pattern-rewriting framework in the spirit of MLIR's: RewritePattern
/// subclasses match an operation and rewrite it through a PatternRewriter;
/// applyPatternsGreedily drives a worklist to a fixed point. Together with
/// IRDL's dynamic dialect registration this supports the paper's Section 3
/// flow: a pattern-based compilation pipeline over dialects that were never
/// compiled into the binary (the Listing 1 `conorm` optimization).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_REWRITE_H
#define IRDL_IR_REWRITE_H

#include "ir/Builder.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace irdl {

class ChangeSet;

/// Mutation interface handed to patterns. All IR changes made during
/// matchAndRewrite must go through this class (or be reported to it) so
/// the driver can keep its worklist and the pass's change set in sync.
class PatternRewriter : public OpBuilder {
public:
  explicit PatternRewriter(IRContext *Ctx) : OpBuilder(Ctx) {}
  virtual ~PatternRewriter();

  /// Replaces \p Op's results with \p NewValues and erases it.
  void replaceOp(Operation *Op, std::span<const Value> NewValues);
  void replaceOp(Operation *Op, std::initializer_list<Value> NewValues) {
    replaceOp(Op, std::span<const Value>(NewValues.begin(),
                                         NewValues.size()));
  }
  /// Convenience: replace with another op's results.
  void replaceOp(Operation *Op, ResultRange NewValues) {
    replaceOp(Op, NewValues.vec());
  }

  /// Erases \p Op, which must have no uses.
  void eraseOp(Operation *Op);

  /// Creates and inserts an op, notifying the driver.
  Operation *createOp(OperationState &State);

  /// Notifies that \p Op was modified in place.
  virtual void notifyOpModified(Operation *Op) { (void)Op; }

  /// Notifies, before the change, that \p B's arguments are about to
  /// change or that ops are about to move into or out of it. Such a
  /// change is not localized: the verify after the pass checks the whole
  /// root.
  virtual void notifyBlockModified(Block *B) { (void)B; }

protected:
  virtual void notifyOpInserted(Operation *Op) { (void)Op; }
  /// Called once before \p Op is erased, with the ops nested in it still
  /// in place; they are erased with it.
  virtual void notifyOpErased(Operation *Op) { (void)Op; }
  virtual void notifyOpReplaced(Operation *Op,
                                std::span<const Value> NewValues) {
    (void)Op;
    (void)NewValues;
  }
};

/// A rewrite pattern rooted at operations named \p RootName (empty matches
/// any operation).
class RewritePattern {
public:
  RewritePattern(std::string RootName, unsigned Benefit = 1)
      : RootName(std::move(RootName)), Benefit(Benefit) {}
  virtual ~RewritePattern();

  const std::string &getRootName() const { return RootName; }
  unsigned getBenefit() const { return Benefit; }

  /// Attempts to match \p Op and rewrite it. Returns success if the IR was
  /// changed.
  virtual LogicalResult matchAndRewrite(Operation *Op,
                                        PatternRewriter &Rewriter) const = 0;

private:
  std::string RootName;
  unsigned Benefit;
};

/// An owning set of patterns, indexed by root op name.
class RewritePatternSet {
public:
  explicit RewritePatternSet(IRContext *Ctx) : Ctx(Ctx) {}

  IRContext *getContext() const { return Ctx; }

  void add(std::unique_ptr<RewritePattern> Pattern) {
    Patterns.push_back(std::move(Pattern));
  }

  /// Convenience: constructs a pattern of type \p PatternT in place.
  template <typename PatternT, typename... Args>
  void add(Args &&...CtorArgs) {
    Patterns.push_back(
        std::make_unique<PatternT>(std::forward<Args>(CtorArgs)...));
  }

  const std::vector<std::unique_ptr<RewritePattern>> &getPatterns() const {
    return Patterns;
  }

private:
  IRContext *Ctx;
  std::vector<std::unique_ptr<RewritePattern>> Patterns;
};

/// Statistics of one greedy rewrite run.
struct RewriteStatistics {
  unsigned NumRewrites = 0;
  unsigned NumIterations = 0;
  bool Converged = true;
};

/// Applies \p Patterns to \p Root's regions repeatedly (worklist-driven,
/// highest benefit first) until a fixed point or \p MaxIterations sweeps.
/// Each sweep queues, in walk order, the ops some pattern may match.
/// Records what the patterns change into \p Changes when non-null.
RewriteStatistics applyPatternsGreedily(Operation *Root,
                                        const RewritePatternSet &Patterns,
                                        unsigned MaxIterations = 10,
                                        ChangeSet *Changes = nullptr);

/// Erases every op under \p Root (not Root itself) that has results, none
/// of them used, no regions, and for which \p IsErasable holds; then
/// every op that erasing those leaves dead, until none is left. One walk
/// finds the dead ops; erasing an op re-checks the defining ops of its
/// operands. Records the erasures into \p Changes when non-null. Returns
/// the number of erased ops.
unsigned eraseDeadOps(Operation *Root,
                      const std::function<bool(Operation *)> &IsErasable,
                      ChangeSet *Changes);

/// eraseDeadOps for the ops named in \p PureOpNames: conservatively, no
/// op is assumed free of side effects unless listed.
unsigned eraseDeadOps(Operation *Root,
                      const std::vector<std::string> &PureOpNames);

} // namespace irdl

#endif // IRDL_IR_REWRITE_H
