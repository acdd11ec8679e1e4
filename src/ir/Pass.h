//===- Pass.h - Pass manager --------------------------------------*- C++ -*-===//
///
/// \file
/// A small pass-management layer over the IR: passes transform a root
/// operation; the PassManager sequences them with optional inter-pass
/// verification. Together with dynamically loaded dialects and the
/// pattern rewriter this forms the "simple pattern-based compilation
/// flow ... without the need for additional C++ code" of Section 3.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_PASS_H
#define IRDL_IR_PASS_H

#include "ir/PassInstrumentation.h"
#include "ir/Rewrite.h"

#include <functional>
#include <memory>
#include <string>
#include <vector>

namespace irdl {

class ChangeSet;

/// An IR-to-IR transformation rooted at one operation.
class Pass {
public:
  virtual ~Pass();

  /// A stable, command-line-friendly name ("dce", "canonicalize", ...).
  virtual std::string_view getName() const = 0;

  /// Transforms \p Root in place. Failure aborts the pipeline.
  virtual LogicalResult run(Operation *Root, DiagnosticEngine &Diags) = 0;

  /// Runs the pass and records what it changed into \p Changes, which the
  /// pass manager's verify-each then checks instead of the whole root.
  /// The default runs run() and marks \p Changes unlocalized, so a pass
  /// that does not override this gets a full verify.
  virtual LogicalResult runAndRecord(Operation *Root, DiagnosticEngine &Diags,
                                     ChangeSet &Changes);
};

/// A pass that runs independently on each "function" directly under the
/// root (by default: any direct child op with at least one region), in
/// source order, stopping at the first function that fails.
class FunctionPass : public Pass {
public:
  /// Transforms one function root. Must not touch IR outside \p Func.
  virtual LogicalResult runOnFunction(Operation *Func,
                                      DiagnosticEngine &Diags) = 0;

  /// Which direct children of the pipeline root count as functions.
  /// Defaults to "has a region".
  virtual bool isFunctionLike(Operation *Op) const {
    return Op->getNumRegions() != 0;
  }

  /// Drives runOnFunction over the root's functions; not overridable.
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags) final;
};

/// Wraps a callable as a FunctionPass (handy in tests and tools).
class LambdaFunctionPass : public FunctionPass {
public:
  using FnT = std::function<LogicalResult(Operation *, DiagnosticEngine &)>;

  LambdaFunctionPass(std::string PassName, FnT Fn)
      : PassName(std::move(PassName)), Fn(std::move(Fn)) {}

  std::string_view getName() const override { return PassName; }
  LogicalResult runOnFunction(Operation *Func,
                              DiagnosticEngine &Diags) override {
    return Fn(Func, Diags);
  }

private:
  std::string PassName;
  FnT Fn;
};

/// Statistics of a pipeline run. Collected through a bundled
/// PassInstrumentation; kept as a plain struct for existing consumers.
struct PassPipelineStatistics {
  unsigned PassesRun = 0;
  bool VerificationFailed = false;
  std::string FailedPass;
};

/// Runs passes in sequence, verifying the IR between passes (and before
/// the first) unless disabled. The verify before the first pass checks the
/// whole root; the verify after a pass checks what the pass recorded
/// changing (Pass::runAndRecord), or the whole root when it recorded
/// nothing it could localize.
class PassManager {
public:
  explicit PassManager(IRContext *Ctx) : Ctx(Ctx) {}

  IRContext *getContext() const { return Ctx; }

  void addPass(std::unique_ptr<Pass> P) {
    Passes.push_back(std::move(P));
  }
  template <typename PassT, typename... Args>
  void addPass(Args &&...CtorArgs) {
    Passes.push_back(std::make_unique<PassT>(
        std::forward<Args>(CtorArgs)...));
  }

  void enableVerifier(bool Enable = true) { VerifyEach = Enable; }
  bool isVerifierEnabled() const { return VerifyEach; }

  /// Attaches an observer notified around passes and verifier runs; see
  /// PassInstrumentation.h for the hook order guarantees.
  void addInstrumentation(std::unique_ptr<PassInstrumentation> PI) {
    Instrumentations.push_back(std::move(PI));
  }
  template <typename InstT, typename... Args>
  void addInstrumentation(Args &&...CtorArgs) {
    Instrumentations.push_back(
        std::make_unique<InstT>(std::forward<Args>(CtorArgs)...));
  }

  size_t size() const { return Passes.size(); }
  const std::vector<std::unique_ptr<Pass>> &getPasses() const {
    return Passes;
  }

  /// Runs the pipeline; fills \p Stats when non-null.
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags,
                    PassPipelineStatistics *Stats = nullptr);

private:
  IRContext *Ctx;
  std::vector<std::unique_ptr<Pass>> Passes;
  std::vector<std::unique_ptr<PassInstrumentation>> Instrumentations;
  bool VerifyEach = true;
};

//===----------------------------------------------------------------------===//
// Builtin passes
//===----------------------------------------------------------------------===//

/// Erases result-producing operations whose results are unused. Ops with
/// regions or successors, terminators, and unregistered ops are never
/// touched; beyond that, deletion requires the op's name to be listed as
/// pure OR AssumeRegisteredOpsPure.
class DeadCodeEliminationPass : public Pass {
public:
  explicit DeadCodeEliminationPass(std::vector<std::string> PureOps = {},
                                   bool AssumeRegisteredOpsPure = false)
      : PureOps(std::move(PureOps)),
        AssumeRegisteredOpsPure(AssumeRegisteredOpsPure) {}

  std::string_view getName() const override { return "dce"; }
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags) override;
  LogicalResult runAndRecord(Operation *Root, DiagnosticEngine &Diags,
                             ChangeSet &Changes) override;

  unsigned getNumErased() const { return NumErased; }

private:
  void eliminate(Operation *Root, ChangeSet *Changes);

  std::vector<std::string> PureOps;
  bool AssumeRegisteredOpsPure;
  unsigned NumErased = 0;
};

/// Applies a rewrite pattern set greedily to a fixed point.
class GreedyRewritePass : public Pass {
public:
  GreedyRewritePass(std::string PassName,
                    std::shared_ptr<RewritePatternSet> Patterns)
      : PassName(std::move(PassName)), Patterns(std::move(Patterns)) {}

  std::string_view getName() const override { return PassName; }
  LogicalResult run(Operation *Root, DiagnosticEngine &Diags) override;
  LogicalResult runAndRecord(Operation *Root, DiagnosticEngine &Diags,
                             ChangeSet &Changes) override;

  const RewriteStatistics &getLastStatistics() const { return LastStats; }

private:
  LogicalResult rewrite(Operation *Root, DiagnosticEngine &Diags,
                        ChangeSet *Changes);

  std::string PassName;
  std::shared_ptr<RewritePatternSet> Patterns;
  RewriteStatistics LastStats;
};

} // namespace irdl

#endif // IRDL_IR_PASS_H
