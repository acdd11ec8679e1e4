//===- PassInstrumentation.h - Pass observation hooks ------------*- C++ -*-===//
///
/// \file
/// MLIR-style PassInstrumentation: observers attached to a PassManager
/// that are notified around every pipeline, pass, and inter-pass
/// verifier run. Multiple instrumentations may be attached; `before`
/// hooks fire in registration order and `after` hooks in reverse
/// registration order, so instrumentations nest like scopes.
///
/// Hook order for a pipeline of passes P1..Pn with verification enabled:
///
///   runBeforePipeline
///     runBeforeVerifier / runAfterVerifier          (initial verify)
///     runBeforePass(P1) ... runAfterPass(P1)        (or
///                             runAfterPassFailed(P1) on failure)
///     runBeforeVerifier / runAfterVerifier          (verify after P1)
///     ...
///   runAfterPipeline                                (also on failure)
///
/// PassTimingInstrumentation is the bundled implementation that times
/// each pass and verifier run into a TimerGroup (the `--timing` support
/// of irdl_opt).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_PASSINSTRUMENTATION_H
#define IRDL_IR_PASSINSTRUMENTATION_H

#include "support/Timing.h"

#include <cstdint>
#include <vector>

namespace irdl {

class Operation;
class Pass;

/// Callback interface observing pass-pipeline execution. Default
/// implementations do nothing; override the hooks of interest.
class PassInstrumentation {
public:
  virtual ~PassInstrumentation();

  virtual void runBeforePipeline(Operation *Root);
  virtual void runAfterPipeline(Operation *Root);

  virtual void runBeforePass(const Pass *P, Operation *Root);
  virtual void runAfterPass(const Pass *P, Operation *Root);
  /// Called instead of runAfterPass when the pass returns failure.
  virtual void runAfterPassFailed(const Pass *P, Operation *Root);

  virtual void runBeforeVerifier(Operation *Root);
  virtual void runAfterVerifier(Operation *Root, bool Succeeded);
};

/// Times the pipeline, each pass (by name), and each inter-pass verifier
/// run ("verify-each") into a TimerGroup. When constructed without a
/// group it resolves the process-wide active timer group at each
/// pipeline start, so `setActiveTimerGroup` + this instrumentation is
/// all a driver needs for `--timing`.
class PassTimingInstrumentation : public PassInstrumentation {
public:
  explicit PassTimingInstrumentation(TimerGroup *Group = nullptr)
      : FixedGroup(Group) {}

  void runBeforePipeline(Operation *Root) override;
  void runAfterPipeline(Operation *Root) override;
  void runBeforePass(const Pass *P, Operation *Root) override;
  void runAfterPass(const Pass *P, Operation *Root) override;
  void runAfterPassFailed(const Pass *P, Operation *Root) override;
  void runBeforeVerifier(Operation *Root) override;
  void runAfterVerifier(Operation *Root, bool Succeeded) override;

private:
  struct OpenScope {
    TimerGroup::Node *Node;
    uint64_t StartNs;
  };

  void open(std::string_view Name);
  void close();

  TimerGroup *FixedGroup;
  TimerGroup *Group = nullptr; // resolved for the current pipeline
  std::vector<OpenScope> Open;
};

/// Records a per-pass wall-time histogram (`irdl_pass_duration_ns`
/// labeled by pass name, plus a `verify-each` series for inter-pass
/// verifier runs) into the process-wide MetricsRegistry. Attach alongside
/// PassTimingInstrumentation; records only while metricsEnabled(), so it
/// is safe to attach unconditionally.
class MetricsInstrumentation : public PassInstrumentation {
public:
  void runBeforePass(const Pass *P, Operation *Root) override;
  void runAfterPass(const Pass *P, Operation *Root) override;
  void runAfterPassFailed(const Pass *P, Operation *Root) override;
  void runBeforeVerifier(Operation *Root) override;
  void runAfterVerifier(Operation *Root, bool Succeeded) override;

private:
  void finish(std::string_view PassName);

  /// Start stack: passes and verifier runs nest strictly.
  std::vector<uint64_t> StartNs;
};

} // namespace irdl

#endif // IRDL_IR_PASSINSTRUMENTATION_H
