//===- Diagnostics.h - Diagnostic engine ------------------------*- C++ -*-===//
///
/// \file
/// A diagnostic engine shared by the IRDL frontend, the IR textual parser,
/// and the verifiers. Diagnostics carry a severity, a location, a message,
/// and attached notes; the engine renders them with source carets when a
/// SourceMgr is attached, and records them for programmatic inspection
/// (the test suites assert on emitted diagnostics).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_DIAGNOSTICS_H
#define IRDL_SUPPORT_DIAGNOSTICS_H

#include "support/SourceMgr.h"

#include <functional>
#include <string>
#include <vector>

namespace irdl {

enum class Severity { Note, Remark, Warning, Error };

/// Returns a human-readable name ("error", "warning", ...).
std::string_view severityName(Severity S);

/// A single diagnostic: severity, location, message, and notes.
class Diagnostic {
public:
  Diagnostic(Severity S, SMLoc Loc, std::string Message)
      : Sev(S), Loc(Loc), Message(std::move(Message)) {}

  Severity getSeverity() const { return Sev; }
  SMLoc getLocation() const { return Loc; }
  const std::string &getMessage() const { return Message; }

  /// Attaches a note to this diagnostic; returns *this for chaining.
  Diagnostic &attachNote(SMLoc NoteLoc, std::string NoteMessage) {
    Notes.emplace_back(NoteLoc, std::move(NoteMessage));
    return *this;
  }

  const std::vector<std::pair<SMLoc, std::string>> &getNotes() const {
    return Notes;
  }

private:
  Severity Sev;
  SMLoc Loc;
  std::string Message;
  std::vector<std::pair<SMLoc, std::string>> Notes;
};

/// Collects diagnostics and optionally renders them through a handler.
class DiagnosticEngine {
public:
  using HandlerFn = std::function<void(const Diagnostic &)>;

  DiagnosticEngine() = default;
  explicit DiagnosticEngine(const SourceMgr *SrcMgr) : SrcMgr(SrcMgr) {}

  void setSourceMgr(const SourceMgr *SM) { SrcMgr = SM; }
  const SourceMgr *getSourceMgr() const { return SrcMgr; }

  /// Installs a handler invoked for every emitted diagnostic (in addition
  /// to recording it).
  void setHandler(HandlerFn Fn) { Handler = std::move(Fn); }

  /// Emits a diagnostic; returns a reference so notes can be chained.
  Diagnostic &emit(Severity S, SMLoc Loc, std::string Message);

  Diagnostic &emitError(SMLoc Loc, std::string Message) {
    return emit(Severity::Error, Loc, std::move(Message));
  }
  Diagnostic &emitError(std::string Message) {
    return emitError(SMLoc(), std::move(Message));
  }
  Diagnostic &emitWarning(SMLoc Loc, std::string Message) {
    return emit(Severity::Warning, Loc, std::move(Message));
  }
  Diagnostic &emitRemark(SMLoc Loc, std::string Message) {
    return emit(Severity::Remark, Loc, std::move(Message));
  }

  unsigned getNumErrors() const { return NumErrors; }
  bool hadError() const { return NumErrors != 0; }
  void resetErrorCount() { NumErrors = 0; }

  const std::vector<Diagnostic> &getDiagnostics() const { return Diags; }
  void clear() {
    Diags.clear();
    NumErrors = 0;
  }

  /// Renders \p D as text, with a source caret if the engine has a
  /// SourceMgr that knows the location.
  std::string render(const Diagnostic &D) const;

  /// Renders every recorded diagnostic, separated by newlines.
  std::string renderAll() const;

private:
  const SourceMgr *SrcMgr = nullptr;
  HandlerFn Handler;
  std::vector<Diagnostic> Diags;
  unsigned NumErrors = 0;
};

} // namespace irdl

#endif // IRDL_SUPPORT_DIAGNOSTICS_H
