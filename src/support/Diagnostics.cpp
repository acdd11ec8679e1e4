//===- Diagnostics.cpp ----------------------------------------------===//

#include "support/Diagnostics.h"

#include <sstream>

using namespace irdl;

std::string_view irdl::severityName(Severity S) {
  switch (S) {
  case Severity::Note:
    return "note";
  case Severity::Remark:
    return "remark";
  case Severity::Warning:
    return "warning";
  case Severity::Error:
    return "error";
  }
  return "unknown";
}

Diagnostic &DiagnosticEngine::emit(Severity S, SMLoc Loc,
                                   std::string Message) {
  if (S == Severity::Error)
    ++NumErrors;
  Diags.emplace_back(S, Loc, std::move(Message));
  Diagnostic &D = Diags.back();
  if (Handler)
    Handler(D);
  return D;
}

static void renderOne(std::ostringstream &OS, const SourceMgr *SrcMgr,
                      Severity S, SMLoc Loc, const std::string &Message) {
  if (SrcMgr && Loc.isValid()) {
    SMLineAndColumn LC = SrcMgr->getLineAndColumn(Loc);
    if (LC.Line != 0) {
      OS << LC.BufferName << ":" << LC.Line << ":" << LC.Column << ": "
         << severityName(S) << ": " << Message << "\n";
      OS << LC.LineText << "\n";
      for (unsigned I = 1; I < LC.Column; ++I)
        OS << (LC.LineText[I - 1] == '\t' ? '\t' : ' ');
      OS << "^";
      return;
    }
  }
  OS << severityName(S) << ": " << Message;
}

std::string DiagnosticEngine::render(const Diagnostic &D) const {
  std::ostringstream OS;
  renderOne(OS, SrcMgr, D.getSeverity(), D.getLocation(), D.getMessage());
  for (const auto &[NoteLoc, NoteMsg] : D.getNotes()) {
    OS << "\n";
    renderOne(OS, SrcMgr, Severity::Note, NoteLoc, NoteMsg);
  }
  return OS.str();
}

std::string DiagnosticEngine::renderAll() const {
  std::ostringstream OS;
  for (const Diagnostic &D : Diags)
    OS << render(D) << "\n";
  return OS.str();
}
