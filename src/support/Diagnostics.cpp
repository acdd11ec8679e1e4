//===- Diagnostics.cpp ----------------------------------------------===//

#include "support/Diagnostics.h"

#include <algorithm>
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

/// A source line longer than this prints as a window of this many bytes
/// around the caret, cut ends marked `...`, so that a diagnostic on a
/// hostile one-line input stays small.
constexpr size_t ExcerptWidth = 240;
/// How much of the window at most precedes the caret.
constexpr size_t ExcerptLead = 160;

static void renderOne(std::ostringstream &OS, const SourceMgr *SrcMgr,
                      Severity S, SMLoc Loc, const std::string &Message) {
  if (SrcMgr && Loc.isValid()) {
    SMLineAndColumn LC = SrcMgr->getLineAndColumn(Loc);
    if (LC.Line != 0) {
      OS << LC.BufferName << ":" << LC.Line << ":" << LC.Column << ": "
         << severityName(S) << ": " << Message << "\n";
      std::string_view Line = LC.LineText;
      size_t Caret = LC.Column - 1;
      size_t Begin = 0, End = Line.size();
      if (Line.size() > ExcerptWidth) {
        Begin = Caret > ExcerptLead ? Caret - ExcerptLead : 0;
        End = std::min(Line.size(), Begin + ExcerptWidth);
        Begin = End - ExcerptWidth;
      }
      OS << (Begin ? "..." : "") << Line.substr(Begin, End - Begin)
         << (End < Line.size() ? "..." : "") << "\n"
         << (Begin ? "   " : "");
      for (size_t I = Begin; I < Caret; ++I)
        OS << (I < Line.size() && Line[I] == '\t' ? '\t' : ' ');
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
