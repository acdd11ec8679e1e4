//===- DiagnosticsTest.cpp --------------------------------------------===//

#include "support/Diagnostics.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

TEST(DiagnosticsTest, EmitAndCount) {
  DiagnosticEngine Engine;
  Engine.emitError(SMLoc(), "bad thing");
  Engine.emitWarning(SMLoc(), "odd thing");
  EXPECT_EQ(Engine.getNumErrors(), 1u);
  EXPECT_TRUE(Engine.hadError());
  EXPECT_EQ(Engine.getDiagnostics().size(), 2u);
  EXPECT_EQ(Engine.getDiagnostics()[0].getMessage(), "bad thing");
  EXPECT_EQ(Engine.getDiagnostics()[0].getSeverity(), Severity::Error);
  EXPECT_EQ(Engine.getDiagnostics()[1].getSeverity(), Severity::Warning);
}

TEST(DiagnosticsTest, Handler) {
  DiagnosticEngine Engine;
  int Calls = 0;
  Engine.setHandler([&](const Diagnostic &) { ++Calls; });
  Engine.emitError(SMLoc(), "x");
  Engine.emitRemark(SMLoc(), "y");
  EXPECT_EQ(Calls, 2);
}

TEST(DiagnosticsTest, Notes) {
  DiagnosticEngine Engine;
  Engine.emitError(SMLoc(), "main").attachNote(SMLoc(), "see here");
  ASSERT_EQ(Engine.getDiagnostics().size(), 1u);
  EXPECT_EQ(Engine.getDiagnostics()[0].getNotes().size(), 1u);
  EXPECT_EQ(Engine.getDiagnostics()[0].getNotes()[0].second, "see here");
}

TEST(DiagnosticsTest, RenderWithoutSourceMgr) {
  DiagnosticEngine Engine;
  Diagnostic &D = Engine.emitError(SMLoc(), "oops");
  EXPECT_EQ(Engine.render(D), "error: oops");
}

TEST(DiagnosticsTest, RenderWithCaret) {
  SourceMgr SM;
  unsigned Id = SM.addBuffer("Dialect cmath {\n  Typo x\n}", "spec.irdl");
  DiagnosticEngine Engine(&SM);
  std::string_view Contents = SM.getBufferContents(Id);
  // Points at "Typo".
  SMLoc Loc = SMLoc::getFromPointer(Contents.data() + 18);
  Diagnostic &D = Engine.emitError(Loc, "unknown directive");
  std::string Rendered = Engine.render(D);
  EXPECT_NE(Rendered.find("spec.irdl:2:3: error: unknown directive"),
            std::string::npos);
  EXPECT_NE(Rendered.find("  Typo x"), std::string::npos);
  EXPECT_NE(Rendered.find("  ^"), std::string::npos);
}

TEST(DiagnosticsTest, LongLinesRenderAWindowAroundTheCaret) {
  SourceMgr SM;
  // 1,000 bytes on one line: the excerpt keeps 240 of them, 160 before
  // the caret, and marks both cut ends.
  std::string Line;
  for (unsigned I = 0; I != 100; ++I)
    Line += "abcdefghi" + std::to_string(I % 10);
  unsigned Id = SM.addBuffer(Line + "\nnext", "long.irdl");
  DiagnosticEngine Engine(&SM);
  std::string_view Contents = SM.getBufferContents(Id);
  auto RenderAt = [&](size_t Offset) {
    return Engine.render(Engine.emitError(
        SMLoc::getFromPointer(Contents.data() + Offset), "here"));
  };
  EXPECT_EQ(RenderAt(500),
            "long.irdl:1:501: error: here\n..." + Line.substr(340, 240) +
                "...\n" + std::string(163, ' ') + "^");
  // Near either end the window stays full width and one end is uncut.
  EXPECT_EQ(RenderAt(3), "long.irdl:1:4: error: here\n" +
                             Line.substr(0, 240) + "...\n   ^");
  EXPECT_EQ(RenderAt(999), "long.irdl:1:1000: error: here\n..." +
                               Line.substr(760) + "\n" +
                               std::string(3 + 239, ' ') + "^");
  // A line of at most 240 bytes prints whole.
  unsigned Short = SM.addBuffer(Line.substr(0, 240), "short.irdl");
  EXPECT_EQ(Engine.render(Engine.emitError(
                SMLoc::getFromPointer(SM.getBufferContents(Short).data() +
                                      239),
                "end")),
            "short.irdl:1:240: error: end\n" + Line.substr(0, 240) + "\n" +
                std::string(239, ' ') + "^");
}

TEST(DiagnosticsTest, ResetAndClear) {
  DiagnosticEngine Engine;
  Engine.emitError(SMLoc(), "x");
  Engine.resetErrorCount();
  EXPECT_FALSE(Engine.hadError());
  EXPECT_EQ(Engine.getDiagnostics().size(), 1u);
  Engine.clear();
  EXPECT_TRUE(Engine.getDiagnostics().empty());
}

TEST(DiagnosticsTest, SeverityNames) {
  EXPECT_EQ(severityName(Severity::Error), "error");
  EXPECT_EQ(severityName(Severity::Warning), "warning");
  EXPECT_EQ(severityName(Severity::Note), "note");
  EXPECT_EQ(severityName(Severity::Remark), "remark");
}

TEST(DiagnosticsTest, RenderAll) {
  DiagnosticEngine Engine;
  Engine.emitError(SMLoc(), "one");
  Engine.emitWarning(SMLoc(), "two");
  std::string All = Engine.renderAll();
  EXPECT_NE(All.find("error: one"), std::string::npos);
  EXPECT_NE(All.find("warning: two"), std::string::npos);
}

} // namespace
