//===- MetricsOffTest.cpp - Collection off records nothing -----------===//
///
/// Statistics and metrics share one registry and record only while
/// collection is on. The whole pipeline (IRDL load, parse, verify,
/// conorm + dce, .irbc write and read back) runs once with collection
/// off, and no series in the registry may move; the same run with
/// collection on moves the statistics, so the first check is not vacuous.
///
//===----------------------------------------------------------------------===//

#include "bytecode/Bytecode.h"
#include "common/ScopedMetrics.h"
#include "ir/ConormPattern.h"
#include "ir/IRParser.h"
#include "ir/Pass.h"
#include "ir/Verifier.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <vector>

using namespace irdl;

namespace {

/// Every series of the Prometheus exposition mapped to its value.
std::map<std::string, std::string> scrape() {
  std::map<std::string, std::string> Series;
  std::istringstream In(MetricsRegistry::instance().renderPrometheus());
  for (std::string Line; std::getline(In, Line);) {
    if (Line.empty() || Line[0] == '#')
      continue;
    size_t Space = Line.rfind(' ');
    Series[Line.substr(0, Space)] = Line.substr(Space + 1);
  }
  return Series;
}

/// The series whose values differ between \p Before and \p After; a
/// series missing on one side reads 0 there.
std::vector<std::string>
moved(const std::map<std::string, std::string> &Before,
      const std::map<std::string, std::string> &After) {
  auto ValueIn = [](const std::map<std::string, std::string> &M,
                    const std::string &Key) {
    auto It = M.find(Key);
    return It == M.end() ? std::string("0") : It->second;
  };
  std::map<std::string, std::string> Keys = Before;
  Keys.insert(After.begin(), After.end());
  std::vector<std::string> Moved;
  for (const auto &[Key, Unused] : Keys)
    if (ValueIn(Before, Key) != ValueIn(After, Key))
      Moved.push_back(Key);
  return Moved;
}

constexpr const char *ConormSource = R"(
  std.func @conorm(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
      -> f32 {
    %norm_p = cmath.norm %p : f32
    %norm_q = cmath.norm %q : f32
    %pq = std.mulf %norm_p, %norm_q : f32
    %dead = std.constant 1.0 : f32
    std.return %pq : f32
  }
)";

/// Load cmath from text, parse and verify the conorm module, run
/// conorm + dce with verification between passes, write the result (with
/// its specs) as .irbc, and read and verify it in a fresh context.
void runPipeline() {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto Specs = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                     "/cmath.irdl",
                            SrcMgr, Diags);
  ASSERT_NE(Specs, nullptr) << Diags.renderAll();
  OwningOpRef M = parseSourceString(Ctx, ConormSource, SrcMgr, Diags);
  ASSERT_TRUE(static_cast<bool>(M)) << Diags.renderAll();
  ASSERT_TRUE(succeeded(verifyOp(M.get(), Diags))) << Diags.renderAll();

  PassManager PM(&Ctx);
  auto Patterns = std::make_shared<RewritePatternSet>(&Ctx);
  Patterns->add<ConormPattern>();
  PM.addPass<GreedyRewritePass>("conorm", Patterns);
  PM.addPass<DeadCodeEliminationPass>(std::vector<std::string>{},
                                      /*AssumeRegisteredOpsPure=*/true);
  ASSERT_TRUE(succeeded(PM.run(M.get(), Diags))) << Diags.renderAll();

  BytecodeWriter Writer;
  Writer.addModuleSpecs(*Specs);
  Writer.setModule(M.get());
  std::string Bytes = Writer.write();

  IRContext ReadCtx;
  DiagnosticEngine ReadDiags;
  BytecodeReader Reader(ReadCtx, ReadDiags);
  BytecodeReadResult Result;
  ASSERT_TRUE(succeeded(Reader.read(Bytes, Result))) << ReadDiags.renderAll();
  ASSERT_TRUE(static_cast<bool>(Result.Module));
  ASSERT_TRUE(succeeded(verifyOp(Result.Module.get(), ReadDiags)))
      << ReadDiags.renderAll();
}

TEST(MetricsTest, CollectionOffRecordsNothing) {
  {
    ScopedMetricsEnabled Off(false);
    auto Before = scrape();
    runPipeline();
    EXPECT_EQ(moved(Before, scrape()), std::vector<std::string>{});
  }

  // Positive control: with collection on, the same run moves the
  // statistics of every layer it passes through.
  ScopedMetricsEnabled On;
  auto Before = scrape();
  runPipeline();
  std::vector<std::string> Moved = moved(Before, scrape());
  for (const char *Name :
       {"irdl_frontend_dialects_registered_total",
        "irdl_constraint_programs_compiled_total",
        "irdl_parser_buffers_total", "irdl_verify_ops_total",
        "irdl_constraint_program_runs_total", "irdl_dce_ops_erased_total",
        "irdl_rewrite_rewrites_total", "ir_arena_blocks_allocated_total",
        "ir_arena_slabs_allocated_total", "irdl_bytecode_ops_written_total",
        "irdl_reader_ops_total{format=\"bytecode\"}"})
    EXPECT_NE(std::find(Moved.begin(), Moved.end(), Name), Moved.end())
        << Name << " did not move";
}

} // namespace
