//===- cmath_opt.cpp - The paper's Listing 1, end to end ------------------===//
///
/// Loads the cmath dialect from dialects/cmath.irdl, parses the `conorm`
/// function of Listing 1a, and applies the domain-specific peephole the
/// paper motivates: |p|*|q| = |p*q|, i.e.
///     mulf(norm(p), norm(q))  =>  norm(mul(p, q))
/// using the dynamic pattern-rewriting flow of Section 3 — without any
/// compiled-in knowledge of cmath.
///
/// Run: build/examples/cmath_opt [path/to/cmath.irdl]

#include "ir/Block.h"
#include "ir/ConormPattern.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Rewrite.h"
#include "irdl/IRDL.h"

#include <iostream>

using namespace irdl;

int main(int argc, char **argv) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);

  std::string Path = argc > 1
                         ? argv[1]
                         : std::string(IRDL_DIALECTS_DIR) + "/cmath.irdl";
  auto Module = loadIRDLFile(Ctx, Path, SrcMgr, Diags);
  if (!Module) {
    std::cerr << Diags.renderAll();
    return 1;
  }

  // Listing 1a: the unoptimized conorm.
  const char *Input = R"(
    std.func @conorm(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
        -> f32 {
      %norm_p = cmath.norm %p : f32
      %norm_q = cmath.norm %q : f32
      %pq = std.mulf %norm_p, %norm_q : f32
      std.return %pq : f32
    }
  )";
  OwningOpRef M = parseSourceString(Ctx, Input, SrcMgr, Diags);
  if (!M) {
    std::cerr << Diags.renderAll();
    return 1;
  }
  DiagnosticEngine V;
  if (failed(M->verify(V))) {
    std::cerr << V.renderAll();
    return 1;
  }

  std::cout << "before optimization (Listing 1a):\n"
            << printOpToString(M.get()) << "\n\n";

  RewritePatternSet Patterns(&Ctx);
  Patterns.add<ConormPattern>();
  RewriteStatistics Stats = applyPatternsGreedily(M.get(), Patterns);
  unsigned Erased = eraseDeadOps(M.get(), {"cmath.norm", "cmath.mul"});

  std::cout << "applied " << Stats.NumRewrites << " rewrite(s), erased "
            << Erased << " dead op(s)\n\n";

  DiagnosticEngine V2;
  if (failed(M->verify(V2))) {
    std::cerr << "optimized IR failed to verify:\n" << V2.renderAll();
    return 1;
  }
  std::cout << "after optimization (Listing 1b):\n"
            << printOpToString(M.get()) << "\n";
  return 0;
}
