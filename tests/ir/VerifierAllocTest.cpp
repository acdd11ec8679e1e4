//===- VerifierAllocTest.cpp - Per-op allocation contracts ---------------===//
///
/// The verifier makes no heap allocation per operation on success, the
/// `.irbc` reader makes none of its own per operation, and the text
/// parser makes at most one per operation. All three are checked by
/// counting calls to the global operator new, which this test executable
/// replaces: verifying a module of 2N functions must allocate exactly as
/// often as verifying one of N, reading a function of 2N ops may only add
/// the one extra doubling of each growing table, and parsing 2N functions
/// may add at most one allocation per added op. Loading an IRDL spec pays
/// a fixed number of allocations per operation it defines, and the five
/// bundled dialects stay within a budget. An empty context is cheap to
/// make, and a context holding the bundled dialects frees its storage in
/// a few blocks. No timing is involved.

#include "bytecode/Bytecode.h"
#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/OpArena.h"
#include "ir/Printer.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <new>
#include <sstream>
#include <string>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> NumAllocs{0};
std::atomic<uint64_t> NumFrees{0};

void *countedAlloc(std::size_t Size) {
  if (Counting.load(std::memory_order_relaxed))
    NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
} // namespace

void *operator new(std::size_t Size) { return countedAlloc(Size); }
void *operator new[](std::size_t Size) { return countedAlloc(Size); }
void countedFree(void *P) {
  if (P && Counting.load(std::memory_order_relaxed))
    NumFrees.fetch_add(1, std::memory_order_relaxed);
  std::free(P);
}

void operator delete(void *P) noexcept { countedFree(P); }
void operator delete[](void *P) noexcept { countedFree(P); }
void operator delete(void *P, std::size_t) noexcept { countedFree(P); }
void operator delete[](void *P, std::size_t) noexcept { countedFree(P); }

using namespace irdl;

namespace {

/// Heap allocations made while \p Fn runs.
template <typename FnT> uint64_t allocationsOf(FnT Fn) {
  NumAllocs.store(0);
  Counting.store(true);
  Fn();
  Counting.store(false);
  return NumAllocs.load();
}

/// Calls of operator delete made while \p Fn runs.
template <typename FnT> uint64_t freesOf(FnT Fn) {
  NumFrees.store(0);
  Counting.store(true);
  Fn();
  Counting.store(false);
  return NumFrees.load();
}

class VerifierAllocTest : public ::testing::Test {
protected:
  VerifierAllocTest() : Diags(&SrcMgr) {
    for (const char *Name : {"cmath", "arith"})
      Specs.push_back(loadIRDLFile(
          Ctx, std::string(IRDL_DIALECTS_DIR) + "/" + Name + ".irdl", SrcMgr,
          Diags));
  }

  OwningOpRef parse(const std::string &Src) {
    return parseSourceString(Ctx, Src, SrcMgr, Diags);
  }

  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags;
  std::vector<std::unique_ptr<IRDLModule>> Specs;
};

/// \p NumFuncs identical functions over fixed-arity and `!T`-variable
/// ops of cmath and arith.
std::string functionsModule(unsigned NumFuncs) {
  std::string Src;
  for (unsigned I = 0; I != NumFuncs; ++I)
    Src += "std.func @f" + std::to_string(I) + R"((
        %a: !cmath.complex<f32>, %b: !cmath.complex<f32>, %x: i32,
        %y: i32, %c: i1) -> f32 {
      %m = "cmath.mul"(%a, %b) : (!cmath.complex<f32>,
          !cmath.complex<f32>) -> (!cmath.complex<f32>)
      %n = "cmath.norm"(%m) : (!cmath.complex<f32>) -> (f32)
      %s = "arith.addi"(%x, %y) : (i32, i32) -> (i32)
      %p = "arith.muli"(%s, %y) : (i32, i32) -> (i32)
      %q = "arith.select"(%c, %s, %p) : (i1, i32, i32) -> (i32)
      %r = "arith.negf"(%n) : (f32) -> (f32)
      std.return %r : f32
    }
)";
  return Src;
}

/// One function whose body repeats the attribute-free ops \p Reps times.
std::string longFunctionModule(unsigned Reps) {
  std::string Src = R"(std.func @f(%a: !cmath.complex<f32>,
      %b: !cmath.complex<f32>, %x: i32, %y: i32) -> i32 {
)";
  for (unsigned I = 0; I != Reps; ++I) {
    std::string N = std::to_string(I);
    Src += "  %m" + N + R"( = "cmath.mul"(%a, %b) : (!cmath.complex<f32>,
        !cmath.complex<f32>) -> (!cmath.complex<f32>)
)";
    Src += "  %s" + N + R"( = "arith.addi"(%x, %y) : (i32, i32) -> (i32)
)";
  }
  Src += "  std.return %x : i32\n}\n";
  return Src;
}

TEST_F(VerifierAllocTest, VerifyAllocatesNothingPerOp) {
  for (const auto &S : Specs)
    ASSERT_NE(S, nullptr) << Diags.renderAll();
  OwningOpRef M1 = parse(functionsModule(200));
  OwningOpRef M2 = parse(functionsModule(400));
  ASSERT_TRUE(M1 && M2) << Diags.renderAll();

  DiagnosticEngine VDiags;
  // The first verify on this thread sizes the reused scratch storage.
  ASSERT_TRUE(succeeded(verifyOp(M1.get(), VDiags))) << VDiags.renderAll();
  uint64_t N = allocationsOf([&] {
    EXPECT_TRUE(succeeded(verifyOp(M1.get(), VDiags)));
  });
  uint64_t TwoN = allocationsOf([&] {
    EXPECT_TRUE(succeeded(verifyOp(M2.get(), VDiags)));
  });
  EXPECT_EQ(N, TwoN) << "200 functions: " << N << " allocations, 400: "
                     << TwoN;
}

/// \p NumFuncs functions mixing generic ops, custom-format ops (one of
/// them deriving its type variable from a parameter), `%x:2` multi-result
/// bindings, and forward references. Each body repeats the mix four
/// times, about the 50 ops a function of pipebench's serve-mixed module
/// has, over which the signature's own allocations (argument lists, the
/// function type and the symbol name) spread.
std::string mixedModule(unsigned NumFuncs) {
  std::string Src;
  for (unsigned I = 0; I != NumFuncs; ++I) {
    Src += "std.func @f" + std::to_string(I) + R"((
        %a: !cmath.complex<f32>, %b: !cmath.complex<f32>, %x: i32,
        %y: i32, %c: i1) -> f32 {
      %t = std.constant 0.0 : f32
)";
    std::string Acc = "%t";
    for (unsigned R = 0; R != 4; ++R) {
      std::string N = std::to_string(R);
      Src += "      \"test.sink\"(%later" + N + ") : (i32) -> ()\n" +
             "      %m" + N + " = cmath.mul %a, %b : f32\n" +
             "      %n" + N + " = cmath.norm %m" + N + " : f32\n" +
             "      %k" + N + " = cmath.norm %a : f32\n" +
             "      %s" + N +
             " = \"arith.addi\"(%x, %y) : (i32, i32) -> (i32)\n" +
             "      %p" + N + " = \"arith.muli\"(%s" + N +
             ", %y) : (i32, i32) -> (i32)\n" +
             "      %q" + N + " = \"arith.select\"(%c, %s" + N + ", %p" + N +
             ") : (i1, i32, i32) -> (i32)\n" +
             "      %pair" + N + ":2 = \"test.pair\"(%q" + N +
             ") : (i32) -> (i32, f32)\n" +
             "      %later" + N + " = \"arith.addi\"(%pair" + N +
             "#0, %x) : (i32, i32) -> (i32)\n" +
             "      %r" + N + " = std.addf %n" + N + ", %k" + N + " : f32\n" +
             "      %u" + N + " = std.mulf %r" + N + ", %pair" + N +
             "#1 : f32\n" +
             "      %acc" + N + " = std.addf " + Acc + ", %u" + N + " : f32\n";
      Acc = "%acc" + N;
    }
    Src += "      std.return " + Acc + " : f32\n    }\n";
  }
  return Src;
}

TEST_F(VerifierAllocTest, ParserAllocatesAtMostOncePerOp) {
  for (const auto &S : Specs)
    ASSERT_NE(S, nullptr) << Diags.renderAll();
  Dialect *Test = Ctx.getOrCreateDialect("test");
  Test->addOp("sink");
  Test->addOp("pair");
  std::string Small = mixedModule(100), Large = mixedModule(200);

  // Allocations of one parse, minus the slabs the op arena reserved for
  // the ops; the module is destroyed after counting. A first parse of the
  // large module uniques every type and attribute but the function names.
  auto ParseAllocs = [&](const std::string &Src, uint64_t *NumOps) {
    OpArenaStats Before = Ctx.getOpArena().getStats();
    OwningOpRef M;
    uint64_t Allocs = allocationsOf([&] {
      SourceMgr ParseSrcMgr;
      DiagnosticEngine ParseDiags(&ParseSrcMgr);
      M = parseSourceString(Ctx, Src, ParseSrcMgr, ParseDiags);
      EXPECT_TRUE(M) << ParseDiags.renderAll();
    });
    OpArenaStats After = Ctx.getOpArena().getStats();
    if (M && NumOps) {
      *NumOps = 0;
      M->walk([&](Operation *) { ++*NumOps; });
    }
    return Allocs - (After.Slabs - Before.Slabs) -
           (After.LargeAllocs - Before.LargeAllocs);
  };
  (void)ParseAllocs(Large, nullptr);
  uint64_t SmallOps = 0, LargeOps = 0;
  uint64_t N = ParseAllocs(Small, &SmallOps);
  uint64_t TwoN = ParseAllocs(Large, &LargeOps);
  ASSERT_GT(LargeOps, SmallOps);
  EXPECT_GE(TwoN, N);
  EXPECT_LE(TwoN - N, LargeOps - SmallOps)
      << SmallOps << " ops: " << N << " allocations, " << LargeOps
      << " ops: " << TwoN;
}

TEST_F(VerifierAllocTest, ReaderAllocatesNothingOfItsOwnPerOp) {
  for (const auto &S : Specs)
    ASSERT_NE(S, nullptr) << Diags.renderAll();
  // Allocations of one read of \p Module's bytecode into a fresh context
  // with the specs, minus the slabs the op arena reserved for the ops.
  auto ReaderAllocs = [&](unsigned Reps) {
    OwningOpRef M = parse(longFunctionModule(Reps));
    EXPECT_TRUE(M) << Diags.renderAll();
    BytecodeWriter Writer;
    for (const auto &S : Specs)
      Writer.addModuleSpecs(*S);
    Writer.setModule(M.get());
    std::string Bytes = Writer.write();

    IRContext Fresh;
    DiagnosticEngine ReadDiags;
    BytecodeReadResult Result;
    uint64_t Allocs = allocationsOf([&] {
      BytecodeReader Reader(Fresh, ReadDiags);
      EXPECT_TRUE(succeeded(Reader.read(Bytes, Result)))
          << ReadDiags.renderAll();
    });
    OpArenaStats Arena = Fresh.getOpArena().getStats();
    return Allocs - Arena.Slabs - Arena.LargeAllocs;
  };
  uint64_t N = ReaderAllocs(1000);
  uint64_t TwoN = ReaderAllocs(2000);
  // 2000 more ops; each growing table (values, operand ids, fixups)
  // doubles once more.
  EXPECT_GE(TwoN, N);
  EXPECT_LE(TwoN - N, 8u) << "2000 ops: " << N << " allocations, 4000: "
                          << TwoN;
}

/// One function whose body repeats ops printed by their declarative
/// formats, one of which prints a constraint variable, \p Reps times.
std::string formatOpsModule(unsigned Reps) {
  std::string Src = R"(std.func @f(%a: !cmath.complex<f32>,
      %b: !cmath.complex<f32>) -> f32 {
)";
  for (unsigned I = 0; I != Reps; ++I) {
    std::string N = std::to_string(I);
    Src += "  %m" + N + " = cmath.mul %a, %b : f32\n";
    Src += "  %n" + N + " = cmath.norm %m" + N + " : f32\n";
  }
  Src += "  std.return %n0 : f32\n}\n";
  return Src;
}

TEST_F(VerifierAllocTest, PrintAllocatesOnlyForBufferGrowth) {
  for (const auto &S : Specs)
    ASSERT_NE(S, nullptr) << Diags.renderAll();
  // Allocations of printing \p Src's module, after one warm-up print
  // (format hooks keep per-thread scratch), and the number of ops.
  auto PrintAllocs = [&](const std::string &Src, PrintOptions Opts,
                         uint64_t &NumOps) {
    OwningOpRef M = parse(Src);
    EXPECT_TRUE(M) << Diags.renderAll();
    NumOps = 0;
    M->walk([&](Operation *) { ++NumOps; });
    std::string Printed = printOpToString(M.get(), Opts);
    return allocationsOf([&] { Printed = printOpToString(M.get(), Opts); });
  };
  PrintOptions Generic;
  Generic.GenericForm = true;
  for (PrintOptions Opts : {PrintOptions(), Generic}) {
    for (auto *Module : {&longFunctionModule, &formatOpsModule}) {
      uint64_t Ops = 0, TwiceOps = 0;
      uint64_t N = PrintAllocs((*Module)(1000), Opts, Ops);
      uint64_t TwoN = PrintAllocs((*Module)(2000), Opts, TwiceOps);
      ASSERT_GE(TwiceOps, 4000u);
      // Doubling the ops adds one growth of the output buffer and one of
      // the value-name table.
      EXPECT_GE(TwoN, N);
      EXPECT_LE(TwoN - N, 2u)
          << Ops << " ops: " << N << " allocations, " << TwiceOps
          << " ops: " << TwoN << " (generic: " << Opts.GenericForm << ")";
      // Buffer and table growth, logarithmic in the size of the output.
      EXPECT_LE(TwoN, 40u) << TwiceOps << " ops";
    }
  }
}

/// A dialect of \p NumOps operations shaped like the bundled elementwise
/// ones: a constraint variable bound through an alias, two operands and a
/// result of that variable, a declarative format and a summary.
std::string elementwiseDialect(unsigned NumOps) {
  std::string Src = "Dialect gen {\n"
                    "  Alias !Scalar = !AnyOf<!f16, !f32, !f64>\n";
  for (unsigned I = 0; I != NumOps; ++I)
    Src += "  Operation op" + std::to_string(I) +
           " {\n"
           "    ConstraintVar (!T: !Scalar)\n"
           "    Operands (lhs: !T, rhs: !T)\n"
           "    Results (result: !T)\n"
           "    Format \"$lhs, $rhs : $T\"\n"
           "    Summary \"Generated elementwise operation\"\n"
           "  }\n";
  return Src + "}\n";
}

/// Heap allocations of loading \p Sources, one buffer after another, into
/// a fresh context, after one untimed load that warms the per-thread
/// scratch the frontend reuses (the constraint compiler's and the
/// variable-cycle check's).
uint64_t loadAllocations(const std::vector<std::string> &Sources) {
  auto LoadAll = [&](IRContext &Ctx, SourceMgr &SrcMgr,
                     DiagnosticEngine &Diags) {
    std::vector<std::unique_ptr<IRDLModule>> Modules;
    for (const std::string &Source : Sources) {
      Modules.push_back(loadIRDL(Ctx, Source, SrcMgr, Diags));
      EXPECT_TRUE(Modules.back()) << Diags.renderAll();
    }
    return Modules;
  };
  {
    IRContext Ctx;
    SourceMgr SrcMgr;
    DiagnosticEngine Diags(&SrcMgr);
    LoadAll(Ctx, SrcMgr, Diags);
  }
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::vector<std::unique_ptr<IRDLModule>> Modules;
  uint64_t Allocs =
      allocationsOf([&] { Modules = LoadAll(Ctx, SrcMgr, Diags); });
  return Allocs;
}

TEST(SpecLoadAllocTest, EachOpCostsAFixedNumberOfAllocations) {
  // What one such op keeps lives in bump storage: its definition and
  // name table entry in the context's, its summary, lists, constraint
  // trees, programs and compiled format in the spec's. Only the slabs
  // that storage grows by are allocated, and the op's full name when it
  // is longer than a short string. Parsing and the per-load tables add
  // nothing per op beyond amortized growth.
  constexpr uint64_t PerOp = 4;
  uint64_t N = loadAllocations({elementwiseDialect(100)});
  uint64_t TwoN = loadAllocations({elementwiseDialect(200)});
  EXPECT_GE(TwoN, N);
  EXPECT_LE(TwoN - N, 100 * PerOp + 16)
      << "100 ops: " << N << " allocations, 200: " << TwoN;
}

/// The sources of the five bundled dialects.
std::vector<std::string> bundledDialects() {
  std::vector<std::string> Sources;
  for (const char *Name : {"cmath", "arith", "complex", "math", "scf"}) {
    std::ifstream In(std::string(IRDL_DIALECTS_DIR) + "/" + Name + ".irdl");
    std::ostringstream SS;
    SS << In.rdbuf();
    Sources.push_back(SS.str());
  }
  return Sources;
}

TEST(SpecLoadAllocTest, BundledDialectsStayWithinBudget) {
  uint64_t Allocs = loadAllocations(bundledDialects());
  EXPECT_LE(Allocs, 300u) << "5 bundled dialects: " << Allocs
                          << " allocations";
}

TEST(ContextAllocTest, EmptyContextIsCheap) {
  // The builtin and std registries live in the context's storage: its
  // first slab, the op arena, and the few full op names that outgrow a
  // short string.
  { IRContext Warm; }
  uint64_t Allocs = allocationsOf([] { IRContext Ctx; });
  EXPECT_LE(Allocs, 12u) << "IRContext(): " << Allocs << " allocations";
}

TEST(ContextAllocTest, TeardownFreesStorageNotObjects) {
  std::vector<std::string> Sources = bundledDialects();
  auto Ctx = std::make_unique<IRContext>();
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  std::vector<std::unique_ptr<IRDLModule>> Modules;
  for (const std::string &Source : Sources) {
    Modules.push_back(loadIRDL(*Ctx, Source, SrcMgr, Diags));
    ASSERT_TRUE(Modules.back()) << Diags.renderAll();
  }
  // The dialects retain their specs, so dropping the modules first
  // frees nothing yet; the context's teardown frees the specs' slabs and
  // its own.
  uint64_t Frees = freesOf([&] {
    Modules.clear();
    Ctx.reset();
  });
  EXPECT_LE(Frees, 200u) << "context with 5 dialects: " << Frees
                         << " operator delete calls";
}

} // namespace
