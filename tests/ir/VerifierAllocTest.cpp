//===- VerifierAllocTest.cpp - Per-op allocation contracts ---------------===//
///
/// The verifier makes no heap allocation per operation on success, and
/// the `.irbc` reader makes none of its own per operation. Both are
/// checked by counting calls to the global operator new, which this test
/// executable replaces: verifying a module of 2N functions must allocate
/// exactly as often as verifying one of N, and reading a function of 2N
/// ops may only add the one extra doubling of each growing table. No
/// timing is involved.

#include "bytecode/Bytecode.h"
#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/OpArena.h"
#include "ir/Region.h"
#include "ir/Verifier.h"
#include "irdl/IRDL.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {
std::atomic<bool> Counting{false};
std::atomic<uint64_t> NumAllocs{0};

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
void operator delete(void *P) noexcept { std::free(P); }
void operator delete[](void *P) noexcept { std::free(P); }
void operator delete(void *P, std::size_t) noexcept { std::free(P); }
void operator delete[](void *P, std::size_t) noexcept { std::free(P); }

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

} // namespace
