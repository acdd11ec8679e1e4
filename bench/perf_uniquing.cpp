//===- perf_uniquing.cpp - Type/attr hash-consing ablation --------------===//
///
/// Ablation (DESIGN.md): context uniquing of types and attributes. The
/// cache-hit path is the common case every constraint check relies on
/// (pointer equality); the miss path pays hashing + verification +
/// allocation once per distinct type. The contended variants share one
/// context across threads the way irdl_serve's connection threads share
/// an epoch: only as const, each thread uniquing through its own child.

#include "PerfHarness.h"

#include "ir/Context.h"

#include <benchmark/benchmark.h>

#include <thread>
#include <vector>

using namespace irdl;

namespace {

void BM_TypeUniquing_Hit(benchmark::State &State) {
  IRContext Ctx;
  Ctx.getIntegerType(32); // warm
  for (auto _ : State) {
    Type T = Ctx.getIntegerType(32);
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_TypeUniquing_Hit);

void BM_TypeUniquing_MissThenHit128(benchmark::State &State) {
  // Creates 128 distinct integer types per fresh context: the first pass
  // over each width is a miss, amortizing allocation + verifier.
  for (auto _ : State) {
    IRContext Ctx;
    for (unsigned W = 1; W <= 128; ++W) {
      Type T = Ctx.getIntegerType(W);
      benchmark::DoNotOptimize(T);
    }
  }
  State.SetItemsProcessed(State.iterations() * 128);
}
BENCHMARK(BM_TypeUniquing_MissThenHit128);

void BM_TypeEquality_Pointer(benchmark::State &State) {
  IRContext Ctx;
  Type A = Ctx.getIntegerType(32);
  Type B = Ctx.getIntegerType(32);
  for (auto _ : State) {
    bool Eq = A == B;
    benchmark::DoNotOptimize(Eq);
  }
}
BENCHMARK(BM_TypeEquality_Pointer);

void BM_AttrUniquing_Hit(benchmark::State &State) {
  IRContext Ctx;
  Ctx.getIntegerAttr(42, 32);
  for (auto _ : State) {
    Attribute A = Ctx.getIntegerAttr(42, 32);
    benchmark::DoNotOptimize(A);
  }
}
BENCHMARK(BM_AttrUniquing_Hit);

void BM_NestedTypeUniquing_Hit(benchmark::State &State) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("u");
  TypeDefinition *Vec = D->addType("vec");
  Vec->setParamNames({"elem", "n"});
  ParamValue Elem(Ctx.getFloatType(32));
  ParamValue N(IntVal{32, Signedness::Unsigned, 4});
  Ctx.getType(Vec, {Elem, N});
  for (auto _ : State) {
    Type T = Ctx.getType(Vec, {Elem, N});
    benchmark::DoNotOptimize(T);
  }
}
BENCHMARK(BM_NestedTypeUniquing_Hit);

/// Widths 1..64 in a child of a parent that holds 1..32: half the
/// lookups hit the parent's pools, half miss it and hit (after the first
/// pass) the child's own.
void lookUpWidths(IRContext &Child) {
  for (unsigned W = 1; W <= 64; ++W) {
    Type T = Child.getIntegerType(W);
    benchmark::DoNotOptimize(T);
  }
}

/// The parent of the contended variants: i1..i32 interned, then only
/// read.
const IRContext &sharedParent() {
  // Never destroyed, so no benchmark thread can outlive it.
  static const IRContext *Parent = [] {
    auto *Ctx = new IRContext();
    for (unsigned W = 1; W <= 32; ++W)
      Ctx->getIntegerType(W);
    return Ctx;
  }();
  return *Parent;
}

void BM_TypeUniquing_Contended(benchmark::State &State) {
  IRContext Child(sharedParent());
  for (auto _ : State)
    lookUpWidths(Child);
}
BENCHMARK(BM_TypeUniquing_Contended)->Threads(4);

/// Phase breakdown (PerfHarness.h): hit and miss paths of the uniquer
/// under named timing scopes.
void runPhaseBreakdown() {
  {
    IRDL_TIME_SCOPE("type-hit-x100k");
    IRContext Ctx;
    Ctx.getIntegerType(32);
    for (int I = 0; I != 100000; ++I) {
      Type T = Ctx.getIntegerType(32);
      benchmark::DoNotOptimize(T);
    }
  }
  {
    IRDL_TIME_SCOPE("type-miss-128-x100");
    for (int I = 0; I != 100; ++I) {
      IRContext Ctx;
      for (unsigned W = 1; W <= 128; ++W) {
        Type T = Ctx.getIntegerType(W);
        benchmark::DoNotOptimize(T);
      }
    }
  }
  {
    IRDL_TIME_SCOPE("type-contended-4-threads-x1000");
    const IRContext &Parent = sharedParent();
    std::vector<std::thread> Threads;
    for (int T = 0; T != 4; ++T)
      Threads.emplace_back([&Parent] {
        IRContext Child(Parent);
        for (int I = 0; I != 1000; ++I)
          lookUpWidths(Child);
      });
    for (std::thread &T : Threads)
      T.join();
  }
  {
    IRDL_TIME_SCOPE("attr-hit-x100k");
    IRContext Ctx;
    Ctx.getIntegerAttr(42, 32);
    for (int I = 0; I != 100000; ++I) {
      Attribute A = Ctx.getIntegerAttr(42, 32);
      benchmark::DoNotOptimize(A);
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  return runPerfMain(argc, argv, "perf_uniquing", runPhaseBreakdown);
}
