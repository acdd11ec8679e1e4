//===- ArenaTest.cpp - OpArena behavior and the one-allocation lock ----===//
///
/// Locks the tentpole property of the trailing-object storage refactor:
/// Operation::create performs exactly ONE arena allocation per operation
/// — operands, results, successors, and region headers all live inside
/// the op's block. Verified with a statistic-delta, the same technique
/// PR 8 used to lock spec-cache no-recompile behavior.

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/OpArena.h"
#include "ir/Region.h"
#include "support/Metrics.h"
#include "support/Statistic.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace irdl;

namespace {

uint64_t arenaAllocCount() {
  Statistic *S =
      StatisticRegistry::instance().lookup("Arena", "NumArenaAllocations");
  return S ? S->get() : 0;
}

class ArenaTest : public ::testing::Test {
protected:
  ArenaTest() {
    Dialect *D = Ctx.getOrCreateDialect("test");
    ProduceDef = D->addOp("produce");
    ConsumeDef = D->addOp("consume");
    RegionedDef = D->addOp("regioned");
  }

  Operation *makeProduce(unsigned NumResults = 1) {
    OperationState State(Ctx, OperationName(ProduceDef));
    for (unsigned I = 0; I != NumResults; ++I)
      State.ResultTypes.push_back(Ctx.getFloatType(32));
    return Operation::create(State);
  }

  IRContext Ctx;
  OpDefinition *ProduceDef = nullptr;
  OpDefinition *ConsumeDef = nullptr;
  OpDefinition *RegionedDef = nullptr;
};

TEST_F(ArenaTest, CreateIsExactlyOneArenaAllocation) {
  // A plain op: no operands, one result.
  uint64_t Before = arenaAllocCount();
  Operation *P = makeProduce();
  EXPECT_EQ(arenaAllocCount() - Before, 1u);

  // Operands, results, successors, and regions all ride in the same
  // block: still one allocation each.
  Before = arenaAllocCount();
  OperationState CS(Ctx, OperationName(ConsumeDef));
  CS.Operands = {P->getResult(0), P->getResult(0), P->getResult(0)};
  Operation *C = Operation::create(CS);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);

  Before = arenaAllocCount();
  OperationState RS(Ctx, OperationName(RegionedDef));
  RS.ResultTypes = {Ctx.getFloatType(32), Ctx.getIntegerType(32)};
  RS.addRegion();
  RS.addRegion();
  Operation *R = Operation::create(RS);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);

  R->destroy();
  C->destroy();
  P->destroy();
}

TEST_F(ArenaTest, BulkCreateDeltaMatchesOpCount) {
  // The delta test at scale: N creations == N arena allocations.
  constexpr unsigned N = 1000;
  std::vector<Operation *> Ops;
  Ops.reserve(N);
  Operation *P = makeProduce();
  uint64_t Before = arenaAllocCount();
  for (unsigned I = 0; I != N; ++I) {
    OperationState S(Ctx, OperationName(ConsumeDef));
    S.Operands = {P->getResult(0)};
    Ops.push_back(Operation::create(S));
  }
  EXPECT_EQ(arenaAllocCount() - Before, uint64_t(N));
  for (Operation *Op : Ops)
    Op->destroy();
  P->destroy();
}

TEST_F(ArenaTest, EraseReturnsMemoryToFreeList) {
  OpArenaStats Start = Ctx.getOpArena().getStats();
  Operation *A = makeProduce();
  A->destroy();
  // Same shape → same size class → the freed block is reused.
  Operation *B = makeProduce();
  OpArenaStats S = Ctx.getOpArena().getStats();
  EXPECT_GE(S.FreeListHits, Start.FreeListHits + 1);
  EXPECT_GE(S.BytesReused, Start.BytesReused + 1);
  B->destroy();
  OpArenaStats End = Ctx.getOpArena().getStats();
  EXPECT_EQ(End.BytesLive, Start.BytesLive);
  EXPECT_EQ(End.NumFrees, Start.NumFrees + 2);
}

TEST_F(ArenaTest, StatsTrackSlabsAndLiveBytes) {
  OpArenaStats Before = Ctx.getOpArena().getStats();
  // The context itself allocates nothing until ops are created; creating
  // many ops must grow live bytes and eventually reserve slabs.
  std::vector<Operation *> Ops;
  for (unsigned I = 0; I != 5000; ++I)
    Ops.push_back(makeProduce());
  OpArenaStats During = Ctx.getOpArena().getStats();
  EXPECT_GT(During.BytesLive, Before.BytesLive);
  EXPECT_GT(During.Slabs, 0u);
  EXPECT_EQ(During.NumAllocs, Before.NumAllocs + 5000);
  for (Operation *Op : Ops)
    Op->destroy();
  OpArenaStats After = Ctx.getOpArena().getStats();
  EXPECT_EQ(After.BytesLive, Before.BytesLive);
  // Slab memory is retained for reuse, not released.
  EXPECT_EQ(After.Slabs, During.Slabs);
}

TEST_F(ArenaTest, OperandGrowthKeepsValuesAndUseLists) {
  // addOperand past the inline capacity moves the operand array out of
  // line; the op must keep all values and the use lists must stay sound.
  Operation *P = makeProduce();
  OperationState CS(Ctx, OperationName(ConsumeDef));
  Operation *C = Operation::create(CS); // zero inline operand slots
  for (unsigned I = 0; I != 33; ++I)
    C->addOperand(P->getResult(0));
  ASSERT_EQ(C->getNumOperands(), 33u);
  for (unsigned I = 0; I != 33; ++I)
    EXPECT_EQ(C->getOperand(I), P->getResult(0));
  EXPECT_EQ(P->getResult(0).getNumUses(), 33u);
  for (OpOperand *Use = P->getResult(0).getFirstUse(); Use;
       Use = Use->getNextUse())
    EXPECT_EQ(Use->getOwner(), C);
  C->destroy();
  EXPECT_TRUE(P->getResult(0).use_empty());
  P->destroy();
}

TEST_F(ArenaTest, LargeOperandListIsStillOneAllocation) {
  // > MaxBucketedSize worth of operands goes down the large-block path,
  // which must still be a single allocate() call.
  Operation *P = makeProduce();
  OperationState S(Ctx, OperationName(ConsumeDef));
  S.Operands.assign(300, P->getResult(0)); // 300 * sizeof(OpOperand) > 4096
  uint64_t Before = arenaAllocCount();
  Operation *C = Operation::create(S);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);
  EXPECT_EQ(C->getNumOperands(), 300u);
  C->destroy();
  P->destroy();
}

TEST_F(ArenaTest, ParallelCreateEraseAcrossThreads) {
  // Threads share the fixture's context only as const; each creates and
  // erases ops in its own child, whose arena no other thread touches
  // (exercised under TSan in CI). Every child's live bytes return to 0,
  // and the parent's arena is never written.
  OpArenaStats Before = Ctx.getOpArena().getStats();
  constexpr unsigned NumThreads = 8;
  constexpr unsigned PerThread = 500;
  std::vector<std::thread> Threads;
  for (unsigned T = 0; T != NumThreads; ++T)
    Threads.emplace_back([this] {
      const IRContext &Shared = Ctx;
      IRContext Child(Shared);
      for (unsigned I = 0; I != PerThread; ++I) {
        OperationState PS(Child, OperationName(ProduceDef));
        PS.ResultTypes.push_back(Child.getFloatType(32));
        Operation *P = Operation::create(PS);
        OperationState S(Child, OperationName(ConsumeDef));
        S.Operands = {P->getResult(0)};
        Operation *C = Operation::create(S);
        C->destroy();
        P->destroy();
      }
      const OpArenaStats &Stats = Child.getOpArena().getStats();
      EXPECT_EQ(Stats.BytesLive, 0u);
      EXPECT_EQ(Stats.NumAllocs, 2u * PerThread);
      EXPECT_EQ(Stats.NumFrees, Stats.NumAllocs);
    });
  for (std::thread &T : Threads)
    T.join();
  OpArenaStats After = Ctx.getOpArena().getStats();
  EXPECT_EQ(After.BytesLive, Before.BytesLive);
  EXPECT_EQ(After.NumAllocs, Before.NumAllocs);
}

TEST_F(ArenaTest, BlockCreateIsExactlyOneArenaAllocation) {
  // An argumentless block.
  uint64_t Before = arenaAllocCount();
  Block *B = Block::create(Ctx);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);
  B->destroy();

  // Block arguments ride inline in the block's allocation: still one.
  std::vector<Type> Args(8, Ctx.getFloatType(32));
  Before = arenaAllocCount();
  Block *BA = Block::create(Ctx, Args);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);
  EXPECT_EQ(BA->getNumArguments(), 8u);
  BA->destroy();
}

TEST_F(ArenaTest, LargeArgumentBlockIsStillOneAllocation) {
  // 300 arguments push the layout past MaxBucketedSize, so this goes down
  // the large-block path — which must still be a single allocate() call.
  std::vector<Type> Args(300, Ctx.getFloatType(32));
  OpArenaStats StatsBefore = Ctx.getOpArena().getStats();
  uint64_t Before = arenaAllocCount();
  Block *B = Block::create(Ctx, Args);
  EXPECT_EQ(arenaAllocCount() - Before, 1u);
  OpArenaStats StatsAfter = Ctx.getOpArena().getStats();
  EXPECT_EQ(StatsAfter.LargeAllocs, StatsBefore.LargeAllocs + 1);
  ASSERT_EQ(B->getNumArguments(), 300u);
  for (unsigned I = 0; I != 300; ++I)
    EXPECT_EQ(B->getArgument(I).getIndex(), I);
  B->destroy();
  EXPECT_EQ(Ctx.getOpArena().getStats().BytesLive, StatsBefore.BytesLive);
}

TEST_F(ArenaTest, ErasedBlocksAreReused) {
  OpArenaStats Start = Ctx.getOpArena().getStats();
  Block *A = Block::create(Ctx);
  A->destroy();
  // Same shape → same size class → the freed slot is reused.
  Block *B = Block::create(Ctx);
  OpArenaStats S = Ctx.getOpArena().getStats();
  EXPECT_GE(S.FreeListHits, Start.FreeListHits + 1);
  EXPECT_GE(S.BytesReused, Start.BytesReused + 1);
  B->destroy();
  OpArenaStats End = Ctx.getOpArena().getStats();
  EXPECT_EQ(End.BytesLive, Start.BytesLive);
  EXPECT_EQ(End.NumFrees, Start.NumFrees + 2);
}

TEST_F(ArenaTest, LiveBytesGaugeDrainsOnContextDestruction) {
  bool WasEnabled = metricsEnabled();
  setMetricsEnabled(true);
  Gauge &Live = MetricsRegistry::instance().getGauge(
      "ir_arena_bytes_live", "bytes currently handed out by operation arenas");
  int64_t Before = Live.get();
  {
    IRContext Local;
    Dialect *D = Local.getOrCreateDialect("test");
    OpDefinition *Def = D->addOp("produce");
    std::vector<Type> ArgTypes{Local.getFloatType(32)};
    Region R(Local);
    for (unsigned I = 0; I != 100; ++I) {
      Block &B = R.emplaceBlock(ArgTypes);
      OperationState S(Local, OperationName(Def));
      S.ResultTypes.push_back(Local.getFloatType(32));
      B.push_back(Operation::create(S));
    }
    EXPECT_GT(Live.get(), Before);
  }
  // Blocks, args, and ops all lived on the context's arena; destroying the
  // context must return the live-bytes gauge exactly to its prior level.
  EXPECT_EQ(Live.get(), Before);
  setMetricsEnabled(WasEnabled);
}

TEST_F(ArenaTest, RawArenaRoundUpAndReuse) {
  OpArena A;
  EXPECT_EQ(OpArena::roundUp(1), OpArena::Granule);
  EXPECT_EQ(OpArena::roundUp(16), 16u);
  EXPECT_EQ(OpArena::roundUp(17), 32u);
  void *P1 = A.allocate(100);
  A.deallocate(P1, 100);
  void *P2 = A.allocate(100);
  EXPECT_EQ(P1, P2); // same size class → same free-list block
  A.deallocate(P2, 100);
  // Large blocks round-trip through the out-of-band map.
  void *L = A.allocate(100000);
  ASSERT_NE(L, nullptr);
  A.deallocate(L, 100000);
  OpArenaStats S = A.getStats();
  EXPECT_EQ(S.LargeAllocs, 1u);
  EXPECT_EQ(S.BytesLive, 0u);
}

} // namespace
