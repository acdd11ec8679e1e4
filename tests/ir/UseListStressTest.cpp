//===- UseListStressTest.cpp - use-list integrity over arena ops -------===//
///
/// Randomized stress over the operand-mutation API on arena-allocated
/// operations: addOperand / eraseOperand / setOperands /
/// replaceAllUsesWith / erase, interleaved, with full use-list
/// cross-checks after every step. Runs in the ASan CI job, where the
/// arena's freed-slot poisoning turns any stale-Value dereference into a
/// deterministic trap instead of a silent read of recycled memory.

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/OpArena.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <vector>

using namespace irdl;

namespace {

/// Deterministic LCG so failures replay.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed ? Seed : 1) {}
  uint64_t next() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 17;
  }
  uint64_t below(uint64_t N) { return N ? next() % N : 0; }

private:
  uint64_t State;
};

class UseListStressTest : public ::testing::Test {
protected:
  UseListStressTest() {
    Dialect *D = Ctx.getOrCreateDialect("stress");
    ProduceDef = D->addOp("produce");
    ConsumeDef = D->addOp("consume");
  }

  Operation *makeProducer() {
    OperationState S(Ctx, OperationName(ProduceDef));
    S.ResultTypes = {Ctx.getFloatType(32), Ctx.getIntegerType(32)};
    return Operation::create(S);
  }

  Operation *makeConsumer(std::vector<Value> Operands) {
    OperationState S(Ctx, OperationName(ConsumeDef));
    S.Operands = std::move(Operands);
    return Operation::create(S);
  }

  /// Walks every producer's use lists and checks they exactly mirror the
  /// consumers' operand lists.
  void checkIntegrity(const std::vector<Operation *> &Producers,
                      const std::vector<Operation *> &Consumers) {
    for (Operation *P : Producers) {
      for (unsigned R = 0; R != P->getNumResults(); ++R) {
        Value V = P->getResult(R);
        unsigned UsesSeen = 0;
        for (OpOperand *Use = V.getFirstUse(); Use;
             Use = Use->getNextUse()) {
          ++UsesSeen;
          Operation *Owner = Use->getOwner();
          ASSERT_NE(Owner, nullptr);
          ASSERT_EQ(Use->get(), V);
          // The owner must be a live consumer that really holds V.
          ASSERT_NE(std::find(Consumers.begin(), Consumers.end(), Owner),
                    Consumers.end());
          bool Holds = false;
          for (unsigned I = 0; I != Owner->getNumOperands(); ++I)
            if (Owner->getOperand(I) == V)
              Holds = true;
          ASSERT_TRUE(Holds);
        }
        // Count uses from the consumer side too.
        unsigned UsesExpected = 0;
        for (Operation *C : Consumers)
          for (unsigned I = 0; I != C->getNumOperands(); ++I)
            if (C->getOperand(I) == V)
              ++UsesExpected;
        ASSERT_EQ(UsesSeen, UsesExpected);
        ASSERT_EQ(V.getNumUses(), UsesExpected);
      }
    }
  }

  IRContext Ctx;
  OpDefinition *ProduceDef = nullptr;
  OpDefinition *ConsumeDef = nullptr;
};

TEST_F(UseListStressTest, RandomizedMutationSoup) {
  Rng R(0xD1CE5EED);
  std::vector<Operation *> Producers, Consumers;
  for (unsigned I = 0; I != 8; ++I)
    Producers.push_back(makeProducer());

  auto randomValue = [&] {
    Operation *P = Producers[R.below(Producers.size())];
    return P->getResult(static_cast<unsigned>(R.below(P->getNumResults())));
  };

  for (unsigned Step = 0; Step != 4000; ++Step) {
    switch (R.below(6)) {
    case 0: { // create a consumer with 0..5 operands
      std::vector<Value> Ops;
      for (uint64_t I = 0, N = R.below(6); I != N; ++I)
        Ops.push_back(randomValue());
      Consumers.push_back(makeConsumer(std::move(Ops)));
      break;
    }
    case 1: { // addOperand (possibly past inline capacity)
      if (Consumers.empty())
        break;
      Operation *C = Consumers[R.below(Consumers.size())];
      C->addOperand(randomValue());
      break;
    }
    case 2: { // eraseOperand
      if (Consumers.empty())
        break;
      Operation *C = Consumers[R.below(Consumers.size())];
      if (C->getNumOperands())
        C->eraseOperand(static_cast<unsigned>(
            R.below(C->getNumOperands())));
      break;
    }
    case 3: { // setOperands to a fresh random list
      if (Consumers.empty())
        break;
      Operation *C = Consumers[R.below(Consumers.size())];
      std::vector<Value> Ops;
      for (uint64_t I = 0, N = R.below(8); I != N; ++I)
        Ops.push_back(randomValue());
      C->setOperands(Ops);
      break;
    }
    case 4: { // replaceAllUsesWith on a producer
      Operation *From = Producers[R.below(Producers.size())];
      Operation *To = Producers[R.below(Producers.size())];
      if (From != To)
        From->replaceAllUsesWith(To->getResults());
      break;
    }
    case 5: { // erase a random consumer (recycles its arena block)
      if (Consumers.empty())
        break;
      size_t Idx = R.below(Consumers.size());
      Consumers[Idx]->erase();
      Consumers.erase(Consumers.begin() + Idx);
      break;
    }
    }
    if (Step % 257 == 0)
      checkIntegrity(Producers, Consumers);
  }
  checkIntegrity(Producers, Consumers);

  for (Operation *C : Consumers)
    C->erase();
  for (Operation *P : Producers) {
    EXPECT_TRUE(P->use_empty());
    P->erase();
  }
}

TEST_F(UseListStressTest, BlockArgumentMutationSoup) {
  // Randomized stress over the block-side mutation API: addArgument /
  // eraseArgument / splitBefore / block erase, interleaved with consumers
  // that hold block arguments as operands, cross-checking every argument's
  // index, owner, and use list after each batch of steps.
  Rng R(0xB10CA65);
  Region Reg(Ctx);
  std::vector<Block *> Blocks;
  std::vector<Operation *> Consumers;
  Type F32 = Ctx.getFloatType(32);

  auto makeBlock = [&](unsigned NumArgs) {
    std::vector<Type> Tys(NumArgs, F32);
    Blocks.push_back(&Reg.emplaceBlock(Tys));
    return Blocks.back();
  };
  for (unsigned I = 0; I != 4; ++I)
    makeBlock(static_cast<unsigned>(R.below(4)));

  auto randomArg = [&]() -> Value {
    for (unsigned Try = 0; Try != 8; ++Try) {
      Block *B = Blocks[R.below(Blocks.size())];
      if (B->getNumArguments())
        return B->getArgument(
            static_cast<unsigned>(R.below(B->getNumArguments())));
    }
    return Value();
  };

  auto checkArgs = [&] {
    for (Block *B : Blocks) {
      for (unsigned A = 0; A != B->getNumArguments(); ++A) {
        Value V = B->getArgument(A);
        ASSERT_EQ(V.getIndex(), A);
        ASSERT_EQ(V.getOwnerBlock(), B);
        unsigned Seen = 0;
        for (OpOperand *Use = V.getFirstUse(); Use;
             Use = Use->getNextUse()) {
          ++Seen;
          ASSERT_EQ(Use->get(), V);
          ASSERT_NE(std::find(Consumers.begin(), Consumers.end(),
                              Use->getOwner()),
                    Consumers.end());
        }
        unsigned Expected = 0;
        for (Operation *C : Consumers)
          for (unsigned I = 0; I != C->getNumOperands(); ++I)
            if (C->getOperand(I) == V)
              ++Expected;
        ASSERT_EQ(Seen, Expected);
        ASSERT_EQ(V.getNumUses(), Expected);
      }
    }
  };

  for (unsigned Step = 0; Step != 3000; ++Step) {
    switch (R.below(7)) {
    case 0: { // new block with 0..2 arguments
      if (Blocks.size() < 24)
        makeBlock(static_cast<unsigned>(R.below(3)));
      break;
    }
    case 1: { // addArgument (possibly past inline capacity)
      Blocks[R.below(Blocks.size())]->addArgument(F32);
      break;
    }
    case 2: { // eraseArgument: first unused arg; survivors re-index
      Block *B = Blocks[R.below(Blocks.size())];
      for (unsigned A = 0; A != B->getNumArguments(); ++A)
        if (B->getArgument(A).use_empty()) {
          B->eraseArgument(A);
          break;
        }
      break;
    }
    case 3: { // new consumer holding random block arguments
      std::vector<Value> Ops;
      for (uint64_t I = 0, N = R.below(5); I != N; ++I)
        if (Value V = randomArg())
          Ops.push_back(V);
      Operation *C = makeConsumer(std::move(Ops));
      Blocks[R.below(Blocks.size())]->push_back(C);
      Consumers.push_back(C);
      break;
    }
    case 4: { // erase a consumer (recycles its arena slot)
      if (Consumers.empty())
        break;
      size_t Idx = R.below(Consumers.size());
      Consumers[Idx]->erase();
      Consumers.erase(Consumers.begin() + Idx);
      break;
    }
    case 5: { // splitBefore at a random position
      Block *B = Blocks[R.below(Blocks.size())];
      if (B->empty() || Blocks.size() >= 32)
        break;
      auto Pos = B->begin();
      std::advance(Pos, R.below(B->getNumOps()));
      Blocks.push_back(B->splitBefore(Pos));
      break;
    }
    case 6: { // erase a whole block (its args and ops die with it)
      if (Blocks.size() <= 1)
        break;
      size_t Idx = R.below(Blocks.size());
      Block *B = Blocks[Idx];
      // Drop every operand (in any block) referring to B's arguments.
      for (Operation *C : Consumers)
        for (unsigned I = C->getNumOperands(); I != 0; --I) {
          Value V = C->getOperand(I - 1);
          if (V.isBlockArgument() && V.getOwnerBlock() == B)
            C->eraseOperand(I - 1);
        }
      // Ops inside B are destroyed by the erase; stop tracking them.
      for (Operation &Op : *B)
        Consumers.erase(std::find(Consumers.begin(), Consumers.end(), &Op));
      B->erase();
      Blocks.erase(Blocks.begin() + Idx);
      break;
    }
    }
    if (Step % 211 == 0)
      checkArgs();
  }
  checkArgs();
  // Region teardown drops the remaining cross-block references itself.
}

TEST_F(UseListStressTest, EraseAndRecreateReusesPoisonedSlots) {
  // Create/erase in a tight loop so arena blocks are recycled many times;
  // any use-list pointer surviving an erase would hit poisoned memory.
  Rng R(42);
  Operation *P = makeProducer();
  for (unsigned Round = 0; Round != 2000; ++Round) {
    std::vector<Operation *> Batch;
    for (uint64_t I = 0, N = 1 + R.below(4); I != N; ++I)
      Batch.push_back(makeConsumer({P->getResult(0), P->getResult(1)}));
    EXPECT_EQ(P->getResult(0).getNumUses(), Batch.size());
    while (!Batch.empty()) {
      size_t Idx = R.below(Batch.size());
      Batch[Idx]->erase();
      Batch.erase(Batch.begin() + Idx);
    }
    EXPECT_TRUE(P->use_empty());
  }
  P->erase();
}

TEST_F(UseListStressTest, SetOperandsSelfAssignSafe) {
  // setOperands with values the op already holds (including duplicates).
  Operation *P = makeProducer();
  Operation *C =
      makeConsumer({P->getResult(0), P->getResult(1), P->getResult(0)});
  std::vector<Value> Current = C->getOperands().vec();
  C->setOperands(Current);
  ASSERT_EQ(C->getNumOperands(), 3u);
  EXPECT_EQ(C->getOperand(0), P->getResult(0));
  EXPECT_EQ(C->getOperand(1), P->getResult(1));
  EXPECT_EQ(C->getOperand(2), P->getResult(0));
  EXPECT_EQ(P->getResult(0).getNumUses(), 2u);
  EXPECT_EQ(P->getResult(1).getNumUses(), 1u);
  C->erase();
  P->erase();
}

TEST_F(UseListStressTest, NestedTeardownLeavesNoLiveUse) {
  // A module three regions deep whose ops use values across regions and
  // blocks (forward, backward, into nested regions and out of them) and a
  // value defined outside it. Destroying the module drops every
  // reference in one walk; no use of the outside value survives, and the
  // arena gets every byte back.
  OpDefinition *WrapDef = Ctx.getOrCreateDialect("stress")->addOp("wrap");
  Type ArgTypes[] = {Ctx.getFloatType(32)};
  auto MakeWrap = [&](unsigned NumBlocks) {
    OperationState S(Ctx, OperationName(WrapDef));
    Region *R = S.addRegion();
    for (unsigned I = 0; I != NumBlocks; ++I)
      R->push_back(Block::create(Ctx, ArgTypes));
    return Operation::create(S);
  };
  Operation *Outside = makeProducer();
  uint64_t LiveBefore = Ctx.getOpArena().getStats().BytesLive;

  Operation *Module = MakeWrap(1);
  Block &B0 = Module->getRegion(0).front();
  Operation *Forward = makeConsumer({});
  B0.push_back(Forward);
  Operation *P0 = makeProducer();
  B0.push_back(P0);
  Forward->setOperands({P0->getResult(0), Outside->getResult(0)});
  Operation *W1 = MakeWrap(2);
  B0.push_back(W1);

  Block &B1 = W1->getRegion(0).front();
  Block &B1Next = W1->getRegion(0).back();
  Operation *P1 = makeProducer();
  B1.push_back(P1);
  B1.push_back(makeConsumer(
      {P0->getResult(1), Outside->getResult(0), B0.getArgument(0)}));
  Operation *W2 = MakeWrap(2);
  B1.push_back(W2);

  Block &B2 = W2->getRegion(0).front();
  Block &B2Next = W2->getRegion(0).back();
  Operation *P2 = makeProducer();
  B2Next.push_back(P2);
  B2.push_back(makeConsumer({P2->getResult(0), P1->getResult(0),
                             P0->getResult(0), Outside->getResult(1),
                             B1.getArgument(0)}));
  B2Next.push_back(makeConsumer({B2.getArgument(0), Outside->getResult(0)}));
  B1Next.push_back(makeConsumer({P2->getResult(1), B2Next.getArgument(0)}));

  EXPECT_EQ(Outside->getResult(0).getNumUses(), 3u);
  EXPECT_EQ(Outside->getResult(1).getNumUses(), 1u);
  Module->destroy();
  EXPECT_TRUE(Outside->use_empty());
  EXPECT_EQ(Ctx.getOpArena().getStats().BytesLive, LiveBefore);
  Outside->erase();
}

} // namespace
