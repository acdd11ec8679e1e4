//===- ContextTest.cpp - Dialect registry and name resolution ----------===//

#include "ir/Context.h"

#include <gtest/gtest.h>

#include <thread>
#include <vector>

using namespace irdl;

namespace {

TEST(ContextTest, BuiltinDialectsPreRegistered) {
  IRContext Ctx;
  EXPECT_NE(Ctx.lookupDialect("builtin"), nullptr);
  EXPECT_NE(Ctx.lookupDialect("std"), nullptr);
  EXPECT_EQ(Ctx.lookupDialect("nope"), nullptr);
}

TEST(ContextTest, GetOrCreateDialect) {
  IRContext Ctx;
  Dialect *A = Ctx.getOrCreateDialect("cmath");
  Dialect *B = Ctx.getOrCreateDialect("cmath");
  EXPECT_EQ(A, B);
  EXPECT_EQ(A->getNamespace(), "cmath");
}

TEST(ContextTest, DuplicateDefinitionsRejected) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("x");
  EXPECT_NE(D->addType("t"), nullptr);
  EXPECT_EQ(D->addType("t"), nullptr);
  EXPECT_NE(D->addOp("o"), nullptr);
  EXPECT_EQ(D->addOp("o"), nullptr);
  EXPECT_NE(D->addAttr("a"), nullptr);
  EXPECT_EQ(D->addAttr("a"), nullptr);
  EXPECT_NE(D->addEnum("e", {"A"}), nullptr);
  EXPECT_EQ(D->addEnum("e", {"B"}), nullptr);
}

TEST(ContextTest, QualifiedResolution) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("cmath");
  TypeDefinition *Complex = D->addType("complex");
  EXPECT_EQ(Ctx.resolveTypeDef("cmath.complex"), Complex);
  EXPECT_EQ(Ctx.resolveTypeDef("cmath.unknown"), nullptr);
  EXPECT_EQ(Ctx.resolveTypeDef("complex"), nullptr);
}

TEST(ContextTest, BareNameSearchesCurrentThenBuiltinThenStd) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("cmath");
  TypeDefinition *Complex = D->addType("complex");
  // With Current: found.
  EXPECT_EQ(Ctx.resolveTypeDef("complex", D), Complex);
  // builtin elision: f32 etc. resolve without prefix.
  EXPECT_EQ(Ctx.resolveTypeDef("f32"), Ctx.getFloatTypeDef(32));
  EXPECT_EQ(Ctx.resolveTypeDef("f32", D), Ctx.getFloatTypeDef(32));
  // std elision for ops.
  EXPECT_NE(Ctx.resolveOpDef("return"), nullptr);
  EXPECT_EQ(Ctx.resolveOpDef("return")->getFullName(), "std.return");
}

TEST(ContextTest, ShadowingPrefersCurrentDialect) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("mine");
  TypeDefinition *MyF32 = D->addType("f32");
  EXPECT_EQ(Ctx.resolveTypeDef("f32", D), MyF32);
  EXPECT_EQ(Ctx.resolveTypeDef("f32"), Ctx.getFloatTypeDef(32));
}

TEST(ContextTest, EnumResolution) {
  IRContext Ctx;
  EnumDef *Sign = Ctx.getSignednessEnum();
  EXPECT_EQ(Ctx.resolveEnumDef("builtin.signedness"), Sign);
  EXPECT_EQ(Ctx.resolveEnumDef("signedness"), Sign);
  EXPECT_EQ(Sign->lookupCase("Signed"), 1u);
  EXPECT_EQ(Sign->lookupCase("Nope"), std::nullopt);
}

TEST(ContextTest, GetDialectsIsSorted) {
  IRContext Ctx;
  Ctx.getOrCreateDialect("zeta");
  Ctx.getOrCreateDialect("alpha");
  std::vector<Dialect *> All = Ctx.getDialects();
  ASSERT_GE(All.size(), 4u); // alpha, builtin, std, zeta
  for (size_t I = 1; I < All.size(); ++I)
    EXPECT_LT(All[I - 1]->getNamespace(), All[I]->getNamespace());
}

TEST(ContextTest, DefinitionListing) {
  IRContext Ctx;
  Dialect *Builtin = Ctx.lookupDialect("builtin");
  auto Types = Builtin->getTypeDefs();
  // f16, f32, f64, function, index, integer.
  EXPECT_EQ(Types.size(), 6u);
  auto Attrs = Builtin->getAttrDefs();
  // array, enum, float, int, string, type, unit.
  EXPECT_EQ(Attrs.size(), 7u);
}

TEST(ContextTest, UnregisteredOpPolicy) {
  IRContext Ctx;
  EXPECT_FALSE(Ctx.allowsUnregisteredOps());
  Ctx.setAllowUnregisteredOps(true);
  EXPECT_TRUE(Ctx.allowsUnregisteredOps());
}

TEST(ContextTest, ConcurrentUniquingPointerIdentity) {
  // Threads sharing one context, as irdl_serve's connection threads do,
  // request the same handful of types and attributes; every equal
  // request must come back as the same pointer (shard insert races
  // converge).
  IRContext Ctx;
  constexpr size_t N = 256;
  constexpr size_t NumThreads = 8;
  std::vector<Type> Same(N);
  std::vector<Type> Varied(N);
  std::vector<Attribute> Attrs(N);
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      for (size_t I = T; I < N; I += NumThreads) {
        Same[I] = Ctx.getIntegerType(17);
        Varied[I] = Ctx.getIntegerType(1 + (unsigned)(I % 8));
        Attrs[I] = Ctx.getStringAttr("shared-key");
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (size_t I = 1; I != N; ++I) {
    EXPECT_EQ(Same[0], Same[I]) << "index " << I;
    EXPECT_EQ(Attrs[0], Attrs[I]) << "index " << I;
  }
  for (size_t I = 0; I != N; ++I)
    EXPECT_EQ(Varied[I], Varied[I % 8]);
}

} // namespace
