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
  // Threads share one context only as const, as irdl_serve's connection
  // threads share an epoch: each builds IR in its own child of it. What
  // the parent has comes back as the parent's pointer in every child;
  // what it lacks is interned once in the asking child and never reaches
  // the parent.
  IRContext Parent;
  Type I17 = Parent.getIntegerType(17);
  Attribute Key = Parent.getStringAttr("shared-key");
  std::vector<Type> Narrow; // i1..i4; i5..i8 stay child-only
  for (unsigned W = 1; W <= 4; ++W)
    Narrow.push_back(Parent.getIntegerType(W));
  const size_t ParentTypes = Parent.getNumUniquedTypes();
  const size_t ParentAttrs = Parent.getNumUniquedAttrs();

  constexpr size_t N = 256;
  constexpr size_t NumThreads = 8;
  std::vector<std::thread> Threads;
  for (size_t T = 0; T != NumThreads; ++T)
    Threads.emplace_back([&, T] {
      const IRContext &Shared = Parent;
      IRContext Child(Shared);
      std::vector<Type> Varied(8);
      Attribute Own;
      for (size_t I = 0; I != N; ++I) {
        EXPECT_EQ(Child.getIntegerType(17), I17);
        EXPECT_EQ(Child.getStringAttr("shared-key"), Key);
        unsigned W = 1 + (unsigned)(I % 8);
        Type V = Child.getIntegerType(W);
        if (W <= 4) {
          EXPECT_EQ(V, Narrow[W - 1]) << "i" << W << " on thread " << T;
        }
        if (I < 8)
          Varied[I] = V;
        EXPECT_EQ(V, Varied[I % 8]) << "i" << W << " on thread " << T;
        Attribute A = Child.getStringAttr("thread-" + std::to_string(T));
        if (I == 0)
          Own = A;
        EXPECT_EQ(A, Own);
      }
      // Only the misses (i5..i8 and the thread's own string) are the
      // child's.
      EXPECT_EQ(Child.getNumUniquedTypes(), 4u);
      EXPECT_EQ(Child.getNumUniquedAttrs(), 1u);
    });
  for (std::thread &T : Threads)
    T.join();
  EXPECT_EQ(Parent.getNumUniquedTypes(), ParentTypes);
  EXPECT_EQ(Parent.getNumUniquedAttrs(), ParentAttrs);
}

TEST(ContextTest, ChildAnswersRegistryLookupsFromParent) {
  IRContext Parent;
  Dialect *D = Parent.getOrCreateDialect("test");
  TypeDefinition *Vec = D->addType("vec");
  Parent.setAllowUnregisteredOps(true);
  const size_t ParentTypes = Parent.getNumUniquedTypes();
  IRContext Child(static_cast<const IRContext &>(Parent));
  EXPECT_EQ(Child.lookupDialect("test"), D);
  EXPECT_EQ(Child.resolveTypeDef("test.vec"), Vec);
  EXPECT_EQ(Child.getDialects(), Parent.getDialects());
  EXPECT_EQ(Child.getIntegerTypeDef(), Parent.getIntegerTypeDef());
  EXPECT_EQ(Child.getFloatTypeDef(32), Parent.getFloatTypeDef(32));
  EXPECT_EQ(Child.lookupOpaqueParamCodec("location"),
            Parent.lookupOpaqueParamCodec("location"));
  EXPECT_TRUE(Child.allowsUnregisteredOps());
  // A child's own types carry the registering (parent) context.
  Type V = Child.getType(Vec);
  EXPECT_EQ(V.getContext(), &Parent);
  EXPECT_EQ(Child.getNumUniquedTypes(), 1u);
  EXPECT_EQ(Parent.getNumUniquedTypes(), ParentTypes);
}

} // namespace
