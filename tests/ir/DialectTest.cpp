//===- DialectTest.cpp - The flat definition registry --------------------===//

#include "ir/Context.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

template <typename T> std::vector<std::string_view> namesOf(const T &Defs) {
  std::vector<std::string_view> Names;
  for (const auto *Def : Defs)
    Names.push_back(Def->getShortName());
  return Names;
}

TEST(DialectTest, DefinitionsIterateInNameOrder) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("reg");
  // Registered out of order, with names shared across kinds and names
  // that are prefixes of one another.
  for (const char *Name : {"mul", "add", "addi", "sub", "cast"})
    ASSERT_NE(D->addOp(Name), nullptr) << Name;
  for (const char *Name : {"pair", "add", "complex"})
    ASSERT_NE(D->addType(Name), nullptr) << Name;
  for (const char *Name : {"mode", "cast"})
    ASSERT_NE(D->addAttr(Name), nullptr) << Name;
  ASSERT_NE(D->addEnum("kind", {"a", "b"}), nullptr);
  ASSERT_NE(D->addEnum("add", {"x"}), nullptr);

  EXPECT_EQ(namesOf(D->getOpDefs()),
            (std::vector<std::string_view>{"add", "addi", "cast", "mul",
                                           "sub"}));
  EXPECT_EQ(namesOf(D->getTypeDefs()),
            (std::vector<std::string_view>{"add", "complex", "pair"}));
  EXPECT_EQ(namesOf(D->getAttrDefs()),
            (std::vector<std::string_view>{"cast", "mode"}));
  EXPECT_EQ(namesOf(D->getEnumDefs()),
            (std::vector<std::string_view>{"add", "kind"}));

  // A name is taken per kind: a second definition of the same kind is
  // rejected and leaves the first in place.
  OpDefinition *Add = D->lookupOp("add");
  ASSERT_NE(Add, nullptr);
  EXPECT_EQ(D->addOp("add"), nullptr);
  EXPECT_EQ(D->addType("pair"), nullptr);
  EXPECT_EQ(D->addAttr("mode"), nullptr);
  EXPECT_EQ(D->addEnum("kind", {"c"}), nullptr);
  EXPECT_EQ(D->lookupOp("add"), Add);
  EXPECT_EQ(D->getOpDefs().size(), 5u);
  EXPECT_EQ(D->lookupEnum("kind")->getCases().size(), 2u);

  // Lookups find each kind under the shared name, and nothing else.
  EXPECT_EQ(D->lookupType("add")->getShortName(), "add");
  EXPECT_EQ(D->lookupEnum("add")->getFullName(), "reg.add");
  EXPECT_EQ(Add->getFullName(), "reg.add");
  EXPECT_EQ(D->lookupAttr("add"), nullptr);
  EXPECT_EQ(D->lookupOp("ad"), nullptr);
  EXPECT_EQ(D->lookupOp("addition"), nullptr);
  EXPECT_EQ(Ctx.resolveOpDef("reg.addi")->getShortName(), "addi");
}

TEST(DialectTest, NamesAreCopied) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("copy");
  std::string Name = "transient";
  TypeDefinition *T = D->addType(Name);
  std::string Param = "width";
  T->setParamNames(std::vector<std::string_view>{Param});
  Name.assign(Name.size(), 'x');
  Param.assign(Param.size(), 'x');
  EXPECT_EQ(T->getShortName(), "transient");
  EXPECT_EQ(D->lookupType("transient"), T);
  EXPECT_EQ(T->lookupParam("width"), 0u);
}

} // namespace
