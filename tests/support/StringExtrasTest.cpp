//===- StringExtrasTest.cpp -------------------------------------------===//

#include "support/StringExtras.h"

#include <gtest/gtest.h>

#include <cmath>

using namespace irdl;

namespace {

TEST(StringExtrasTest, IdentifierPredicates) {
  EXPECT_TRUE(isIdentifierStart('a'));
  EXPECT_TRUE(isIdentifierStart('Z'));
  EXPECT_TRUE(isIdentifierStart('_'));
  EXPECT_FALSE(isIdentifierStart('3'));
  EXPECT_TRUE(isIdentifierChar('3'));
  EXPECT_FALSE(isIdentifierChar('-'));

  EXPECT_TRUE(isIdentifier("foo_bar3"));
  EXPECT_FALSE(isIdentifier("3foo"));
  EXPECT_FALSE(isIdentifier(""));
  EXPECT_FALSE(isIdentifier("a-b"));
}

TEST(StringExtrasTest, EscapeString) {
  EXPECT_EQ(escapeString("plain"), "plain");
  EXPECT_EQ(escapeString("a\"b"), "a\\\"b");
  EXPECT_EQ(escapeString("a\\b"), "a\\\\b");
  EXPECT_EQ(escapeString("a\nb\tc"), "a\\nb\\tc");
}

TEST(StringExtrasTest, UnescapeString) {
  EXPECT_EQ(unescapeString("plain"), "plain");
  EXPECT_EQ(unescapeString("a\\\"b"), "a\"b");
  EXPECT_EQ(unescapeString("a\\nb"), "a\nb");
  EXPECT_EQ(unescapeString("bad\\q"), std::nullopt);
  EXPECT_EQ(unescapeString("trailing\\"), std::nullopt);
}

TEST(StringExtrasTest, EscapeRoundTrip) {
  std::string Original = "quote\" slash\\ nl\n tab\t end";
  auto Back = unescapeString(escapeString(Original));
  ASSERT_TRUE(Back.has_value());
  EXPECT_EQ(*Back, Original);
}

TEST(StringExtrasTest, SplitString) {
  auto Pieces = splitString("a.b.c", '.');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "c");

  auto Empty = splitString("", '.');
  ASSERT_EQ(Empty.size(), 1u);
  EXPECT_EQ(Empty[0], "");

  auto Gaps = splitString("a..b", '.');
  ASSERT_EQ(Gaps.size(), 3u);
  EXPECT_EQ(Gaps[1], "");
}

TEST(StringExtrasTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("fo", "foo"));
  EXPECT_TRUE(startsWith("x", ""));
}

TEST(StringExtrasTest, ParseUInt) {
  EXPECT_EQ(parseUInt("0"), 0u);
  EXPECT_EQ(parseUInt("12345"), 12345u);
  EXPECT_EQ(parseUInt(""), std::nullopt);
  EXPECT_EQ(parseUInt("12a"), std::nullopt);
  EXPECT_EQ(parseUInt("18446744073709551615"), UINT64_MAX);
  EXPECT_EQ(parseUInt("18446744073709551616"), std::nullopt);
}

TEST(StringExtrasTest, ApplySign) {
  EXPECT_EQ(applySign(0, true), 0);
  EXPECT_EQ(applySign(5, true), -5);
  EXPECT_EQ(applySign(9223372036854775807u, false), INT64_MAX);
  EXPECT_EQ(applySign(9223372036854775808u, false), std::nullopt);
  EXPECT_EQ(applySign(9223372036854775808u, true), INT64_MIN);
  EXPECT_EQ(applySign(9223372036854775809u, true), std::nullopt);
  EXPECT_EQ(applySign(UINT64_MAX, false), std::nullopt);
}

TEST(StringExtrasTest, ParseDouble) {
  EXPECT_EQ(parseDouble("1.5"), 1.5);
  EXPECT_EQ(parseDouble("2.5e-3"), 2.5e-3);
  EXPECT_EQ(parseDouble("1e10"), 1e10);
  // Out of range rounds as strtod does.
  EXPECT_EQ(parseDouble("1e400"), HUGE_VAL);
  EXPECT_EQ(parseDouble("1e-400"), 0.0);
  EXPECT_EQ(parseDouble("0.001e000000000312"), HUGE_VAL);
  EXPECT_EQ(parseDouble("1" + std::string(400, '0') + ".5"), HUGE_VAL);
  EXPECT_EQ(parseDouble("0." + std::string(400, '0') + "1e50"), 0.0);
}

TEST(StringExtrasTest, Join) {
  EXPECT_EQ(join({"a", "b", "c"}, "."), "a.b.c");
  EXPECT_EQ(join({}, "."), "");
  EXPECT_EQ(join({"solo"}, "."), "solo");
}

} // namespace
