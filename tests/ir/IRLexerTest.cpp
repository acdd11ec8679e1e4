//===- IRLexerTest.cpp - Tokenizer tests ----------------------------------===//

#include "ir/IRLexer.h"

#include <gtest/gtest.h>

using namespace irdl;

namespace {

/// A token with its spelling copied: IRToken's spelling may view storage
/// owned by the lexer, which lexAll destroys before returning.
struct LexedToken {
  IRToken::Kind K;
  std::string Spelling;

  bool isIdent(std::string_view Str) const {
    return K == IRToken::Kind::Identifier && Spelling == Str;
  }
};

std::vector<LexedToken> lexAll(std::string_view Src, DiagnosticEngine &Diags) {
  IRLexer Lex(Src, Diags);
  std::vector<LexedToken> Tokens;
  while (!Lex.getToken().is(IRToken::Kind::Eof) &&
         !Lex.getToken().is(IRToken::Kind::Error)) {
    Tokens.push_back({Lex.getToken().K, std::string(Lex.getToken().Spelling)});
    Lex.lex();
  }
  Tokens.push_back({Lex.getToken().K, std::string(Lex.getToken().Spelling)});
  return Tokens;
}

TEST(IRLexerTest, Punctuation) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("( ) { } < > [ ] , : = . ? + * ! #", Diags);
  std::vector<IRToken::Kind> Kinds;
  for (const LexedToken &T : Tokens)
    Kinds.push_back(T.K);
  using K = IRToken::Kind;
  EXPECT_EQ(Kinds, (std::vector<K>{
                       K::LParen, K::RParen, K::LBrace, K::RBrace, K::Less,
                       K::Greater, K::LSquare, K::RSquare, K::Comma,
                       K::Colon, K::Equal, K::Dot, K::Question, K::Plus,
                       K::Star, K::Bang, K::Hash, K::Eof}));
}

TEST(IRLexerTest, ArrowVsMinus) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("-> - -5", Diags);
  EXPECT_EQ(Tokens[0].K, IRToken::Kind::Arrow);
  EXPECT_EQ(Tokens[1].K, IRToken::Kind::Minus);
  EXPECT_EQ(Tokens[2].K, IRToken::Kind::Minus);
  EXPECT_EQ(Tokens[3].K, IRToken::Kind::Integer);
  EXPECT_EQ(Tokens[3].Spelling, "5");
}

TEST(IRLexerTest, Numbers) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("42 3.5 1e10 2.5e-3 7.", Diags);
  EXPECT_EQ(Tokens[0].K, IRToken::Kind::Integer);
  EXPECT_EQ(Tokens[1].K, IRToken::Kind::Float);
  EXPECT_EQ(Tokens[1].Spelling, "3.5");
  EXPECT_EQ(Tokens[2].K, IRToken::Kind::Float);
  EXPECT_EQ(Tokens[3].K, IRToken::Kind::Float);
  EXPECT_EQ(Tokens[3].Spelling, "2.5e-3");
  // "7." is integer followed by dot (dots need a trailing digit).
  EXPECT_EQ(Tokens[4].K, IRToken::Kind::Integer);
  EXPECT_EQ(Tokens[5].K, IRToken::Kind::Dot);
}

TEST(IRLexerTest, Identifiers) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("foo _bar baz123 f32", Diags);
  for (int I = 0; I < 4; ++I)
    EXPECT_EQ(Tokens[I].K, IRToken::Kind::Identifier);
  EXPECT_EQ(Tokens[0].Spelling, "foo");
  EXPECT_EQ(Tokens[1].Spelling, "_bar");
  EXPECT_TRUE(Tokens[3].isIdent("f32"));
}

TEST(IRLexerTest, SigilIdentifiers) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("%val %12 %5#2 ^bb0 @sym", Diags);
  EXPECT_EQ(Tokens[0].K, IRToken::Kind::PercentId);
  EXPECT_EQ(Tokens[0].Spelling, "val");
  EXPECT_EQ(Tokens[1].Spelling, "12");
  EXPECT_EQ(Tokens[2].Spelling, "5#2");
  EXPECT_EQ(Tokens[3].K, IRToken::Kind::CaretId);
  EXPECT_EQ(Tokens[3].Spelling, "bb0");
  EXPECT_EQ(Tokens[4].K, IRToken::Kind::AtId);
  EXPECT_EQ(Tokens[4].Spelling, "sym");
}

TEST(IRLexerTest, Strings) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll(R"("plain" "with \"quotes\"" "nl\n")", Diags);
  EXPECT_EQ(Tokens[0].K, IRToken::Kind::String);
  EXPECT_EQ(Tokens[0].Spelling, "plain");
  EXPECT_EQ(Tokens[1].Spelling, "with \"quotes\"");
  EXPECT_EQ(Tokens[2].Spelling, "nl\n");
}

TEST(IRLexerTest, StringSpellingsOutliveLaterTokens) {
  DiagnosticEngine Diags;
  std::string_view Src = R"("esc\"aped" "plain" "x\ty" foo)";
  IRLexer Lex(Src, Diags);
  std::string_view Escaped = Lex.getToken().Spelling;
  std::string_view Plain = Lex.lex().Spelling;
  std::string_view Tab = Lex.lex().Spelling;
  EXPECT_TRUE(Lex.lex().isIdent("foo"));
  EXPECT_TRUE(Lex.lex().is(IRToken::Kind::Eof));
  EXPECT_EQ(Escaped, "esc\"aped");
  EXPECT_EQ(Tab, "x\ty");
  // A literal without escapes views the source, without its quotes.
  EXPECT_EQ(Plain, "plain");
  EXPECT_EQ(Plain.data(), Src.data() + Src.find("plain"));
}

TEST(IRLexerTest, UnterminatedString) {
  DiagnosticEngine Diags;
  IRLexer Lex("\"oops", Diags);
  EXPECT_EQ(Lex.getToken().K, IRToken::Kind::Error);
  EXPECT_TRUE(Diags.hadError());
}

TEST(IRLexerTest, InvalidEscape) {
  DiagnosticEngine Diags;
  IRLexer Lex(R"("bad\q")", Diags);
  EXPECT_EQ(Lex.getToken().K, IRToken::Kind::Error);
}

TEST(IRLexerTest, Comments) {
  DiagnosticEngine Diags;
  auto Tokens = lexAll("a // comment until eol\nb", Diags);
  ASSERT_EQ(Tokens.size(), 3u);
  EXPECT_EQ(Tokens[0].Spelling, "a");
  EXPECT_EQ(Tokens[1].Spelling, "b");
}

TEST(IRLexerTest, UnexpectedCharacter) {
  DiagnosticEngine Diags;
  IRLexer Lex("`", Diags);
  EXPECT_EQ(Lex.getToken().K, IRToken::Kind::Error);
  EXPECT_TRUE(Diags.hadError());
}

TEST(IRLexerTest, LocationsPointIntoSource) {
  DiagnosticEngine Diags;
  std::string Src = "abc def";
  IRLexer Lex(Src, Diags);
  EXPECT_EQ(Lex.getToken().Loc.getPointer(), Src.data());
  Lex.lex();
  EXPECT_EQ(Lex.getToken().Loc.getPointer(), Src.data() + 4);
}

TEST(IRLexerTest, EmptyInput) {
  DiagnosticEngine Diags;
  IRLexer Lex("", Diags);
  EXPECT_TRUE(Lex.getToken().is(IRToken::Kind::Eof));
  // Lexing past EOF stays at EOF.
  Lex.lex();
  EXPECT_TRUE(Lex.getToken().is(IRToken::Kind::Eof));
}

} // namespace
