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

/// One token of \p Src as the lexer produced it: kind, offset, extent and
/// spelling, plus the messages and offsets of what it diagnosed.
struct Lexed {
  IRToken::Kind K;
  size_t Offset;
  size_t Length;
  std::string Spelling;
};

std::vector<Lexed> lexWithExtents(std::string_view Src,
                                  std::string *Diagnosed) {
  DiagnosticEngine Diags;
  IRLexer Lex(Src, Diags);
  std::vector<Lexed> Tokens;
  while (true) {
    const IRToken &T = Lex.getToken();
    const char *Start = T.Loc.getPointer();
    Tokens.push_back({T.K, size_t(Start - Src.data()),
                      size_t(Lex.getCurrentLoc().getPointer() - Start),
                      std::string(T.Spelling)});
    if (T.is(IRToken::Kind::Eof))
      break;
    Lex.lex();
  }
  for (const Diagnostic &D : Diags.getDiagnostics())
    *Diagnosed += std::to_string(D.getLocation().getPointer() - Src.data()) +
                  ": " + D.getMessage() + "\n";
  return Tokens;
}

TEST(IRLexerTest, EachPunctuatorAlone) {
  using K = IRToken::Kind;
  const std::pair<char, K> Punctuators[] = {
      {'(', K::LParen},   {')', K::RParen},  {'{', K::LBrace},
      {'}', K::RBrace},   {'<', K::Less},    {'>', K::Greater},
      {'[', K::LSquare},  {']', K::RSquare}, {',', K::Comma},
      {':', K::Colon},    {'=', K::Equal},   {'+', K::Plus},
      {'*', K::Star},     {'.', K::Dot},     {'?', K::Question},
      {'!', K::Bang},     {'#', K::Hash},    {'-', K::Minus}};
  for (const auto &[C, Kind] : Punctuators) {
    for (std::string Src : {std::string(1, C), " \t" + std::string(1, C) +
                                                    "\r\nx"}) {
      std::string Diagnosed;
      auto Tokens = lexWithExtents(Src, &Diagnosed);
      size_t At = Src.find(C);
      ASSERT_GE(Tokens.size(), 2u) << C;
      EXPECT_EQ(Tokens[0].K, Kind) << C;
      EXPECT_EQ(Tokens[0].Offset, At) << C;
      EXPECT_EQ(Tokens[0].Length, 1u) << C;
      EXPECT_EQ(Tokens[0].Spelling, std::string(1, C));
      EXPECT_EQ(Diagnosed, "") << C;
    }
  }
}

TEST(IRLexerTest, MinusAndArrow) {
  using K = IRToken::Kind;
  std::string Diagnosed;
  auto Tokens = lexWithExtents("-->- >->-", &Diagnosed);
  std::vector<std::pair<K, size_t>> Got;
  for (const Lexed &T : Tokens)
    Got.push_back({T.K, T.Length});
  EXPECT_EQ(Got, (std::vector<std::pair<K, size_t>>{{K::Minus, 1},
                                                    {K::Arrow, 2},
                                                    {K::Minus, 1},
                                                    {K::Greater, 1},
                                                    {K::Arrow, 2},
                                                    {K::Minus, 1},
                                                    {K::Eof, 0}}));
  EXPECT_EQ(Diagnosed, "");
}

TEST(IRLexerTest, ResultNumberSuffix) {
  std::string Diagnosed;
  auto Tokens = lexWithExtents("%x#3 %x# %7#12a ^b#1 @s#2", &Diagnosed);
  using K = IRToken::Kind;
  ASSERT_EQ(Tokens.size(), 11u);
  EXPECT_EQ(Tokens[0].K, K::PercentId);
  EXPECT_EQ(Tokens[0].Spelling, "x#3");
  EXPECT_EQ(Tokens[0].Length, 4u);
  // A bare '#' still belongs to the value name.
  EXPECT_EQ(Tokens[1].Spelling, "x#");
  EXPECT_EQ(Tokens[2].Spelling, "7#12");
  EXPECT_TRUE(Tokens[3].K == K::Identifier && Tokens[3].Spelling == "a");
  // Only value names take the suffix.
  EXPECT_EQ(Tokens[4].K, K::CaretId);
  EXPECT_EQ(Tokens[4].Spelling, "b");
  EXPECT_EQ(Tokens[5].K, K::Hash);
  EXPECT_EQ(Tokens[6].K, K::Integer);
  EXPECT_EQ(Tokens[7].K, K::AtId);
  EXPECT_EQ(Tokens[7].Spelling, "s");
  EXPECT_EQ(Tokens[8].K, K::Hash);
  EXPECT_EQ(Tokens[9].Spelling, "2");
  EXPECT_EQ(Tokens[10].K, K::Eof);
  EXPECT_EQ(Diagnosed, "");
}

TEST(IRLexerTest, SigilWithoutName) {
  std::string Diagnosed;
  auto Tokens = lexWithExtents("% ^ @", &Diagnosed);
  ASSERT_EQ(Tokens.size(), 4u);
  for (unsigned I = 0; I != 3; ++I) {
    EXPECT_EQ(Tokens[I].K, IRToken::Kind::Error);
    EXPECT_EQ(Tokens[I].Length, 1u);
  }
  EXPECT_EQ(Diagnosed, "0: expected identifier after sigil\n"
                       "2: expected identifier after sigil\n"
                       "4: expected identifier after sigil\n");
}

TEST(IRLexerTest, CommentAtEndOfFile) {
  for (std::string_view Src : {"a //", "a // no newline", "a//\n//", "//"}) {
    std::string Diagnosed;
    auto Tokens = lexWithExtents(Src, &Diagnosed);
    EXPECT_EQ(Tokens.back().K, IRToken::Kind::Eof) << Src;
    EXPECT_EQ(Tokens.back().Offset, Src.size()) << Src;
    EXPECT_EQ(Tokens.size(), Src == "//" ? 1u : 2u) << Src;
    EXPECT_EQ(Diagnosed, "") << Src;
  }
  // A lone '/' is not a comment.
  std::string Diagnosed;
  auto Tokens = lexWithExtents("a /", &Diagnosed);
  EXPECT_EQ(Tokens[1].K, IRToken::Kind::Error);
  EXPECT_EQ(Diagnosed, "2: unexpected character '/'\n");
}

TEST(IRLexerTest, EscapedStrings) {
  std::string Diagnosed;
  auto Tokens = lexWithExtents(R"("a\\b" "\"" "\t\n" "" x)", &Diagnosed);
  ASSERT_EQ(Tokens.size(), 6u);
  EXPECT_EQ(Tokens[0].Spelling, "a\\b");
  EXPECT_EQ(Tokens[0].Length, 6u);
  EXPECT_EQ(Tokens[1].Spelling, "\"");
  EXPECT_EQ(Tokens[2].Spelling, "\t\n");
  EXPECT_EQ(Tokens[3].K, IRToken::Kind::String);
  EXPECT_EQ(Tokens[3].Spelling, "");
  EXPECT_EQ(Tokens[3].Length, 2u);
  EXPECT_EQ(Tokens[4].Spelling, "x");
  EXPECT_EQ(Diagnosed, "");

  // After a bad escape, lexing resumes behind it: here at the closing
  // quote, which opens an unterminated literal.
  std::string Bad;
  auto Errors = lexWithExtents(R"("ok\q")", &Bad);
  EXPECT_EQ(Errors[0].K, IRToken::Kind::Error);
  EXPECT_EQ(Errors[0].Length, 5u);
  EXPECT_EQ(Bad, "3: invalid escape sequence\n"
                 "5: unterminated string literal\n");
  std::string Open;
  Errors = lexWithExtents(R"("open\)", &Open);
  EXPECT_EQ(Errors[0].K, IRToken::Kind::Error);
  EXPECT_EQ(Open, "0: unterminated string literal\n");
}

TEST(IRLexerTest, NulAndHighBytes) {
  std::string Src("a\0b\x80\xff c", 7);
  std::string Diagnosed;
  auto Tokens = lexWithExtents(Src, &Diagnosed);
  using K = IRToken::Kind;
  std::vector<K> Kinds;
  for (const Lexed &T : Tokens)
    Kinds.push_back(T.K);
  EXPECT_EQ(Kinds, (std::vector<K>{K::Identifier, K::Error, K::Identifier,
                                   K::Error, K::Error, K::Identifier,
                                   K::Eof}));
  EXPECT_EQ(Tokens[3].Offset, 3u);
  EXPECT_EQ(Tokens[3].Length, 1u);
  EXPECT_EQ(Diagnosed, std::string("1: unexpected character '\0'\n"
                                   "3: unexpected character '\x80'\n"
                                   "4: unexpected character '\xff'\n",
                                   84));
}

} // namespace
