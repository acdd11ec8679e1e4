//===- IRLexer.cpp --------------------------------------------------===//

#include "ir/IRLexer.h"

#include "support/StringExtras.h"

using namespace irdl;

IRLexer::IRLexer(std::string_view Source, DiagnosticEngine &Diags)
    : Cur(Source.data()), End(Source.data() + Source.size()), Diags(Diags) {
  Tok = lexImpl();
}

const IRToken &IRLexer::lex() {
  Tok = lexImpl();
  return Tok;
}

IRToken IRLexer::makeToken(IRToken::Kind K, const char *Start) {
  IRToken T;
  T.K = K;
  T.Spelling = std::string_view(Start, Cur - Start);
  T.Loc = SMLoc::getFromPointer(Start);
  return T;
}

IRToken IRLexer::lexImpl() {
  // Skip whitespace and comments.
  while (Cur != End) {
    if (*Cur == ' ' || *Cur == '\t' || *Cur == '\n' || *Cur == '\r') {
      ++Cur;
      continue;
    }
    if (*Cur == '/' && Cur + 1 != End && Cur[1] == '/') {
      while (Cur != End && *Cur != '\n')
        ++Cur;
      continue;
    }
    break;
  }

  const char *Start = Cur;
  if (Cur == End)
    return makeToken(IRToken::Kind::Eof, Start);

  char C = *Cur++;
  switch (C) {
  case '(':
    return makeToken(IRToken::Kind::LParen, Start);
  case ')':
    return makeToken(IRToken::Kind::RParen, Start);
  case '{':
    return makeToken(IRToken::Kind::LBrace, Start);
  case '}':
    return makeToken(IRToken::Kind::RBrace, Start);
  case '<':
    return makeToken(IRToken::Kind::Less, Start);
  case '>':
    return makeToken(IRToken::Kind::Greater, Start);
  case '[':
    return makeToken(IRToken::Kind::LSquare, Start);
  case ']':
    return makeToken(IRToken::Kind::RSquare, Start);
  case ',':
    return makeToken(IRToken::Kind::Comma, Start);
  case ':':
    return makeToken(IRToken::Kind::Colon, Start);
  case '=':
    return makeToken(IRToken::Kind::Equal, Start);
  case '+':
    return makeToken(IRToken::Kind::Plus, Start);
  case '*':
    return makeToken(IRToken::Kind::Star, Start);
  case '.':
    return makeToken(IRToken::Kind::Dot, Start);
  case '?':
    return makeToken(IRToken::Kind::Question, Start);
  case '!':
    return makeToken(IRToken::Kind::Bang, Start);
  case '#':
    return makeToken(IRToken::Kind::Hash, Start);
  case '-':
    if (Cur != End && *Cur == '>') {
      ++Cur;
      return makeToken(IRToken::Kind::Arrow, Start);
    }
    return makeToken(IRToken::Kind::Minus, Start);
  case '%':
    return lexPrefixedIdent(Start, IRToken::Kind::PercentId,
                            /*AllowHashSuffix=*/true);
  case '^':
    return lexPrefixedIdent(Start, IRToken::Kind::CaretId,
                            /*AllowHashSuffix=*/false);
  case '@':
    return lexPrefixedIdent(Start, IRToken::Kind::AtId,
                            /*AllowHashSuffix=*/false);
  case '"':
    return lexString(Start);
  default:
    break;
  }

  if (C >= '0' && C <= '9')
    return lexNumber(Start);

  if (isIdentifierStart(C)) {
    while (Cur != End && isIdentifierChar(*Cur))
      ++Cur;
    return makeToken(IRToken::Kind::Identifier, Start);
  }

  Diags.emitError(SMLoc::getFromPointer(Start),
                  std::string("unexpected character '") + C + "'");
  return makeToken(IRToken::Kind::Error, Start);
}

IRToken IRLexer::lexNumber(const char *Start) {
  while (Cur != End && *Cur >= '0' && *Cur <= '9')
    ++Cur;
  bool IsFloat = false;
  if (Cur != End && *Cur == '.' && Cur + 1 != End && Cur[1] >= '0' &&
      Cur[1] <= '9') {
    IsFloat = true;
    ++Cur;
    while (Cur != End && *Cur >= '0' && *Cur <= '9')
      ++Cur;
  }
  if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
    const char *Save = Cur;
    ++Cur;
    if (Cur != End && (*Cur == '+' || *Cur == '-'))
      ++Cur;
    if (Cur != End && *Cur >= '0' && *Cur <= '9') {
      IsFloat = true;
      while (Cur != End && *Cur >= '0' && *Cur <= '9')
        ++Cur;
    } else {
      Cur = Save;
    }
  }
  return makeToken(IsFloat ? IRToken::Kind::Float : IRToken::Kind::Integer,
                   Start);
}

IRToken IRLexer::lexString(const char *Start) {
  const char *Body = Cur;
  // Set at the first escape; the body is then built here instead of viewed.
  std::string *Buf = nullptr;
  while (true) {
    if (Cur == End) {
      Diags.emitError(SMLoc::getFromPointer(Start),
                      "unterminated string literal");
      return makeToken(IRToken::Kind::Error, Start);
    }
    char C = *Cur++;
    if (C == '"')
      break;
    if (C == '\\') {
      if (Cur == End) {
        Diags.emitError(SMLoc::getFromPointer(Start),
                        "unterminated string literal");
        return makeToken(IRToken::Kind::Error, Start);
      }
      char E = *Cur++;
      switch (E) {
      case 'n':
        C = '\n';
        break;
      case 't':
        C = '\t';
        break;
      case '"':
      case '\\':
        C = E;
        break;
      default:
        Diags.emitError(SMLoc::getFromPointer(Cur - 2),
                        "invalid escape sequence");
        return makeToken(IRToken::Kind::Error, Start);
      }
      if (!Buf)
        Buf = &Unescaped.emplace_front(Body, Cur - 2 - Body);
      *Buf += C;
      continue;
    }
    if (Buf)
      *Buf += C;
  }
  IRToken T;
  T.K = IRToken::Kind::String;
  T.Spelling = Buf ? std::string_view(*Buf)
                   : std::string_view(Body, Cur - 1 - Body);
  T.Loc = SMLoc::getFromPointer(Start);
  return T;
}

IRToken IRLexer::lexPrefixedIdent(const char *Start, IRToken::Kind K,
                                  bool AllowHashSuffix) {
  const char *Body = Cur;
  while (Cur != End && isIdentifierChar(*Cur))
    ++Cur;
  if (Cur == Body) {
    Diags.emitError(SMLoc::getFromPointer(Start),
                    "expected identifier after sigil");
    return makeToken(IRToken::Kind::Error, Start);
  }
  if (AllowHashSuffix && Cur != End && *Cur == '#') {
    ++Cur;
    while (Cur != End && *Cur >= '0' && *Cur <= '9')
      ++Cur;
  }
  IRToken T;
  T.K = K;
  T.Spelling = std::string_view(Body, Cur - Body);
  T.Loc = SMLoc::getFromPointer(Start);
  return T;
}
