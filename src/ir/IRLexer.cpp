//===- IRLexer.cpp --------------------------------------------------===//

#include "ir/IRLexer.h"

#include "support/StringExtras.h"

#include <array>
#include <cstring>

using namespace irdl;

namespace {

/// What the lexer does at a byte, one table load per byte: the identifier
/// classes of StringExtras.h, whitespace, the bytes that start a longer
/// token, and for each single-byte punctuator Punct plus its token kind.
enum CharClass : uint8_t {
  Invalid,
  IdentStart, // [a-zA-Z_]
  Digit,      // [0-9]
  Space,      // ' ', '\t', '\n', '\r'
  Slash,      // '/': a comment when doubled
  Minus,      // '-' or the start of '->'
  Percent,
  Caret,
  At,
  Quote,
  Punct,
};

constexpr std::array<uint8_t, 256> buildCharClasses() {
  std::array<uint8_t, 256> Table{};
  for (unsigned C = 0; C != 256; ++C) {
    if (detail::IdentClasses[C] & detail::IdentStart)
      Table[C] = IdentStart;
    else if (detail::IdentClasses[C] & detail::IdentDigit)
      Table[C] = Digit;
  }
  for (char C : {' ', '\t', '\n', '\r'})
    Table[static_cast<unsigned char>(C)] = Space;
  Table['/'] = Slash;
  Table['-'] = Minus;
  Table['%'] = Percent;
  Table['^'] = Caret;
  Table['@'] = At;
  Table['"'] = Quote;
  using K = IRToken::Kind;
  const std::pair<char, K> Punctuators[] = {
      {'(', K::LParen},  {')', K::RParen},  {'{', K::LBrace},
      {'}', K::RBrace},  {'<', K::Less},    {'>', K::Greater},
      {'[', K::LSquare}, {']', K::RSquare}, {',', K::Comma},
      {':', K::Colon},   {'=', K::Equal},   {'+', K::Plus},
      {'*', K::Star},    {'.', K::Dot},     {'?', K::Question},
      {'!', K::Bang},    {'#', K::Hash}};
  for (const auto &[C, Kind] : Punctuators)
    Table[static_cast<unsigned char>(C)] = Punct + static_cast<uint8_t>(Kind);
  return Table;
}

constexpr std::array<uint8_t, 256> CharClasses = buildCharClasses();
static_assert(Punct + static_cast<unsigned>(IRToken::Kind::Question) < 256);

uint8_t classOf(char C) {
  return CharClasses[static_cast<unsigned char>(C)];
}

bool isIdentClass(uint8_t Class) {
  return Class == IdentStart || Class == Digit;
}

bool isDigit(char C) { return C >= '0' && C <= '9'; }

} // namespace

IRLexer::IRLexer(std::string_view Source, DiagnosticEngine &Diags)
    : Cur(Source.data()), End(Source.data() + Source.size()), Diags(Diags) {
  lexImpl();
}

const IRToken &IRLexer::lex() {
  lexImpl();
  return Tok;
}

void IRLexer::setToken(IRToken::Kind K, const char *Start) {
  Tok.K = K;
  Tok.Spelling = std::string_view(Start, Cur - Start);
  Tok.Loc = SMLoc::getFromPointer(Start);
}

void IRLexer::lexImpl() {
  // Skip whitespace and comments.
  uint8_t Class = Invalid;
  while (Cur != End) {
    Class = classOf(*Cur);
    if (Class == Space) {
      ++Cur;
      continue;
    }
    if (Class == Slash && Cur + 1 != End && Cur[1] == '/') {
      const void *Eol = std::memchr(Cur, '\n', End - Cur);
      Cur = Eol ? static_cast<const char *>(Eol) : End;
      continue;
    }
    break;
  }

  const char *Start = Cur;
  if (Cur == End)
    return setToken(IRToken::Kind::Eof, Start);
  ++Cur;

  if (Class >= Punct)
    return setToken(static_cast<IRToken::Kind>(Class - Punct), Start);
  if (Class == IdentStart) {
    while (Cur != End && isIdentClass(classOf(*Cur)))
      ++Cur;
    return setToken(IRToken::Kind::Identifier, Start);
  }
  if (Class == Percent)
    return lexPrefixedIdent(Start, IRToken::Kind::PercentId,
                            /*AllowHashSuffix=*/true);
  if (Class == Digit)
    return lexNumber(Start);
  if (Class == Minus) {
    if (Cur != End && *Cur == '>') {
      ++Cur;
      return setToken(IRToken::Kind::Arrow, Start);
    }
    return setToken(IRToken::Kind::Minus, Start);
  }
  if (Class == Quote)
    return lexString(Start);
  if (Class == Caret)
    return lexPrefixedIdent(Start, IRToken::Kind::CaretId,
                            /*AllowHashSuffix=*/false);
  if (Class == At)
    return lexPrefixedIdent(Start, IRToken::Kind::AtId,
                            /*AllowHashSuffix=*/false);

  Diags.emitError(SMLoc::getFromPointer(Start),
                  std::string("unexpected character '") + *Start + "'");
  setToken(IRToken::Kind::Error, Start);
}

void IRLexer::lexNumber(const char *Start) {
  while (Cur != End && isDigit(*Cur))
    ++Cur;
  bool IsFloat = false;
  if (Cur != End && *Cur == '.' && Cur + 1 != End && isDigit(Cur[1])) {
    IsFloat = true;
    ++Cur;
    while (Cur != End && isDigit(*Cur))
      ++Cur;
  }
  if (Cur != End && (*Cur == 'e' || *Cur == 'E')) {
    const char *Save = Cur;
    ++Cur;
    if (Cur != End && (*Cur == '+' || *Cur == '-'))
      ++Cur;
    if (Cur != End && isDigit(*Cur)) {
      IsFloat = true;
      while (Cur != End && isDigit(*Cur))
        ++Cur;
    } else {
      Cur = Save;
    }
  }
  setToken(IsFloat ? IRToken::Kind::Float : IRToken::Kind::Integer, Start);
}

void IRLexer::lexString(const char *Start) {
  const char *Body = Cur;
  // Set at the first escape; the body is then built here instead of viewed.
  std::string *Buf = nullptr;
  while (true) {
    const char *Run = Cur;
    while (Cur != End && *Cur != '"' && *Cur != '\\')
      ++Cur;
    if (Buf)
      Buf->append(Run, Cur);
    if (Cur == End) {
      Diags.emitError(SMLoc::getFromPointer(Start),
                      "unterminated string literal");
      return setToken(IRToken::Kind::Error, Start);
    }
    if (*Cur++ == '"')
      break;
    if (Cur == End) {
      Diags.emitError(SMLoc::getFromPointer(Start),
                      "unterminated string literal");
      return setToken(IRToken::Kind::Error, Start);
    }
    char E = *Cur++;
    char C;
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
      return setToken(IRToken::Kind::Error, Start);
    }
    if (!Buf)
      Buf = &Unescaped.emplace_front(Body, Cur - 2 - Body);
    *Buf += C;
  }
  Tok.K = IRToken::Kind::String;
  Tok.Spelling = Buf ? std::string_view(*Buf)
                     : std::string_view(Body, Cur - 1 - Body);
  Tok.Loc = SMLoc::getFromPointer(Start);
}

void IRLexer::lexPrefixedIdent(const char *Start, IRToken::Kind K,
                               bool AllowHashSuffix) {
  const char *Body = Cur;
  while (Cur != End && isIdentClass(classOf(*Cur)))
    ++Cur;
  if (Cur == Body) {
    Diags.emitError(SMLoc::getFromPointer(Start),
                    "expected identifier after sigil");
    return setToken(IRToken::Kind::Error, Start);
  }
  if (AllowHashSuffix && Cur != End && *Cur == '#') {
    ++Cur;
    while (Cur != End && isDigit(*Cur))
      ++Cur;
  }
  Tok.K = K;
  Tok.Spelling = std::string_view(Body, Cur - Body);
  Tok.Loc = SMLoc::getFromPointer(Start);
}
