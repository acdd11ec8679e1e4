//===- IRLexer.h - Lexer for the textual IR format ---------------*- C++ -*-===//
///
/// \file
/// Tokenizer for the MLIR-like textual IR syntax. Also reused by the
/// declarative-format op parsers, which consume the same token stream.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_IRLEXER_H
#define IRDL_IR_IRLEXER_H

#include "support/Diagnostics.h"
#include "support/SourceMgr.h"

#include <forward_list>
#include <string>
#include <string_view>

namespace irdl {

struct IRToken {
  enum class Kind {
    Eof,
    Error,
    Identifier,   // foo, f32, i32
    Integer,      // 123 (no sign; '-' is a separate token)
    Float,        // 1.5, 2e10
    String,       // "..." (Spelling excludes quotes, unescaped)
    PercentId,    // %foo, %12, %12#3
    CaretId,      // ^bb0
    AtId,         // @symbol
    Bang,         // !
    Hash,         // #
    LParen,
    RParen,
    LBrace,
    RBrace,
    Less,
    Greater,
    LSquare,
    RSquare,
    Comma,
    Colon,
    Equal,
    Arrow, // ->
    Minus, // - (when not part of ->)
    Plus,
    Star,
    Dot,
    Question,
  };

  Kind K = Kind::Eof;
  /// Token text, viewing the source buffer. For String it is the
  /// unescaped body, held by the lexer when the literal has escapes; for
  /// PercentId / CaretId / AtId it excludes the sigil. Valid while both the
  /// source buffer and the lexer live.
  std::string_view Spelling;
  SMLoc Loc;

  bool is(Kind Other) const { return K == Other; }
  bool isIdent(std::string_view Str) const {
    return K == Kind::Identifier && Spelling == Str;
  }
};

/// A single-token-lookahead lexer over a source buffer. Tokens view the
/// buffer, so lexing allocates only for string literals with escapes.
class IRLexer {
public:
  IRLexer(std::string_view Source, DiagnosticEngine &Diags);
  /// A copy's current token would view the original's unescaped storage.
  IRLexer(const IRLexer &) = delete;
  IRLexer &operator=(const IRLexer &) = delete;

  /// The current token.
  const IRToken &getToken() const { return Tok; }

  /// Advances to the next token and returns it.
  const IRToken &lex();

  /// Location just past the current token.
  SMLoc getCurrentLoc() const {
    return SMLoc::getFromPointer(Cur);
  }

private:
  /// Each of these lexes one token into Tok.
  void lexImpl();
  /// A token of kind \p K spelled [Start, Cur).
  void setToken(IRToken::Kind K, const char *Start);
  void lexNumber(const char *Start);
  void lexString(const char *Start);
  void lexPrefixedIdent(const char *Start, IRToken::Kind K,
                        bool AllowHashSuffix);

  const char *Cur;
  const char *End;
  DiagnosticEngine &Diags;
  IRToken Tok;
  /// Unescaped bodies of string literals with escapes; a list so earlier
  /// tokens' spellings stay valid, and one that allocates nothing until
  /// a literal has an escape.
  std::forward_list<std::string> Unescaped;
};

} // namespace irdl

#endif // IRDL_IR_IRLEXER_H
