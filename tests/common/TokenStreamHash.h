//===- TokenStreamHash.h - Fingerprint of an IR token stream ---*- C++ -*-===//
///
/// The golden tests pin the IR lexer's output byte for byte: every token
/// of a source (kind, offset, extent and spelling), through the end of
/// the input, and the diagnostics lexing emitted (offset and message),
/// folded into one FNV-1a hash.

#ifndef IRDL_TESTS_COMMON_TOKENSTREAMHASH_H
#define IRDL_TESTS_COMMON_TOKENSTREAMHASH_H

#include "ir/IRLexer.h"

#include <cstdint>
#include <string_view>

namespace irdl {

class Fnv1a {
public:
  void bytes(std::string_view S) {
    for (unsigned char C : S) {
      H ^= C;
      H *= 1099511628211ull;
    }
  }
  void word(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  uint64_t get() const { return H; }

private:
  uint64_t H = 14695981039346656037ull;
};

inline uint64_t fnv1a(std::string_view S) {
  Fnv1a H;
  H.bytes(S);
  return H.get();
}

/// Lexes all of \p Src, continuing past error tokens, and hashes what
/// the lexer produced.
inline uint64_t tokenStreamHash(std::string_view Src) {
  DiagnosticEngine Diags;
  IRLexer Lex(Src, Diags);
  Fnv1a H;
  while (true) {
    const IRToken &T = Lex.getToken();
    const char *Start = T.Loc.getPointer();
    H.word(static_cast<uint64_t>(T.K));
    H.word(static_cast<uint64_t>(Start - Src.data()));
    H.word(static_cast<uint64_t>(Lex.getCurrentLoc().getPointer() - Start));
    H.word(T.Spelling.size());
    H.bytes(T.Spelling);
    if (T.is(IRToken::Kind::Eof))
      break;
    Lex.lex();
  }
  for (const Diagnostic &D : Diags.getDiagnostics()) {
    H.word(static_cast<uint64_t>(D.getLocation().getPointer() - Src.data()));
    H.bytes(D.getMessage());
  }
  return H.get();
}

} // namespace irdl

#endif // IRDL_TESTS_COMMON_TOKENSTREAMHASH_H
