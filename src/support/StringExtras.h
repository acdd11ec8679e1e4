//===- StringExtras.h - String helpers --------------------------*- C++ -*-===//
///
/// \file
/// Small string utilities shared across the project: identifier predicates,
/// escaping for the textual IR format, splitting, and formatting helpers.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_STRINGEXTRAS_H
#define IRDL_SUPPORT_STRINGEXTRAS_H

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace irdl {

namespace detail {
/// Identifier character classes, one table load per character: the IR
/// lexer runs these on every byte of its input.
enum IdentClass : uint8_t { IdentStart = 1, IdentDigit = 2 };

constexpr std::array<uint8_t, 256> buildIdentClasses() {
  std::array<uint8_t, 256> Table{};
  for (int C = 'a'; C <= 'z'; ++C)
    Table[C] = IdentStart;
  for (int C = 'A'; C <= 'Z'; ++C)
    Table[C] = IdentStart;
  Table['_'] = IdentStart;
  for (int C = '0'; C <= '9'; ++C)
    Table[C] = IdentDigit;
  return Table;
}

inline constexpr std::array<uint8_t, 256> IdentClasses = buildIdentClasses();
} // namespace detail

/// Returns true for [a-zA-Z_].
inline bool isIdentifierStart(char C) {
  return detail::IdentClasses[static_cast<unsigned char>(C)] &
         detail::IdentStart;
}
/// Returns true for [a-zA-Z0-9_].
inline bool isIdentifierChar(char C) {
  return detail::IdentClasses[static_cast<unsigned char>(C)] != 0;
}
/// Returns true if \p Str is a non-empty identifier.
bool isIdentifier(std::string_view Str);

/// Escapes a string for inclusion in a double-quoted literal.
std::string escapeString(std::string_view Str);
/// Appends \p Str escaped as escapeString does.
void appendEscaped(std::string &Out, std::string_view Str);

/// Unescapes the body of a double-quoted literal (without the quotes).
/// Returns std::nullopt on a malformed escape.
std::optional<std::string> unescapeString(std::string_view Body);

/// Splits \p Str on \p Sep; empty pieces are kept.
std::vector<std::string_view> splitString(std::string_view Str, char Sep);

/// Returns true if \p Str starts with \p Prefix.
inline bool startsWith(std::string_view Str, std::string_view Prefix) {
  return Str.substr(0, Prefix.size()) == Prefix;
}

/// Parses a decimal unsigned integer; returns nullopt on failure/overflow.
std::optional<uint64_t> parseUInt(std::string_view Str);

/// The value of an integer literal with magnitude \p Magnitude, negated
/// when \p Negative; nullopt when it lies outside int64_t.
std::optional<int64_t> applySign(uint64_t Magnitude, bool Negative);

/// Converts a decimal floating-point literal (`1.5`, `2e10`) without
/// allocating. A literal beyond the range of double becomes HUGE_VAL or 0,
/// as with strtod.
double parseDouble(std::string_view Str);

/// Joins \p Pieces with \p Sep.
std::string join(const std::vector<std::string> &Pieces,
                 std::string_view Sep);

} // namespace irdl

#endif // IRDL_SUPPORT_STRINGEXTRAS_H
