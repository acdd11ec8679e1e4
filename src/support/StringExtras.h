//===- StringExtras.h - String helpers --------------------------*- C++ -*-===//
///
/// \file
/// Small string utilities shared across the project: identifier predicates,
/// escaping for the textual IR format, splitting, and formatting helpers.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SUPPORT_STRINGEXTRAS_H
#define IRDL_SUPPORT_STRINGEXTRAS_H

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace irdl {

/// Returns true for [a-zA-Z_].
bool isIdentifierStart(char C);
/// Returns true for [a-zA-Z0-9_].
bool isIdentifierChar(char C);
/// Returns true if \p Str is a non-empty identifier.
bool isIdentifier(std::string_view Str);

/// Escapes a string for inclusion in a double-quoted literal.
std::string escapeString(std::string_view Str);

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
