//===- StringExtras.cpp ---------------------------------------------===//

#include "support/StringExtras.h"

#include <algorithm>
#include <charconv>
#include <cmath>

using namespace irdl;

bool irdl::isIdentifier(std::string_view Str) {
  if (Str.empty() || !isIdentifierStart(Str[0]))
    return false;
  for (char C : Str.substr(1))
    if (!isIdentifierChar(C))
      return false;
  return true;
}

void irdl::appendEscaped(std::string &Out, std::string_view Str) {
  for (char C : Str) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      Out += C;
    }
  }
}

std::string irdl::escapeString(std::string_view Str) {
  std::string Result;
  Result.reserve(Str.size());
  appendEscaped(Result, Str);
  return Result;
}

std::optional<std::string> irdl::unescapeString(std::string_view Body) {
  std::string Result;
  Result.reserve(Body.size());
  for (size_t I = 0, E = Body.size(); I != E; ++I) {
    if (Body[I] != '\\') {
      Result += Body[I];
      continue;
    }
    if (++I == E)
      return std::nullopt;
    switch (Body[I]) {
    case '"':
      Result += '"';
      break;
    case '\\':
      Result += '\\';
      break;
    case 'n':
      Result += '\n';
      break;
    case 't':
      Result += '\t';
      break;
    default:
      return std::nullopt;
    }
  }
  return Result;
}

std::vector<std::string_view> irdl::splitString(std::string_view Str,
                                                char Sep) {
  std::vector<std::string_view> Pieces;
  size_t Start = 0;
  while (true) {
    size_t Pos = Str.find(Sep, Start);
    if (Pos == std::string_view::npos) {
      Pieces.push_back(Str.substr(Start));
      return Pieces;
    }
    Pieces.push_back(Str.substr(Start, Pos - Start));
    Start = Pos + 1;
  }
}

std::optional<uint64_t> irdl::parseUInt(std::string_view Str) {
  if (Str.empty())
    return std::nullopt;
  uint64_t Value = 0;
  for (char C : Str) {
    if (C < '0' || C > '9')
      return std::nullopt;
    uint64_t Digit = C - '0';
    if (Value > (UINT64_MAX - Digit) / 10)
      return std::nullopt;
    Value = Value * 10 + Digit;
  }
  return Value;
}

std::optional<int64_t> irdl::applySign(uint64_t Magnitude, bool Negative) {
  constexpr uint64_t MaxPositive = static_cast<uint64_t>(INT64_MAX);
  if (!Negative)
    return Magnitude <= MaxPositive ? std::optional<int64_t>(Magnitude)
                                    : std::nullopt;
  if (Magnitude > MaxPositive + 1)
    return std::nullopt;
  // Negate in unsigned arithmetic: -(2^63) has no positive int64_t.
  return static_cast<int64_t>(0 - Magnitude);
}

double irdl::parseDouble(std::string_view Str) {
  double D = 0;
  const char *First = Str.data(), *Last = First + Str.size();
  if (std::from_chars(First, Last, D).ec != std::errc::result_out_of_range)
    return D;
  // from_chars leaves D unset out of range. The literal's magnitude is then
  // far from 1, so the sign of its leading digit's decimal exponent tells
  // overflow from underflow.
  size_t ExpPos = Str.find_first_of("eE");
  std::string_view Mantissa = Str.substr(0, ExpPos);
  size_t Dot = std::min(Mantissa.find('.'), Mantissa.size());
  size_t Lead = Mantissa.find_first_not_of("0.");
  int64_t Exp10 = Lead < Dot ? static_cast<int64_t>(Dot - Lead - 1)
                             : -static_cast<int64_t>(Lead - Dot);
  if (ExpPos != std::string_view::npos) {
    std::string_view Digits = Str.substr(ExpPos + 1);
    bool NegExp = !Digits.empty() && Digits[0] == '-';
    if (!Digits.empty() && (Digits[0] == '-' || Digits[0] == '+'))
      Digits.remove_prefix(1);
    Digits.remove_prefix(
        std::min(Digits.find_first_not_of('0'), Digits.size()));
    // A longer exponent only pushes further out of range.
    int64_t Exp = parseUInt(Digits.substr(0, 9)).value_or(0);
    Exp10 += NegExp ? -Exp : Exp;
  }
  return Exp10 > 0 ? HUGE_VAL : 0.0;
}

std::string irdl::join(const std::vector<std::string> &Pieces,
                       std::string_view Sep) {
  std::string Result;
  for (size_t I = 0, E = Pieces.size(); I != E; ++I) {
    if (I != 0)
      Result += Sep;
    Result += Pieces[I];
  }
  return Result;
}
