//===- CppExpr.cpp --------------------------------------------------===//

#include "irdl/CppExpr.h"

#include "irdl/Spec.h"
#include "ir/IRParser.h"
#include "ir/Operation.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cstdlib>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Parsing
//===----------------------------------------------------------------------===//

namespace irdl {

class CppExprParser {
public:
  CppExprParser(std::string_view Source, DiagnosticEngine &Diags, SMLoc Loc)
      : Src(Source), Diags(Diags), Loc(Loc) {}

  std::shared_ptr<const CppExpr> run() {
    auto E = parseOr();
    skipWs();
    if (E && Pos != Src.size()) {
      Diags.emitError(Loc, "trailing input in C++ constraint expression");
      return nullptr;
    }
    return E;
  }

private:
  using ExprPtr = std::shared_ptr<const CppExpr>;

  void skipWs() {
    while (Pos < Src.size() &&
           (Src[Pos] == ' ' || Src[Pos] == '\t' || Src[Pos] == '\n' ||
            Src[Pos] == '\r'))
      ++Pos;
  }

  bool consume(std::string_view Tok) {
    skipWs();
    if (Src.substr(Pos, Tok.size()) != Tok)
      return false;
    // Don't split identifiers.
    if (isIdentifierStart(Tok[0])) {
      size_t End = Pos + Tok.size();
      if (End < Src.size() && isIdentifierChar(Src[End]))
        return false;
    }
    Pos += Tok.size();
    return true;
  }

  char peek() {
    skipWs();
    return Pos < Src.size() ? Src[Pos] : '\0';
  }

  ExprPtr error(const std::string &Message) {
    Diags.emitError(Loc, "in C++ constraint expression: " + Message);
    return nullptr;
  }

  static std::shared_ptr<CppExpr> make(CppExpr::Kind K) {
    return std::shared_ptr<CppExpr>(new CppExpr(K));
  }

  /// Sets \p E's height from its operands; fails past MaxNestingDepth.
  ExprPtr bounded(std::shared_ptr<CppExpr> E) {
    E->Height = 1 + std::max(E->Lhs ? E->Lhs->Height : 0,
                             E->Rhs ? E->Rhs->Height : 0);
    if (E->Height > MaxNestingDepth)
      return tooDeep();
    return E;
  }

  ExprPtr tooDeep() {
    return error("nested deeper than " + std::to_string(MaxNestingDepth));
  }

  /// Counts one level of parenthesized or prefixed operand while it is
  /// parsed, so that the parser's own recursion is bounded too.
  struct Nesting {
    explicit Nesting(CppExprParser &P) : P(P) { ++P.Depth; }
    ~Nesting() { --P.Depth; }
    bool tooDeep() const { return P.Depth > MaxNestingDepth; }
    CppExprParser &P;
  };

  ExprPtr makeBinary(std::string Op, ExprPtr L, ExprPtr R) {
    auto E = make(CppExpr::Kind::Binary);
    E->StrValue = std::move(Op);
    E->Lhs = std::move(L);
    E->Rhs = std::move(R);
    return bounded(std::move(E));
  }

  ExprPtr parseOr() {
    ExprPtr L = parseAnd();
    while (L && consume("||")) {
      ExprPtr R = parseAnd();
      if (!R)
        return nullptr;
      L = makeBinary("||", std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseAnd() {
    ExprPtr L = parseCmp();
    while (L && consume("&&")) {
      ExprPtr R = parseCmp();
      if (!R)
        return nullptr;
      L = makeBinary("&&", std::move(L), std::move(R));
    }
    return L;
  }

  ExprPtr parseCmp() {
    ExprPtr L = parseAdd();
    if (!L)
      return nullptr;
    for (const char *Op : {"==", "!=", "<=", ">=", "<", ">"}) {
      if (consume(Op)) {
        ExprPtr R = parseAdd();
        if (!R)
          return nullptr;
        return makeBinary(Op, std::move(L), std::move(R));
      }
    }
    return L;
  }

  ExprPtr parseAdd() {
    ExprPtr L = parseMul();
    while (L) {
      skipWs();
      // Don't eat the '-' of '->' (not in the language) or comparison.
      if (consume("+")) {
        ExprPtr R = parseMul();
        if (!R)
          return nullptr;
        L = makeBinary("+", std::move(L), std::move(R));
        continue;
      }
      if (peek() == '-' && Src.substr(Pos, 2) != "->") {
        ++Pos;
        ExprPtr R = parseMul();
        if (!R)
          return nullptr;
        L = makeBinary("-", std::move(L), std::move(R));
        continue;
      }
      break;
    }
    return L;
  }

  ExprPtr parseMul() {
    ExprPtr L = parseUnary();
    while (L) {
      if (consume("*")) {
        ExprPtr R = parseUnary();
        if (!R)
          return nullptr;
        L = makeBinary("*", std::move(L), std::move(R));
        continue;
      }
      if (consume("/")) {
        ExprPtr R = parseUnary();
        if (!R)
          return nullptr;
        L = makeBinary("/", std::move(L), std::move(R));
        continue;
      }
      if (consume("%")) {
        ExprPtr R = parseUnary();
        if (!R)
          return nullptr;
        L = makeBinary("%", std::move(L), std::move(R));
        continue;
      }
      break;
    }
    return L;
  }

  ExprPtr parseUnary() {
    skipWs();
    if (Pos < Src.size() && Src[Pos] == '!' &&
        (Pos + 1 >= Src.size() || Src[Pos + 1] != '=')) {
      ++Pos;
      Nesting Level(*this);
      if (Level.tooDeep())
        return tooDeep();
      ExprPtr Inner = parseUnary();
      if (!Inner)
        return nullptr;
      auto E = make(CppExpr::Kind::Unary);
      E->StrValue = "!";
      E->Lhs = std::move(Inner);
      return bounded(std::move(E));
    }
    if (consume("-")) {
      Nesting Level(*this);
      if (Level.tooDeep())
        return tooDeep();
      ExprPtr Inner = parseUnary();
      if (!Inner)
        return nullptr;
      auto E = make(CppExpr::Kind::Unary);
      E->StrValue = "-";
      E->Lhs = std::move(Inner);
      return bounded(std::move(E));
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    while (E) {
      skipWs();
      if (Pos < Src.size() && Src[Pos] == '.') {
        ++Pos;
        skipWs();
        size_t Start = Pos;
        while (Pos < Src.size() && isIdentifierChar(Src[Pos]))
          ++Pos;
        if (Pos == Start)
          return error("expected member name after '.'");
        auto M = make(CppExpr::Kind::Member);
        M->StrValue = std::string(Src.substr(Start, Pos - Start));
        M->Lhs = std::move(E);
        skipWs();
        if (Pos < Src.size() && Src[Pos] == '(') {
          ++Pos;
          skipWs();
          if (Pos >= Src.size() || Src[Pos] != ')')
            return error("accessor calls take no arguments");
          ++Pos;
          M->IsCall = true;
        }
        E = bounded(std::move(M));
        continue;
      }
      break;
    }
    return E;
  }

  ExprPtr parsePrimary() {
    skipWs();
    if (Pos >= Src.size())
      return error("unexpected end of expression");

    char C = Src[Pos];
    if (C == '(') {
      ++Pos;
      Nesting Level(*this);
      if (Level.tooDeep())
        return tooDeep();
      ExprPtr Inner = parseOr();
      if (!Inner)
        return nullptr;
      skipWs();
      if (Pos >= Src.size() || Src[Pos] != ')')
        return error("expected ')'");
      ++Pos;
      return Inner;
    }
    if (C == '$') {
      if (consume("$_self")) {
        return make(CppExpr::Kind::Self);
      }
      return error("unknown placeholder (only $_self is supported)");
    }
    if (C == '"') {
      ++Pos;
      std::string S;
      while (Pos < Src.size() && Src[Pos] != '"') {
        if (Src[Pos] == '\\' && Pos + 1 < Src.size())
          ++Pos;
        S += Src[Pos++];
      }
      if (Pos >= Src.size())
        return error("unterminated string literal");
      ++Pos;
      auto E = make(CppExpr::Kind::StrLit);
      E->StrValue = std::move(S);
      return E;
    }
    if (C >= '0' && C <= '9') {
      size_t Start = Pos;
      while (Pos < Src.size() &&
             ((Src[Pos] >= '0' && Src[Pos] <= '9') || Src[Pos] == '.' ||
              Src[Pos] == 'e' || Src[Pos] == 'E' ||
              ((Src[Pos] == '+' || Src[Pos] == '-') &&
               (Src[Pos - 1] == 'e' || Src[Pos - 1] == 'E'))))
        ++Pos;
      std::string Text(Src.substr(Start, Pos - Start));
      // Allow C++ integer suffixes (u, l, ul, ...).
      while (Pos < Src.size() &&
             (Src[Pos] == 'u' || Src[Pos] == 'U' || Src[Pos] == 'l' ||
              Src[Pos] == 'L'))
        ++Pos;
      if (Text.find('.') != std::string::npos ||
          Text.find('e') != std::string::npos ||
          Text.find('E') != std::string::npos) {
        auto E = make(CppExpr::Kind::FloatLit);
        E->FloatValue = std::strtod(Text.c_str(), nullptr);
        return E;
      }
      auto E = make(CppExpr::Kind::IntLit);
      E->IntValue = std::strtoll(Text.c_str(), nullptr, 10);
      return E;
    }
    if (consume("true")) {
      auto E = make(CppExpr::Kind::BoolLit);
      E->IntValue = 1;
      return E;
    }
    if (consume("false")) {
      auto E = make(CppExpr::Kind::BoolLit);
      E->IntValue = 0;
      return E;
    }
    return error(std::string("unexpected character '") + C + "'");
  }

  std::string_view Src;
  size_t Pos = 0;
  unsigned Depth = 0;
  DiagnosticEngine &Diags;
  SMLoc Loc;
};

} // namespace irdl

std::shared_ptr<const CppExpr> CppExpr::parse(std::string_view Source,
                                              DiagnosticEngine &Diags,
                                              SMLoc Loc) {
  return CppExprParser(Source, Diags, Loc).run();
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

namespace {

/// Converts a ParamValue to the most natural CppEvalValue.
CppEvalValue fromParam(const ParamValue &P) {
  switch (P.getKind()) {
  case ParamValue::Kind::Int:
    return P.getInt().Value;
  case ParamValue::Kind::Float:
    return P.getFloat().Value;
  case ParamValue::Kind::String:
    return P.getString();
  case ParamValue::Kind::Type:
    return P.getType();
  case ParamValue::Kind::Attr:
    return P.getAttr();
  case ParamValue::Kind::Enum: {
    const EnumVal &E = P.getEnum();
    return std::string(E.Def->getCases()[E.Index]);
  }
  case ParamValue::Kind::Opaque:
    return P.getOpaque().Payload;
  default:
    return P; // Arrays (and empties) stay wrapped.
  }
}

std::optional<CppEvalValue> accessMember(const CppEvalValue &Recv,
                                         const std::string &Name,
                                         const OpSpec *Spec);

/// Member access on a Type or Attribute: parameters by name, plus name().
template <typename HandleT>
std::optional<CppEvalValue> accessTypeOrAttr(HandleT H,
                                             const std::string &Name) {
  if (Name == "name")
    return CppEvalValue(H.getName());
  if (auto Index = H.getDef()->lookupParam(Name))
    return fromParam(H.getParams()[*Index]);
  return std::nullopt;
}

std::optional<CppEvalValue> accessOperation(Operation *Op,
                                            const std::string &Name,
                                            const OpSpec *Spec) {
  if (Name == "numOperands")
    return CppEvalValue(static_cast<int64_t>(Op->getNumOperands()));
  if (Name == "numResults")
    return CppEvalValue(static_cast<int64_t>(Op->getNumResults()));
  if (Name == "numRegions")
    return CppEvalValue(static_cast<int64_t>(Op->getNumRegions()));
  if (Name == "numSuccessors")
    return CppEvalValue(static_cast<int64_t>(Op->getNumSuccessors()));
  if (Spec) {
    if (auto Index = Spec->lookupOperand(Name)) {
      if (*Index < Op->getNumOperands())
        return CppEvalValue(Op->getOperand(*Index));
      return std::nullopt;
    }
    if (auto Index = Spec->lookupResult(Name)) {
      if (*Index < Op->getNumResults())
        return CppEvalValue(Op->getResult(*Index));
      return std::nullopt;
    }
    if (Spec->lookupAttrField(Name)) {
      Attribute A = Op->getAttr(Name);
      if (A)
        return CppEvalValue(A);
      return std::nullopt;
    }
  }
  // Fall back to raw attribute lookup.
  if (Attribute A = Op->getAttr(Name))
    return CppEvalValue(A);
  return std::nullopt;
}

std::optional<CppEvalValue> accessMember(const CppEvalValue &Recv,
                                         const std::string &Name,
                                         const OpSpec *Spec) {
  if (auto *Op = std::get_if<Operation *>(&Recv))
    return accessOperation(*Op, Name, Spec);
  if (auto *V = std::get_if<Value>(&Recv)) {
    if (Name == "type")
      return CppEvalValue(V->getType());
    // Accessors fall through to the value's type: `$_self.lhs().size()`.
    return accessTypeOrAttr(V->getType(), Name);
  }
  if (auto *T = std::get_if<Type>(&Recv))
    return accessTypeOrAttr(*T, Name);
  if (auto *A = std::get_if<Attribute>(&Recv)) {
    if (Name == "value" && !A->getDef()->lookupParam("value")) {
      // Convenience for single-parameter attributes.
      if (A->getParams().size() == 1)
        return fromParam(A->getParams()[0]);
    }
    return accessTypeOrAttr(*A, Name);
  }
  if (auto *P = std::get_if<ParamValue>(&Recv)) {
    if (P->isArray() && Name == "size")
      return CppEvalValue(static_cast<int64_t>(P->getArray().size()));
    return std::nullopt;
  }
  if (auto *R = std::get_if<ParamRecord>(&Recv)) {
    if (Name == "name")
      return CppEvalValue(R->Def->getFullName());
    if (auto Index = R->Def->lookupParam(Name))
      if (*Index < R->Params->size())
        return fromParam((*R->Params)[*Index]);
    return std::nullopt;
  }
  if (auto *S = std::get_if<std::string>(&Recv)) {
    if (Name == "size" || Name == "length")
      return CppEvalValue(static_cast<int64_t>(S->size()));
    if (Name == "empty")
      return CppEvalValue(S->empty());
    return std::nullopt;
  }
  return std::nullopt;
}

std::optional<bool> truthiness(const CppEvalValue &V) {
  if (auto *B = std::get_if<bool>(&V))
    return *B;
  if (auto *I = std::get_if<int64_t>(&V))
    return *I != 0;
  return std::nullopt;
}

std::optional<double> asNumber(const CppEvalValue &V) {
  if (auto *I = std::get_if<int64_t>(&V))
    return static_cast<double>(*I);
  if (auto *D = std::get_if<double>(&V))
    return *D;
  if (auto *B = std::get_if<bool>(&V))
    return *B ? 1.0 : 0.0;
  return std::nullopt;
}

bool bothInts(const CppEvalValue &L, const CppEvalValue &R) {
  return std::holds_alternative<int64_t>(L) &&
         std::holds_alternative<int64_t>(R);
}

std::optional<bool> equals(const CppEvalValue &L, const CppEvalValue &R) {
  // Numeric cross-kind comparison.
  if (asNumber(L) && asNumber(R))
    return *asNumber(L) == *asNumber(R);
  if (auto *LS = std::get_if<std::string>(&L))
    if (auto *RS = std::get_if<std::string>(&R))
      return *LS == *RS;
  if (auto *LT = std::get_if<Type>(&L))
    if (auto *RT = std::get_if<Type>(&R))
      return *LT == *RT;
  if (auto *LA = std::get_if<Attribute>(&L))
    if (auto *RA = std::get_if<Attribute>(&R))
      return *LA == *RA;
  if (auto *LV = std::get_if<Value>(&L))
    if (auto *RV = std::get_if<Value>(&R))
      return *LV == *RV;
  // Types compare equal to their textual names (handy in constraints).
  if (auto *LT = std::get_if<Type>(&L))
    if (auto *RS = std::get_if<std::string>(&R))
      return LT->str() == *RS || LT->getName() == *RS;
  if (auto *LS = std::get_if<std::string>(&L))
    if (auto *RT = std::get_if<Type>(&R))
      return RT->str() == *LS || RT->getName() == *LS;
  return std::nullopt;
}

} // namespace

CppEvalValue irdl::cppEvalFromParam(const ParamValue &P) {
  return fromParam(P);
}

std::optional<CppEvalValue>
CppExpr::evaluate(const EvalContext &Ctx) const {
  switch (K) {
  case Kind::IntLit:
    return CppEvalValue(IntValue);
  case Kind::FloatLit:
    return CppEvalValue(FloatValue);
  case Kind::StrLit:
    return CppEvalValue(StrValue);
  case Kind::BoolLit:
    return CppEvalValue(IntValue != 0);
  case Kind::Self:
    return Ctx.Self;
  case Kind::Member: {
    auto Recv = Lhs->evaluate(Ctx);
    if (!Recv)
      return std::nullopt;
    return accessMember(*Recv, StrValue, Ctx.Spec);
  }
  case Kind::Unary: {
    auto V = Lhs->evaluate(Ctx);
    if (!V)
      return std::nullopt;
    if (StrValue == "!") {
      auto B = truthiness(*V);
      if (!B)
        return std::nullopt;
      return CppEvalValue(!*B);
    }
    // Negation.
    if (auto *I = std::get_if<int64_t>(&*V))
      return CppEvalValue(-*I);
    if (auto *D = std::get_if<double>(&*V))
      return CppEvalValue(-*D);
    return std::nullopt;
  }
  case Kind::Binary: {
    if (StrValue == "&&" || StrValue == "||") {
      auto L = Lhs->evaluate(Ctx);
      if (!L)
        return std::nullopt;
      auto LB = truthiness(*L);
      if (!LB)
        return std::nullopt;
      if (StrValue == "&&" && !*LB)
        return CppEvalValue(false);
      if (StrValue == "||" && *LB)
        return CppEvalValue(true);
      auto R = Rhs->evaluate(Ctx);
      if (!R)
        return std::nullopt;
      auto RB = truthiness(*R);
      if (!RB)
        return std::nullopt;
      return CppEvalValue(*RB);
    }

    auto L = Lhs->evaluate(Ctx);
    auto R = Rhs->evaluate(Ctx);
    if (!L || !R)
      return std::nullopt;

    if (StrValue == "==" || StrValue == "!=") {
      auto Eq = equals(*L, *R);
      if (!Eq)
        return std::nullopt;
      return CppEvalValue(StrValue == "==" ? *Eq : !*Eq);
    }

    auto LN = asNumber(*L);
    auto RN = asNumber(*R);
    if (!LN || !RN)
      return std::nullopt;

    if (StrValue == "<")
      return CppEvalValue(*LN < *RN);
    if (StrValue == "<=")
      return CppEvalValue(*LN <= *RN);
    if (StrValue == ">")
      return CppEvalValue(*LN > *RN);
    if (StrValue == ">=")
      return CppEvalValue(*LN >= *RN);

    // Arithmetic: stay integral when both sides are.
    if (bothInts(*L, *R)) {
      int64_t LI = std::get<int64_t>(*L);
      int64_t RI = std::get<int64_t>(*R);
      if (StrValue == "+")
        return CppEvalValue(LI + RI);
      if (StrValue == "-")
        return CppEvalValue(LI - RI);
      if (StrValue == "*")
        return CppEvalValue(LI * RI);
      if (StrValue == "/")
        return RI == 0 ? std::nullopt
                       : std::optional<CppEvalValue>(LI / RI);
      if (StrValue == "%")
        return RI == 0 ? std::nullopt
                       : std::optional<CppEvalValue>(LI % RI);
    }
    if (StrValue == "+")
      return CppEvalValue(*LN + *RN);
    if (StrValue == "-")
      return CppEvalValue(*LN - *RN);
    if (StrValue == "*")
      return CppEvalValue(*LN * *RN);
    if (StrValue == "/")
      return *RN == 0 ? std::nullopt
                      : std::optional<CppEvalValue>(*LN / *RN);
    return std::nullopt;
  }
  }
  return std::nullopt;
}

std::optional<bool> CppExpr::evaluateBool(const EvalContext &Ctx) const {
  auto V = evaluate(Ctx);
  if (!V)
    return std::nullopt;
  return truthiness(*V);
}
