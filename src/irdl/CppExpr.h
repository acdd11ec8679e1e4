//===- CppExpr.h - Interpreted IRDL-C++ expressions ---------------*- C++ -*-===//
///
/// \file
/// The executable substitute for IRDL-C++'s embedded C++ (see DESIGN.md):
/// a small expression language covering the constructs the paper's corpus
/// needs — `$_self`, accessor chains (`$_self.lhs().size()`), arithmetic,
/// comparisons, and boolean connectives. CppConstraint strings compile to
/// a CppExpr at dialect-load time and are interpreted by the verifiers.
/// Anything richer is supplied as a registered native callback.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CPPEXPR_H
#define IRDL_IRDL_CPPEXPR_H

#include "ir/Context.h"
#include "ir/Value.h"

#include <memory>
#include <optional>
#include <variant>

namespace irdl {

class Operation;
struct OpSpec;

/// A named view over a parameter list: what $_self denotes inside a type
/// or attribute CppConstraint, where the verifier runs *before* the
/// uniqued handle exists.
struct ParamRecord {
  const TypeOrAttrDefinitionBase *Def = nullptr;
  const std::vector<ParamValue> *Params = nullptr;
};

/// A runtime value during expression evaluation.
using CppEvalValue = std::variant<std::monostate, bool, int64_t, double,
                                  std::string, Type, Attribute, Value,
                                  Operation *, ParamValue, ParamRecord>;

/// Converts a ParamValue to its most natural evaluation value (ints to
/// int64, enums to their case name, ...). Used to seed $_self for
/// parameter constraints.
CppEvalValue cppEvalFromParam(const ParamValue &P);

class CppExpr {
public:
  enum class Kind {
    IntLit,
    FloatLit,
    StrLit,
    BoolLit,
    Self,   // $_self
    Member, // recv.name or recv.name(...)
    Unary,  // ! -
    Binary, // || && == != < <= > >= + - * / %
  };

  /// Compiles \p Source; emits diagnostics at \p Loc and returns null on
  /// error.
  static std::shared_ptr<const CppExpr> parse(std::string_view Source,
                                              DiagnosticEngine &Diags,
                                              SMLoc Loc = SMLoc());

  /// What $_self denotes during evaluation.
  struct EvalContext {
    CppEvalValue Self;
    /// Operation accessor names resolve through this spec when set.
    const OpSpec *Spec = nullptr;
  };

  /// Evaluates; nullopt signals a type error (unknown accessor, bad
  /// operand kinds). The verifier treats that as "constraint violated"
  /// and reports the expression.
  std::optional<CppEvalValue> evaluate(const EvalContext &Ctx) const;

  /// Evaluates to a truth value; nullopt on evaluation error.
  std::optional<bool> evaluateBool(const EvalContext &Ctx) const;

  Kind getKind() const { return K; }

private:
  friend class CppExprParser;
  explicit CppExpr(Kind K) : K(K) {}

  Kind K;
  int64_t IntValue = 0;
  double FloatValue = 0.0;
  std::string StrValue; // literal / member name / operator spelling
  std::shared_ptr<const CppExpr> Lhs, Rhs;
  bool IsCall = false;
  /// Levels of the tree rooted here; the parser bounds it by
  /// MaxNestingDepth, so evaluation recurses at most that deep.
  unsigned Height = 1;
};

} // namespace irdl

#endif // IRDL_IRDL_CPPEXPR_H
