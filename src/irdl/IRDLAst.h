//===- IRDLAst.h - AST for the IRDL surface language -------------*- C++ -*-===//
///
/// \file
/// The abstract syntax of IRDL (Section 4) and IRDL-C++ (Section 5):
/// Dialect bodies containing Type / Attribute / Operation / Alias / Enum /
/// Constraint / TypeOrAttrParam declarations, with a uniform constraint-
/// expression sub-language. Most constructs (AnyOf, Variadic, array,
/// int32_t, ...) parse as plain references; semantic analysis gives them
/// meaning.
///
/// The tree is a view: names, paths and strings view the source buffer
/// (a string literal with escapes views its unescaped copy), and nodes
/// and lists live in the bump storage of their ParsedIRDL. Every node is
/// trivially destructible, so dropping the storage frees the whole tree
/// at once. A tree is valid while both its ParsedIRDL and the source
/// buffer live; Sema copies what the resolved specs keep.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_IRDLAST_H
#define IRDL_IRDL_IRDLAST_H

#include "support/SourceMgr.h"

#include <cstdint>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <string_view>

namespace irdl::ast {

/// A dotted name (`a.b.c`), one view per segment.
using Path = std::span<const std::string_view>;

/// A constraint expression: a (possibly sigiled, possibly parameterized)
/// reference, a literal, or a fixed-size array pattern.
struct ConstraintExpr {
  enum class Kind {
    Ref,        // [!|#] a.b.c [ <args...> ]
    IntLit,     // 3 or -7, optionally `3 : int32_t` (KindRef)
    FloatLit,   // 2.5, optionally `2.5 : float32_t`
    StrLit,     // "foo"
    ArrayExact, // [pc1, ..., pcN]
  };

  Kind K = Kind::Ref;
  SMLoc Loc;

  // Ref:
  char Sigil = 0; // '!', '#', or 0
  bool HasArgs = false;
  ast::Path Path;
  std::span<const ConstraintExpr *const> Args; // Ref args / ArrayExact elems

  // Literals:
  int64_t IntValue = 0;
  double FloatValue = 0.0;
  std::string_view StrValue;
  /// Optional `: int32_t`-style kind annotation on a literal.
  ast::Path KindRef;
};

/// `name: constraint` — parameters, operands, results, attributes, and
/// region arguments all share this shape.
struct NamedConstraint {
  std::string_view Name;
  const ConstraintExpr *Constr = nullptr;
  SMLoc Loc;
};

using NamedConstraintList = std::span<const NamedConstraint>;

/// Type or Attribute definition.
struct TypeOrAttrDecl {
  bool IsAttr = false;
  bool HasCppConstraint = false;
  std::string_view Name;
  SMLoc Loc;
  NamedConstraintList Params;
  std::string_view Summary;
  /// IRDL-C++ additional invariant ($_self is the type/attribute).
  std::string_view CppConstraint;
};

/// `Region name { Arguments (...) Terminator op }`.
struct RegionDecl {
  std::string_view Name;
  SMLoc Loc;
  NamedConstraintList Args;
  /// Dotted op path; empty when unconstrained.
  ast::Path Terminator;
};

/// Operation definition.
struct OpDecl {
  std::string_view Name;
  SMLoc Loc;
  /// ConstraintVar(s) (!T: ..., ...). Names are stored without sigils.
  NamedConstraintList ConstraintVars;
  NamedConstraintList Operands;
  NamedConstraintList Results;
  NamedConstraintList Attributes;
  std::span<const RegionDecl> Regions;
  /// Present (possibly empty) iff a Successors directive appeared — which
  /// makes the operation a terminator (Section 4.6).
  std::optional<std::span<const std::string_view>> Successors;
  std::string_view Format;
  bool HasFormat = false;
  bool HasCppConstraint = false;
  std::string_view Summary;
  std::string_view CppConstraint;
};

/// `Alias !Name = expr` / parametric `Alias !Name<T, U> = expr`.
struct AliasDecl {
  char Sigil = 0;
  std::string_view Name;
  SMLoc Loc;
  std::span<const std::string_view> Params;
  const ConstraintExpr *Body = nullptr;
};

/// `Enum name { A, B, C }`.
struct EnumDecl {
  std::string_view Name;
  SMLoc Loc;
  std::span<const std::string_view> Cases;
};

/// IRDL-C++ `Constraint name : base { Summary CppConstraint }`.
struct ConstraintDecl {
  std::string_view Name;
  SMLoc Loc;
  const ConstraintExpr *Base = nullptr;
  bool HasCppConstraint = false;
  std::string_view Summary;
  std::string_view CppConstraint;
};

/// IRDL-C++ `TypeOrAttrParam name { CppClassName CppParser CppPrinter }`.
struct TypeOrAttrParamDecl {
  std::string_view Name;
  SMLoc Loc;
  std::string_view Summary;
  std::string_view CppClassName;
  std::string_view CppParser;
  std::string_view CppPrinter;
};

/// A whole `Dialect name { ... }` body, each kind in declaration order.
struct DialectDecl {
  std::string_view Name;
  SMLoc Loc;
  std::span<const TypeOrAttrDecl> TypesAndAttrs;
  std::span<const OpDecl> Ops;
  std::span<const AliasDecl> Aliases;
  std::span<const EnumDecl> Enums;
  std::span<const ConstraintDecl> Constraints;
  std::span<const TypeOrAttrParamDecl> ParamTypes;
};

/// The AST of one IRDL buffer and the storage its nodes live in. Moving
/// it keeps every node where it is.
struct ParsedIRDL {
  std::span<const DialectDecl> Dialects;
  /// Holds every node, list and unescaped string literal of the tree.
  std::unique_ptr<std::pmr::monotonic_buffer_resource> Storage;
};

} // namespace irdl::ast

#endif // IRDL_IRDL_IRDLAST_H
