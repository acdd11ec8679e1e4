//===- Spec.h - Resolved IRDL dialect specifications --------------*- C++ -*-===//
///
/// \file
/// The output of IRDL semantic analysis: fully resolved specifications of
/// dialects, with constraints lowered to the Constraint engine and IRDL-C++
/// strings compiled to interpreted predicates. Registration compiles these
/// into runtime verifiers/parsers/printers; the analysis library (Section 6
/// evaluation tooling) reads them directly.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_SPEC_H
#define IRDL_IRDL_SPEC_H

#include "irdl/Constraint.h"
#include "irdl/CppExpr.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace irdl {

/// A named, constrained slot (type/attr parameter or op attribute).
struct ParamSpec {
  std::string Name;
  ConstraintPtr Constr;
  /// Compiled form of Constr (set by registration; null until then).
  ConstraintProgramPtr Prog;
};

/// Resolved type or attribute definition.
struct TypeOrAttrSpec {
  bool IsAttr = false;
  std::string Name;
  std::string Summary;
  std::vector<ParamSpec> Params;
  /// Interpreted IRDL-C++ verifier over the whole type/attr; null if none.
  std::shared_ptr<const CppExpr> CppConstraint;
  std::string CppConstraintSrc;
  /// The runtime definition created for it (set by registration).
  TypeOrAttrDefinitionBase *Def = nullptr;

  /// True if the definition needs IRDL-C++ (Figures 9/10 classification):
  /// a CppConstraint, a native/cpp constraint in a parameter, or an opaque
  /// TypeOrAttrParam parameter.
  bool requiresCppVerifier() const { return CppConstraint != nullptr; }
  bool requiresCppParams() const {
    for (const ParamSpec &P : Params)
      if (P.Constr->requiresCpp() || usesOpaqueParam(P.Constr))
        return true;
    return false;
  }
  static bool usesOpaqueParam(const ConstraintPtr &C);
};

/// Variadicity of an operand/result/region-argument definition
/// (Section 4.6, Variadic and Optional).
enum class VariadicKind { Single, Optional, Variadic };

struct OperandSpec {
  std::string Name;
  ConstraintPtr Constr;
  VariadicKind VK = VariadicKind::Single;
  /// Compiled form of Constr (set by registration; null until then).
  ConstraintProgramPtr Prog;
};

struct RegionSpec {
  std::string Name;
  std::vector<OperandSpec> Args;
  /// Full name ("cmath.range_loop_terminator") of the required terminator;
  /// empty when unconstrained. A non-empty terminator also requires the
  /// region to consist of a single block.
  std::string TerminatorOpName;
};

/// Resolved operation definition.
struct OpSpec {
  std::string Name;
  std::string Summary;
  /// Constraint variables: name + the constraint each binding must satisfy.
  std::vector<std::string> VarNames;
  std::vector<ConstraintPtr> VarConstraints;
  /// Compiled programs for VarConstraints, one per variable (set by
  /// registration). The op's MatchContexts carry them, so a Var opcode
  /// in any program of this op runs the variable's program.
  std::vector<ConstraintProgramPtr> VarPrograms;
  std::vector<OperandSpec> Operands;
  std::vector<OperandSpec> Results;
  std::vector<ParamSpec> Attributes;
  std::vector<RegionSpec> Regions;
  std::optional<std::vector<std::string>> Successors;
  std::string FormatSrc;
  bool HasFormat = false;
  /// Interpreted IRDL-C++ op verifier; null if none.
  std::shared_ptr<const CppExpr> CppConstraint;
  std::string CppConstraintSrc;
  /// Native op verifier name referenced via `CppConstraint "native:<n>"`.
  std::string NativeVerifierName;
  OpDefinition *Def = nullptr;

  bool isTerminator() const { return Successors.has_value(); }

  /// Figure 11a classification: can all *local* constraints (per-operand /
  /// per-result / per-attribute) be expressed in pure IRDL?
  bool localConstraintsInIRDL() const;
  /// Figure 11b classification: does the op need a C++ verifier for
  /// non-local (global) constraints?
  bool requiresCppVerifier() const {
    return CppConstraint != nullptr || !NativeVerifierName.empty();
  }

  std::optional<unsigned> lookupOperand(std::string_view N) const;
  std::optional<unsigned> lookupResult(std::string_view N) const;
  std::optional<unsigned> lookupVar(std::string_view N) const;
  std::optional<unsigned> lookupAttrField(std::string_view N) const;

  /// Diagnostic for variable \p V found by findUnguardedVarCycle: its
  /// constraint would match it against the same value forever.
  std::string varCycleMessage(unsigned V) const;
};

struct EnumSpec {
  std::string Name;
  std::vector<std::string> Cases;
  EnumDef *Def = nullptr;
};

/// IRDL-C++ TypeOrAttrParam: an opaque parameter kind.
struct ParamTypeSpec {
  std::string Name;
  std::string Summary;
  std::string CppClassName;
  std::string CppParserSrc;
  std::string CppPrinterSrc;
};

/// A named reusable constraint (IRDL-C++ Constraint directive).
struct NamedConstraintSpec {
  std::string Name;
  std::string Summary;
  ConstraintPtr Constr;
  bool HasCpp = false;
};

/// An alias, kept for documentation/analysis (uses are expanded inline).
struct AliasSpec {
  char Sigil = 0;
  std::string Name;
  std::vector<std::string> Params;
  /// Resolved body for non-parametric aliases only.
  ConstraintPtr Body;
};

/// A fully resolved dialect.
struct DialectSpec {
  std::string Name;
  std::vector<TypeOrAttrSpec> Types;
  std::vector<TypeOrAttrSpec> Attrs;
  std::vector<OpSpec> Ops;
  std::vector<EnumSpec> Enums;
  std::vector<ParamTypeSpec> ParamTypes;
  std::vector<NamedConstraintSpec> Constraints;
  std::vector<AliasSpec> Aliases;
  Dialect *D = nullptr;

  const OpSpec *lookupOp(std::string_view OpName) const;
  const TypeOrAttrSpec *lookupType(std::string_view TypeName) const;
  const TypeOrAttrSpec *lookupAttr(std::string_view AttrName) const;
};

} // namespace irdl

#endif // IRDL_IRDL_SPEC_H
