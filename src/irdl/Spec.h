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

#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>

namespace irdl {

struct CompiledFormat;

/// A named, constrained slot (type/attr parameter or op attribute).
struct ParamSpec {
  std::string_view Name;
  const Constraint *Constr = nullptr;
  /// Compiled form of Constr (set by registration; null until then).
  const ConstraintProgram *Prog = nullptr;
};

/// Resolved type or attribute definition.
struct TypeOrAttrSpec {
  bool IsAttr = false;
  std::string_view Name;
  std::string_view Summary;
  std::span<ParamSpec> Params;
  /// Interpreted IRDL-C++ verifier over the whole type/attr; null if none.
  const CppExpr *CppConstraint = nullptr;
  std::string_view CppConstraintSrc;
  /// The host callback a `native:<name>` CppConstraint names (set by
  /// registration; null otherwise).
  const NativeConstraintFn *NativeVerifier = nullptr;
  /// The runtime definition created for it (set by registration).
  TypeOrAttrDefinitionBase *Def = nullptr;

  /// True if the definition needs IRDL-C++ (Figures 9/10 classification):
  /// a CppConstraint, a native/cpp constraint in a parameter, or an opaque
  /// TypeOrAttrParam parameter.
  bool requiresCppVerifier() const { return CppConstraint != nullptr; }
  bool requiresCppParams() const {
    for (const ParamSpec &P : Params)
      if (P.Constr->requiresCpp() || usesOpaqueParam(*P.Constr))
        return true;
    return false;
  }
  static bool usesOpaqueParam(const Constraint &C);
};

/// Variadicity of an operand/result/region-argument definition
/// (Section 4.6, Variadic and Optional).
enum class VariadicKind { Single, Optional, Variadic };

struct OperandSpec {
  std::string_view Name;
  const Constraint *Constr = nullptr;
  VariadicKind VK = VariadicKind::Single;
  /// Compiled form of Constr (set by registration; null until then).
  const ConstraintProgram *Prog = nullptr;
};

struct RegionSpec {
  std::string_view Name;
  std::span<OperandSpec> Args;
  /// Full name ("cmath.range_loop_terminator") of the required terminator;
  /// empty when unconstrained. A non-empty terminator also requires the
  /// region to consist of a single block.
  std::string_view TerminatorOpName;
  /// No argument is Variadic or Optional (set by registration).
  bool ArgsSingle = false;
};

/// The host callback a `native:<name>` op CppConstraint names.
using NativeOpVerifierFn =
    std::function<LogicalResult(Operation *, DiagnosticEngine &)>;

/// Resolved operation definition. Everything it refers to lives in the
/// storage of its DialectSpec.
struct OpSpec {
  std::string_view Name;
  std::string_view Summary;
  /// Constraint variables: name + the constraint each binding must satisfy.
  std::span<const std::string_view> VarNames;
  std::span<const Constraint *const> VarConstraints;
  /// Compiled programs for VarConstraints, one per variable (set by
  /// registration). The op's MatchContexts carry them, so a Var opcode
  /// in any program of this op runs the variable's program.
  std::span<const ConstraintProgram *const> VarPrograms;
  std::span<OperandSpec> Operands;
  std::span<OperandSpec> Results;
  std::span<ParamSpec> Attributes;
  std::span<RegionSpec> Regions;
  std::optional<std::span<const std::string_view>> Successors;
  std::string_view FormatSrc;
  bool HasFormat = false;
  /// No operand (result) is Variadic or Optional (set by registration).
  bool OperandsSingle = false;
  bool ResultsSingle = false;
  /// Interpreted IRDL-C++ op verifier; null if none.
  const CppExpr *CppConstraint = nullptr;
  std::string_view CppConstraintSrc;
  /// Native op verifier name referenced via `CppConstraint "native:<n>"`,
  /// and its callback (set by registration).
  std::string_view NativeVerifierName;
  const NativeOpVerifierFn *NativeVerifier = nullptr;
  /// The declarative format compiled for the parse/print hooks (set by
  /// registration when HasFormat).
  const CompiledFormat *Format = nullptr;
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
  std::string_view Name;
  std::span<const std::string_view> Cases;
  EnumDef *Def = nullptr;
};

/// IRDL-C++ TypeOrAttrParam: an opaque parameter kind.
struct ParamTypeSpec {
  std::string_view Name;
  std::string_view Summary;
  std::string_view CppClassName;
  std::string_view CppParserSrc;
  std::string_view CppPrinterSrc;
};

/// A named reusable constraint (IRDL-C++ Constraint directive).
struct NamedConstraintSpec {
  std::string_view Name;
  std::string_view Summary;
  const Constraint *Constr = nullptr;
  bool HasCpp = false;
};

/// An alias, kept for documentation/analysis (uses are expanded inline).
struct AliasSpec {
  char Sigil = 0;
  std::string_view Name;
  std::span<const std::string_view> Params;
  /// Resolved body for non-parametric aliases only.
  const Constraint *Body = nullptr;
};

/// A fully resolved dialect. It owns the bump storage that everything it
/// refers to lives in: the strings and lists of its specs, its constraint
/// trees and their compiled programs, and its compiled formats. A
/// DialectSpec is always held by a shared_ptr (std::make_shared), and a
/// handle to one of its trees or programs is an aliasing shared_ptr of
/// it, so any handle keeps the whole spec alive. The spec holds no
/// handle to itself.
struct DialectSpec : std::enable_shared_from_this<DialectSpec> {
  std::string_view Name;
  std::span<TypeOrAttrSpec> Types;
  std::span<TypeOrAttrSpec> Attrs;
  std::span<OpSpec> Ops;
  std::span<EnumSpec> Enums;
  std::span<ParamTypeSpec> ParamTypes;
  std::span<NamedConstraintSpec> Constraints;
  std::span<AliasSpec> Aliases;
  Dialect *D = nullptr;

  /// The storage, as the owner handle the Constraint factories take: an
  /// aliasing shared_ptr of this spec.
  SpecStoragePtr shareStorage() {
    return SpecStoragePtr(shared_from_this(), &Storage);
  }
  BumpStorage &getStorage() { return Storage; }

  /// A copy of \p S in the storage.
  std::string_view copy(std::string_view S) { return Storage.copyString(S); }
  /// \p N value-initialized elements in the storage.
  template <typename T> std::span<T> allocate(size_t N) {
    static_assert(std::is_trivially_destructible_v<T>);
    if (N == 0)
      return {};
    T *P = static_cast<T *>(Storage.allocate(N * sizeof(T), alignof(T)));
    for (size_t I = 0; I != N; ++I)
      new (P + I) T();
    return {P, N};
  }

  const OpSpec *lookupOp(std::string_view OpName) const;
  const TypeOrAttrSpec *lookupType(std::string_view TypeName) const;
  const TypeOrAttrSpec *lookupAttr(std::string_view AttrName) const;

private:
  BumpStorage Storage;
};

} // namespace irdl

#endif // IRDL_IRDL_SPEC_H
