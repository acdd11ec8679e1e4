//===- Dialect.h - Dialects and runtime definitions --------------*- C++ -*-===//
///
/// \file
/// Runtime definitions of dialects and their components. Every type,
/// attribute, enum, and operation — builtin ones registered from C++ and
/// dynamic ones registered from an IRDL specification — is represented by
/// a *definition* object owned by its Dialect. This is what makes dialects
/// registrable at runtime without recompilation (Section 3 of the paper).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_DIALECT_H
#define IRDL_IR_DIALECT_H

#include "ir/Types.h"
#include "support/Diagnostics.h"
#include "support/LogicalResult.h"

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace irdl {

class CustomOpParser;
class CustomOpPrinter;
class IRContext;
class Operation;
struct OperationState;

/// An enumerated type (Section 4.8): a named list of constructors.
class EnumDef {
public:
  EnumDef(Dialect *D, std::string Name, std::vector<std::string> Cases)
      : Owner(D), Name(std::move(Name)), Cases(std::move(Cases)) {}

  Dialect *getDialect() const { return Owner; }
  const std::string &getShortName() const { return Name; }
  std::string getFullName() const;
  const std::vector<std::string> &getCases() const { return Cases; }

  /// Returns the index of \p Case, or nullopt if it is not a constructor.
  std::optional<unsigned> lookupCase(std::string_view Case) const;

private:
  Dialect *Owner;
  std::string Name;
  std::vector<std::string> Cases;
};

/// Common state of type and attribute definitions.
class TypeOrAttrDefinitionBase {
public:
  using VerifierFn = std::function<LogicalResult(
      const std::vector<ParamValue> &, DiagnosticEngine &, SMLoc)>;

  TypeOrAttrDefinitionBase(Dialect *D, std::string Name)
      : Owner(D), Name(std::move(Name)) {}

  Dialect *getDialect() const { return Owner; }
  const std::string &getShortName() const { return Name; }
  std::string getFullName() const;

  const std::string &getSummary() const { return Summary; }
  void setSummary(std::string S) { Summary = std::move(S); }

  const std::vector<std::string> &getParamNames() const { return ParamNames; }
  void setParamNames(std::vector<std::string> Names) {
    ParamNames = std::move(Names);
  }
  unsigned getNumParams() const { return ParamNames.size(); }
  std::optional<unsigned> lookupParam(std::string_view ParamName) const;

  /// The parameter verifier, invoked by checked construction and by the IR
  /// verifier. Null means "any parameters accepted".
  void setVerifier(VerifierFn Fn) { Verifier = std::move(Fn); }
  const VerifierFn &getVerifier() const { return Verifier; }

  /// True if this definition required IRDL-C++ (used by the evaluation
  /// tooling to reproduce Figures 9–11).
  bool requiresCpp() const { return RequiresCpp; }
  void setRequiresCpp(bool V = true) { RequiresCpp = V; }

private:
  Dialect *Owner;
  std::string Name;
  std::string Summary;
  std::vector<std::string> ParamNames;
  VerifierFn Verifier;
  bool RequiresCpp = false;
};

/// Runtime definition of a type.
class TypeDefinition : public TypeOrAttrDefinitionBase {
public:
  using TypeOrAttrDefinitionBase::TypeOrAttrDefinitionBase;
};

/// Runtime definition of an attribute.
class AttrDefinition : public TypeOrAttrDefinitionBase {
public:
  using TypeOrAttrDefinitionBase::TypeOrAttrDefinitionBase;
};

/// Runtime definition of an operation.
class OpDefinition {
public:
  using VerifierFn =
      std::function<LogicalResult(Operation *, DiagnosticEngine &)>;
  using PrintFn = std::function<void(Operation *, CustomOpPrinter &)>;
  using ParseFn =
      std::function<LogicalResult(CustomOpParser &, OperationState &)>;

  OpDefinition(Dialect *D, std::string Name);

  Dialect *getDialect() const { return Owner; }
  const std::string &getShortName() const { return Name; }
  /// The cached "dialect.op" name. Returned by reference so that every
  /// OperationName of a registered op aliases one string instead of
  /// copying it per operation.
  const std::string &getFullName() const { return FullName; }

  const std::string &getSummary() const { return Summary; }
  void setSummary(std::string S) { Summary = std::move(S); }

  /// Terminator ops may only appear last in a block (Section 4.6:
  /// "Defining a Successors field (even empty) will define an operation as
  /// a terminator").
  bool isTerminator() const { return Terminator; }
  void setTerminator(bool V = true) { Terminator = V; }

  /// Expected number of successors, if constrained.
  std::optional<unsigned> getNumSuccessors() const { return NumSuccessors; }
  void setNumSuccessors(unsigned N) { NumSuccessors = N; }

  /// The operation verifier (constraints compiled from IRDL, or native).
  void setVerifier(VerifierFn Fn) { Verifier = std::move(Fn); }
  const VerifierFn &getVerifier() const { return Verifier; }

  /// Custom-syntax hooks. When absent, the generic syntax is used. IRDL
  /// `Format` directives compile to these; builtin ops install native ones.
  void setPrintFn(PrintFn Fn) { Printer = std::move(Fn); }
  const PrintFn &getPrintFn() const { return Printer; }
  void setParseFn(ParseFn Fn) { Parser = std::move(Fn); }
  const ParseFn &getParseFn() const { return Parser; }

  bool requiresCpp() const { return RequiresCpp; }
  void setRequiresCpp(bool V = true) { RequiresCpp = V; }

private:
  Dialect *Owner;
  std::string Name;
  std::string FullName;
  std::string Summary;
  bool Terminator = false;
  std::optional<unsigned> NumSuccessors;
  VerifierFn Verifier;
  PrintFn Printer;
  ParseFn Parser;
  bool RequiresCpp = false;
};

/// A dialect: a namespace of type, attribute, enum, and op definitions.
class Dialect {
public:
  Dialect(const IRContext *Ctx, std::string Namespace)
      : Ctx(Ctx), Namespace(std::move(Namespace)) {}

  /// The context that registered this dialect. Read-only: it may be the
  /// shared parent of the context IR is being built in, so types and
  /// attributes are created through the IR's own context instead.
  const IRContext *getContext() const { return Ctx; }
  const std::string &getNamespace() const { return Namespace; }

  /// Registration. Each returns the created definition (owned by the
  /// dialect) or null if the name is already taken.
  TypeDefinition *addType(std::string Name);
  AttrDefinition *addAttr(std::string Name);
  OpDefinition *addOp(std::string Name);
  EnumDef *addEnum(std::string Name, std::vector<std::string> Cases);

  /// Lookup by short name; returns null if absent.
  TypeDefinition *lookupType(std::string_view Name) const;
  AttrDefinition *lookupAttr(std::string_view Name) const;
  OpDefinition *lookupOp(std::string_view Name) const;
  EnumDef *lookupEnum(std::string_view Name) const;

  /// Stable, name-ordered iteration for printing and analysis.
  std::vector<TypeDefinition *> getTypeDefs() const;
  std::vector<AttrDefinition *> getAttrDefs() const;
  std::vector<OpDefinition *> getOpDefs() const;
  std::vector<EnumDef *> getEnumDefs() const;

private:
  const IRContext *Ctx;
  std::string Namespace;
  std::map<std::string, std::unique_ptr<TypeDefinition>, std::less<>> Types;
  std::map<std::string, std::unique_ptr<AttrDefinition>, std::less<>> Attrs;
  std::map<std::string, std::unique_ptr<OpDefinition>, std::less<>> Ops;
  std::map<std::string, std::unique_ptr<EnumDef>, std::less<>> Enums;
};

} // namespace irdl

#endif // IRDL_IR_DIALECT_H
