//===- Dialect.h - Dialects and runtime definitions --------------*- C++ -*-===//
///
/// \file
/// Runtime definitions of dialects and their components. Every type,
/// attribute, enum, and operation — builtin ones registered from C++ and
/// dynamic ones registered from an IRDL specification — is represented by
/// a *definition* object owned by its Dialect. This is what makes dialects
/// registrable at runtime without recompilation (Section 3 of the paper).
///
/// Dialects and definitions live in the bump storage of the root context
/// that registers them (support/BumpStorage.h): they are never freed one
/// by one, only all at once with the context.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_DIALECT_H
#define IRDL_IR_DIALECT_H

#include "ir/Types.h"
#include "support/BumpStorage.h"
#include "support/Diagnostics.h"
#include "support/LogicalResult.h"

#include <functional>
#include <initializer_list>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <string>
#include <string_view>
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
  EnumDef(Dialect *D, std::string_view Name,
          std::span<const std::string_view> Cases)
      : Owner(D), Name(Name), Cases(Cases) {}

  Dialect *getDialect() const { return Owner; }
  std::string_view getShortName() const { return Name; }
  std::string getFullName() const;
  std::span<const std::string_view> getCases() const { return Cases; }

  /// Returns the index of \p Case, or nullopt if it is not a constructor.
  std::optional<unsigned> lookupCase(std::string_view Case) const;

private:
  Dialect *Owner;
  std::string_view Name;
  std::span<const std::string_view> Cases;
};

/// The builtin type and attribute definitions that print in a short
/// form, tagged when the builtin dialect is registered.
enum class BuiltinKind : uint8_t {
  None,
  FloatType,
  IntegerType,
  IndexType,
  FunctionType,
  IntAttr,
  FloatAttr,
  StringAttr,
  TypeAttr,
  UnitAttr,
  EnumAttr,
  ArrayAttr,
};

/// Common state of type and attribute definitions.
class TypeOrAttrDefinitionBase {
public:
  using VerifierFn = std::function<LogicalResult(
      const std::vector<ParamValue> &, DiagnosticEngine &, SMLoc)>;

  TypeOrAttrDefinitionBase(Dialect *D, std::string_view Name)
      : Owner(D), Name(Name) {}

  Dialect *getDialect() const { return Owner; }
  std::string_view getShortName() const { return Name; }
  std::string getFullName() const;

  /// The summary is not copied: it must outlive the definition (a
  /// literal, or the storage of a spec the dialect retains).
  std::string_view getSummary() const { return Summary; }
  void setSummary(std::string_view S) { Summary = S; }

  std::span<const std::string_view> getParamNames() const {
    return ParamNames;
  }
  /// Copies \p Names into the dialect's storage.
  void setParamNames(std::span<const std::string_view> Names);
  void setParamNames(std::initializer_list<std::string_view> Names) {
    setParamNames(std::span(Names.begin(), Names.size()));
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

  BuiltinKind getBuiltinKind() const { return Builtin; }
  void setBuiltinKind(BuiltinKind K) { Builtin = K; }

private:
  Dialect *Owner;
  std::string_view Name;
  std::string_view Summary;
  std::span<const std::string_view> ParamNames;
  VerifierFn Verifier;
  bool RequiresCpp = false;
  BuiltinKind Builtin = BuiltinKind::None;
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

  OpDefinition(Dialect *D, std::string_view Name);

  Dialect *getDialect() const { return Owner; }
  std::string_view getShortName() const { return Name; }
  /// The cached "dialect.op" name. Returned by reference so that every
  /// OperationName of a registered op aliases one string instead of
  /// copying it per operation.
  const std::string &getFullName() const { return FullName; }

  /// The summary is not copied: it must outlive the definition (a
  /// literal, or the storage of a spec the dialect retains).
  std::string_view getSummary() const { return Summary; }
  void setSummary(std::string_view S) { Summary = S; }

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

  /// MLIR's IsolatedFromAbove trait: ops nested in this op use no value
  /// defined outside it. Declared at registration (`builtin.module`,
  /// `std.func`); the verifier times these ops as its per-function grain.
  bool isIsolatedFromAbove() const { return IsolatedFromAbove; }
  void setIsolatedFromAbove(bool V = true) { IsolatedFromAbove = V; }

private:
  Dialect *Owner;
  std::string_view Name;
  std::string FullName;
  std::string_view Summary;
  bool Terminator = false;
  std::optional<unsigned> NumSuccessors;
  VerifierFn Verifier;
  PrintFn Printer;
  ParseFn Parser;
  bool RequiresCpp = false;
  bool IsolatedFromAbove = false;
};

/// A dialect: a namespace of type, attribute, enum, and op definitions.
/// It lives in its context's storage, with its definitions.
class Dialect {
public:
  Dialect(const IRContext *Ctx, BumpStorage &Storage,
          std::string_view Namespace)
      : Ctx(Ctx), Storage(Storage), Namespace(Namespace), Defs(&Storage),
        Retained(&Storage) {}

  /// The context that registered this dialect. Read-only: it may be the
  /// shared parent of the context IR is being built in, so types and
  /// attributes are created through the IR's own context instead.
  const IRContext *getContext() const { return Ctx; }
  const std::string &getNamespace() const { return Namespace; }

  /// The storage of the registering context, which holds the dialect's
  /// definitions and names.
  BumpStorage &getStorage() const { return Storage; }

  /// Registration. Each returns the created definition (owned by the
  /// dialect) or null if the name is already taken by a definition of
  /// the same kind. Names are copied.
  TypeDefinition *addType(std::string_view Name);
  AttrDefinition *addAttr(std::string_view Name);
  OpDefinition *addOp(std::string_view Name);
  EnumDef *addEnum(std::string_view Name,
                   std::span<const std::string_view> Cases);
  EnumDef *addEnum(std::string_view Name,
                   std::initializer_list<std::string_view> Cases) {
    return addEnum(Name, std::span(Cases.begin(), Cases.size()));
  }

  /// Keeps \p Owner alive as long as the dialect: the spec whose storage
  /// the definitions' hooks and summaries point into.
  void retain(std::shared_ptr<const void> Owner) {
    Retained.push_back(std::move(Owner));
  }

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
  enum class DefKind : uint8_t { Type, Attr, Op, Enum };
  /// One entry of the definition table, which is sorted by (Name, Kind).
  struct Entry {
    std::string_view Name;
    DefKind Kind;
    void *Def;
  };

  /// The entry of (\p Name, \p Kind), or where it would be inserted.
  std::pmr::vector<Entry>::const_iterator find(std::string_view Name,
                                               DefKind Kind) const;
  void *lookup(std::string_view Name, DefKind Kind) const;
  /// Creates a T from (this, copied name, \p Args...) and enters it,
  /// unless the name is taken.
  template <typename T, typename... ArgTs>
  T *add(std::string_view Name, DefKind Kind, ArgTs &&...Args);
  template <typename T> std::vector<T *> collect(DefKind Kind) const;

  const IRContext *Ctx;
  BumpStorage &Storage;
  std::string Namespace;
  std::pmr::vector<Entry> Defs;
  std::pmr::vector<std::shared_ptr<const void>> Retained;
};

} // namespace irdl

#endif // IRDL_IR_DIALECT_H
