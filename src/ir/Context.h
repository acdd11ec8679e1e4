//===- Context.h - IR context: uniquing and registry -------------*- C++ -*-===//
///
/// \file
/// The IRContext owns every dialect and uniques every type and attribute
/// (hash-consing), so that handle equality is pointer equality — the
/// property the constraint engine's equality constraints rely on. It also
/// hosts the registry of opaque parameter codecs (IRDL-C++
/// TypeOrAttrParam) and native constraint callbacks.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_CONTEXT_H
#define IRDL_IR_CONTEXT_H

#include "ir/Dialect.h"

#include <functional>
#include <map>
#include <memory>
#include <memory_resource>
#include <optional>
#include <span>
#include <unordered_map>

namespace irdl {

class OpArena;

/// Parses and prints the payload of an opaque parameter kind.
struct OpaqueParamCodec {
  /// Renders the payload for the textual format (it will be quoted).
  std::function<std::string(const OpaqueVal &)> Print;
  /// Validates/normalizes a payload string; nullopt rejects it.
  std::function<std::optional<std::string>(std::string_view)> Parse;
};

/// Thread-safety: share a context only as `const`; a context you write is
/// yours alone. Nothing in IRContext takes a lock. A context that threads
/// share (irdl_serve's epoch context) is fully built first — dialects,
/// codecs, builtins — and is then only read. A thread that needs to
/// create IR builds a child context of the shared one
/// (IRContext(const IRContext &)): the child answers registry lookups
/// from its parent, finds types and attributes in its parent's pools
/// before its own, interns only what the parent lacks, and allocates its
/// operations from its own arena. See the Concurrency section of
/// docs/serving.md.
class IRContext {
public:
  /// A root context with the builtin dialects registered.
  IRContext();
  /// A child of \p Parent, which must outlive it and must not change
  /// while it lives. Not a copy: the child starts with no uniqued storage
  /// and no operations, and registers nothing (dialects and codecs are
  /// looked up in the parent). IR built in the child must not outlive it.
  explicit IRContext(const IRContext &Parent);
  ~IRContext();
  IRContext &operator=(const IRContext &) = delete;

  //===------------------------------------------------------------------===//
  // Dialects
  //===------------------------------------------------------------------===//

  /// Returns the dialect registered under \p Namespace, creating it if
  /// needed. Only a root context registers dialects.
  Dialect *getOrCreateDialect(std::string_view Namespace);

  /// Returns the dialect or null.
  Dialect *lookupDialect(std::string_view Namespace) const;

  /// All dialects in namespace order.
  std::vector<Dialect *> getDialects() const;

  /// Resolves a possibly-qualified component name. "cmath.complex" looks
  /// in dialect cmath; a bare "complex" looks in \p Current (if given),
  /// then in builtin, then in std (the namespace-elision rule of
  /// Section 4.2).
  TypeDefinition *resolveTypeDef(std::string_view Name,
                                 Dialect *Current = nullptr) const;
  AttrDefinition *resolveAttrDef(std::string_view Name,
                                 Dialect *Current = nullptr) const;
  OpDefinition *resolveOpDef(std::string_view Name,
                             Dialect *Current = nullptr) const;
  EnumDef *resolveEnumDef(std::string_view Name,
                          Dialect *Current = nullptr) const;

  //===------------------------------------------------------------------===//
  // Type / attribute uniquing
  //===------------------------------------------------------------------===//

  /// Returns the uniqued type for (Def, Params): the parent's (and its
  /// parent's) storage if it has one, else this context's own. Asserts
  /// that the definition's verifier (if any) accepts the parameters.
  Type getType(const TypeDefinition *Def, std::vector<ParamValue> Params = {});

  /// Like getType, but reports verifier failures through \p Diags and
  /// returns a null Type instead of asserting.
  Type getTypeChecked(const TypeDefinition *Def,
                      std::vector<ParamValue> Params, DiagnosticEngine &Diags,
                      SMLoc Loc = SMLoc());

  Attribute getAttr(const AttrDefinition *Def,
                    std::vector<ParamValue> Params = {});
  Attribute getAttrChecked(const AttrDefinition *Def,
                           std::vector<ParamValue> Params,
                           DiagnosticEngine &Diags, SMLoc Loc = SMLoc());

  /// Like getTypeChecked and getAttrChecked, for parameters the caller
  /// keeps: they are copied only when the type or attribute is new, so
  /// finding an existing one allocates nothing.
  Type lookupOrCreateType(const TypeDefinition *Def,
                          std::span<const ParamValue> Params,
                          DiagnosticEngine &Diags, SMLoc Loc = SMLoc());
  Attribute lookupOrCreateAttr(const AttrDefinition *Def,
                               std::span<const ParamValue> Params,
                               DiagnosticEngine &Diags, SMLoc Loc = SMLoc());

  /// Number of distinct types/attributes uniqued in this context's own
  /// pools, not counting its parent's (introspection, tests).
  size_t getNumUniquedTypes() const;
  size_t getNumUniquedAttrs() const;

  //===------------------------------------------------------------------===//
  // Builtin shorthands
  //===------------------------------------------------------------------===//

  /// f16/f32/f64.
  Type getFloatType(unsigned Width);
  /// iN / siN / uiN.
  Type getIntegerType(unsigned Width,
                      Signedness Sign = Signedness::Signless);
  Type getIndexType();
  /// (inputs) -> (results).
  Type getFunctionType(const std::vector<Type> &Inputs,
                       const std::vector<Type> &Results);

  Attribute getIntegerAttr(IntVal Value);
  Attribute getIntegerAttr(int64_t Value, unsigned Width = 64,
                           Signedness Sign = Signedness::Signless);
  Attribute getFloatAttr(double Value, unsigned Width = 64);
  Attribute getStringAttr(std::string Value);
  Attribute getTypeAttr(Type T);
  Attribute getUnitAttr();
  Attribute getArrayAttr(std::vector<Attribute> Elements);
  /// Wraps an enum constructor as an attribute (printed as the dotted
  /// constructor path, e.g. `arith.fastmath.fast`).
  Attribute getEnumAttr(EnumVal Value);

  /// The signedness enum of the builtin integer type.
  EnumDef *getSignednessEnum() const { return SignednessEnum; }

  //===------------------------------------------------------------------===//
  // Opaque parameter codecs (IRDL-C++ TypeOrAttrParam)
  //===------------------------------------------------------------------===//

  /// Registers a codec for opaque parameters named \p ParamTypeName.
  /// Overwrites any existing codec of that name. Root contexts only.
  void registerOpaqueParamCodec(std::string ParamTypeName,
                                OpaqueParamCodec Codec);
  const OpaqueParamCodec *lookupOpaqueParamCodec(
      std::string_view ParamTypeName) const;

  //===------------------------------------------------------------------===//
  // Policy
  //===------------------------------------------------------------------===//

  /// Whether operations with no registered definition may be created or
  /// parsed. Off by default: the IRDL flow registers everything first.
  bool allowsUnregisteredOps() const { return AllowUnregisteredOps; }
  void setAllowUnregisteredOps(bool Allow) { AllowUnregisteredOps = Allow; }

  //===------------------------------------------------------------------===//
  // Operation storage
  //===------------------------------------------------------------------===//

  /// The bump-pointer arena every Operation of this context is allocated
  /// from; see ir/OpArena.h. Operations must not outlive their context.
  OpArena &getOpArena() { return *Arena; }

private:
  template <typename StorageT>
  using UniquePool = std::unordered_multimap<size_t, std::unique_ptr<StorageT>>;

  void registerBuiltinDialect();

  /// Finds (Def, Params) in the pool \p PoolOf of this context or an
  /// ancestor; on a miss runs the definition's verifier and interns the
  /// storage into this context's own pool. Null if the verifier fails.
  /// \p Owned, if given, holds \p Params and is moved from on a miss;
  /// otherwise a miss copies them.
  template <typename StorageT, typename DefT>
  StorageT *uniqueStorage(UniquePool<StorageT> IRContext::*PoolOf,
                          const DefT *Def, std::span<const ParamValue> Params,
                          std::vector<ParamValue> *Owned,
                          DiagnosticEngine &Diags, SMLoc Loc);

  /// Holds the dialects, their definitions and the codec table; declared
  /// first, so it is freed last, in one go.
  BumpStorage Storage;

  const IRContext *Parent = nullptr;

  /// Sorted by namespace.
  std::pmr::vector<Dialect *> Dialects{&Storage};

  /// Storage arena for operations (and their operand overflow arrays).
  std::unique_ptr<OpArena> Arena;

  UniquePool<TypeStorage> TypePool;
  UniquePool<AttrStorage> AttrPool;

  std::pmr::map<std::pmr::string, OpaqueParamCodec, std::less<>> OpaqueCodecs{
      &Storage};

  bool AllowUnregisteredOps = false;

  // Cached builtin definitions.
  TypeDefinition *FloatTypeDefs[3] = {nullptr, nullptr, nullptr}; // f16/32/64
  TypeDefinition *IntegerTypeDef = nullptr;
  TypeDefinition *IndexTypeDef = nullptr;
  TypeDefinition *FunctionTypeDef = nullptr;
  AttrDefinition *IntAttrDef = nullptr;
  AttrDefinition *FloatAttrDef = nullptr;
  AttrDefinition *StringAttrDef = nullptr;
  AttrDefinition *TypeAttrDef = nullptr;
  AttrDefinition *UnitAttrDef = nullptr;
  AttrDefinition *ArrayAttrDef = nullptr;
  AttrDefinition *EnumAttrDef = nullptr;
  EnumDef *SignednessEnum = nullptr;

public:
  /// Direct access to the cached builtin definitions (used by printers,
  /// parsers, and the constraint engine's sugar handling).
  TypeDefinition *getFloatTypeDef(unsigned Width) const;
  TypeDefinition *getIntegerTypeDef() const { return IntegerTypeDef; }
  TypeDefinition *getIndexTypeDef() const { return IndexTypeDef; }
  TypeDefinition *getFunctionTypeDef() const { return FunctionTypeDef; }
  AttrDefinition *getIntAttrDef() const { return IntAttrDef; }
  AttrDefinition *getFloatAttrDef() const { return FloatAttrDef; }
  AttrDefinition *getStringAttrDef() const { return StringAttrDef; }
  AttrDefinition *getTypeAttrDef() const { return TypeAttrDef; }
  AttrDefinition *getUnitAttrDef() const { return UnitAttrDef; }
  AttrDefinition *getArrayAttrDef() const { return ArrayAttrDef; }
  AttrDefinition *getEnumAttrDef() const { return EnumAttrDef; }
};

} // namespace irdl

#endif // IRDL_IR_CONTEXT_H
