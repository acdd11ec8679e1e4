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

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <unordered_map>

namespace irdl {

class OpArena;

namespace detail {
/// One shard of the context's type/attribute uniquer: an open multimap
/// keyed by the (definition, params) hash, guarded by a reader/writer
/// lock. See the thread-safety note on IRContext.
template <typename StorageT> struct UniquerShard {
  mutable std::shared_mutex Mu;
  std::unordered_multimap<size_t, std::unique_ptr<StorageT>> Pool;
};
} // namespace detail

/// Parses and prints the payload of an opaque parameter kind.
struct OpaqueParamCodec {
  /// Renders the payload for the textual format (it will be quoted).
  std::function<std::string(const OpaqueVal &)> Print;
  /// Validates/normalizes a payload string; nullopt rejects it.
  std::function<std::optional<std::string>(std::string_view)> Parse;
};

/// Thread-safety: IRContext is safe to share across threads, as
/// irdl_serve's connection threads share one per epoch. Type/attribute
/// uniquing goes through hash-sharded pools behind shared_mutexes, and
/// the dialect and codec registries are reader/writer-locked.
/// Registration (loading IRDL dialects, adding ops/types, installing
/// codecs) is expected to happen in a setup phase; concurrent *lookups*
/// afterwards are lock-protected and cheap. See the Concurrency section
/// of docs/serving.md.
class IRContext {
public:
  IRContext();
  ~IRContext();
  IRContext(const IRContext &) = delete;
  IRContext &operator=(const IRContext &) = delete;

  //===------------------------------------------------------------------===//
  // Dialects
  //===------------------------------------------------------------------===//

  /// Returns the dialect registered under \p Namespace, creating it if
  /// needed.
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

  /// Returns the uniqued type for (Def, Params). Asserts that the
  /// definition's verifier (if any) accepts the parameters.
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

  /// Number of distinct uniqued types/attributes (introspection, tests).
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
  /// Overwrites any existing codec of that name.
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
  /// from. Sharded per thread; see ir/OpArena.h. Operations must not
  /// outlive their context.
  OpArena &getOpArena() { return *Arena; }

private:
  void registerBuiltinDialect();

  mutable std::shared_mutex DialectsMu;
  std::map<std::string, std::unique_ptr<Dialect>, std::less<>> Dialects;

  /// Storage arena for operations (and their operand overflow arrays).
  std::unique_ptr<OpArena> Arena;

  /// The uniquer pools are sharded by hash so threads creating
  /// types/attrs concurrently rarely contend on the same lock.
  /// Lookups take a shard's shared side; the insert-on-miss path
  /// re-checks under the exclusive side, so two racing creators agree on
  /// the first inserted storage (pointer-identity of equal keys holds
  /// under concurrency).
  static constexpr size_t NumUniquerShards = 16;
  std::array<detail::UniquerShard<TypeStorage>, NumUniquerShards>
      TypeShards;
  std::array<detail::UniquerShard<AttrStorage>, NumUniquerShards>
      AttrShards;

  mutable std::shared_mutex CodecsMu;
  std::map<std::string, OpaqueParamCodec, std::less<>> OpaqueCodecs;

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
