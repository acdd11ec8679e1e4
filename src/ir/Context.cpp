//===- Context.cpp --------------------------------------------------===//

#include "ir/Context.h"

#include "ir/OpArena.h"
#include "support/Statistic.h"

#include <algorithm>
#include <cassert>
#include <type_traits>

using namespace irdl;

IRDL_STATISTIC(Uniquing, NumTypeUniqueHits,
               "type uniquing requests served from the pool");
IRDL_STATISTIC(Uniquing, NumTypeUniqueMisses,
               "type uniquing requests that allocated storage");
IRDL_STATISTIC(Uniquing, NumAttrUniqueHits,
               "attribute uniquing requests served from the pool");
IRDL_STATISTIC(Uniquing, NumAttrUniqueMisses,
               "attribute uniquing requests that allocated storage");

// Implemented in BuiltinOps.cpp; registers module/func/return/arith ops.
namespace irdl {
void registerBuiltinOps(IRContext &Ctx);
}

IRContext::IRContext() : Arena(std::make_unique<OpArena>()) {
  registerBuiltinDialect();
  registerBuiltinOps(*this);
}

IRContext::IRContext(const IRContext &Parent)
    : Parent(&Parent), Arena(std::make_unique<OpArena>()),
      AllowUnregisteredOps(Parent.AllowUnregisteredOps),
      IntegerTypeDef(Parent.IntegerTypeDef), IndexTypeDef(Parent.IndexTypeDef),
      FunctionTypeDef(Parent.FunctionTypeDef), IntAttrDef(Parent.IntAttrDef),
      FloatAttrDef(Parent.FloatAttrDef), StringAttrDef(Parent.StringAttrDef),
      TypeAttrDef(Parent.TypeAttrDef), UnitAttrDef(Parent.UnitAttrDef),
      ArrayAttrDef(Parent.ArrayAttrDef), EnumAttrDef(Parent.EnumAttrDef),
      SignednessEnum(Parent.SignednessEnum) {
  std::copy(std::begin(Parent.FloatTypeDefs), std::end(Parent.FloatTypeDefs),
            std::begin(FloatTypeDefs));
}

IRContext::~IRContext() = default;

Dialect *IRContext::getOrCreateDialect(std::string_view Namespace) {
  assert(!Parent && "dialects are registered in a root context");
  auto It = Dialects.find(Namespace);
  if (It != Dialects.end())
    return It->second.get();
  auto D = std::make_unique<Dialect>(this, std::string(Namespace));
  Dialect *Result = D.get();
  Dialects.emplace(std::string(Namespace), std::move(D));
  return Result;
}

Dialect *IRContext::lookupDialect(std::string_view Namespace) const {
  if (Parent)
    return Parent->lookupDialect(Namespace);
  auto It = Dialects.find(Namespace);
  return It == Dialects.end() ? nullptr : It->second.get();
}

std::vector<Dialect *> IRContext::getDialects() const {
  if (Parent)
    return Parent->getDialects();
  std::vector<Dialect *> Result;
  Result.reserve(Dialects.size());
  for (const auto &[Name, D] : Dialects)
    Result.push_back(D.get());
  return Result;
}

namespace {
/// Splits "dialect.rest.of.name" into (dialect, rest); when there is no
/// dot, dialect is empty.
std::pair<std::string_view, std::string_view>
splitQualified(std::string_view Name) {
  size_t Dot = Name.find('.');
  if (Dot == std::string_view::npos)
    return {std::string_view(), Name};
  return {Name.substr(0, Dot), Name.substr(Dot + 1)};
}
} // namespace

/// Shared resolution logic: qualified names go to their dialect; bare names
/// search Current, builtin, std (Section 4.2's elision rule).
template <typename T, typename LookupFn>
static T *resolveComponent(const IRContext *Ctx, std::string_view Name,
                           Dialect *Current, LookupFn Lookup) {
  auto [DialectName, Rest] = splitQualified(Name);
  if (!DialectName.empty()) {
    if (Dialect *D = Ctx->lookupDialect(DialectName))
      if (T *Def = Lookup(D, Rest))
        return Def;
    // A dotted name whose head is not a dialect may still be a bare name
    // in a searched namespace (e.g. enum constructor paths); fall through.
  }
  if (Current)
    if (T *Def = Lookup(Current, Name))
      return Def;
  for (const char *Ns : {"builtin", "std"}) {
    if (Dialect *D = Ctx->lookupDialect(Ns))
      if (T *Def = Lookup(D, Name))
        return Def;
  }
  return nullptr;
}

TypeDefinition *IRContext::resolveTypeDef(std::string_view Name,
                                          Dialect *Current) const {
  return resolveComponent<TypeDefinition>(
      this, Name, Current,
      [](Dialect *D, std::string_view N) { return D->lookupType(N); });
}

AttrDefinition *IRContext::resolveAttrDef(std::string_view Name,
                                          Dialect *Current) const {
  return resolveComponent<AttrDefinition>(
      this, Name, Current,
      [](Dialect *D, std::string_view N) { return D->lookupAttr(N); });
}

OpDefinition *IRContext::resolveOpDef(std::string_view Name,
                                      Dialect *Current) const {
  return resolveComponent<OpDefinition>(
      this, Name, Current,
      [](Dialect *D, std::string_view N) { return D->lookupOp(N); });
}

EnumDef *IRContext::resolveEnumDef(std::string_view Name,
                                   Dialect *Current) const {
  return resolveComponent<EnumDef>(
      this, Name, Current,
      [](Dialect *D, std::string_view N) { return D->lookupEnum(N); });
}

//===----------------------------------------------------------------------===//
// Uniquing
//===----------------------------------------------------------------------===//

static size_t hashDefAndParams(const void *Def,
                               const std::vector<ParamValue> &Params) {
  size_t Seed = std::hash<const void *>{}(Def);
  for (const ParamValue &P : Params)
    hashCombine(Seed, P.hash());
  return Seed;
}

/// A parent is never written while it has children, so this walk reads
/// the ancestors' pools without a lock; a child interns only keys its
/// ancestors lack, so equal keys still share one storage pointer.
template <typename StorageT, typename DefT>
StorageT *IRContext::uniqueStorage(UniquePool<StorageT> IRContext::*PoolOf,
                                   const DefT *Def,
                                   std::vector<ParamValue> &&Params,
                                   DiagnosticEngine &Diags, SMLoc Loc) {
  assert(Def && "null type or attribute definition");
  constexpr bool IsType = std::is_same_v<StorageT, TypeStorage>;
  size_t H = hashDefAndParams(Def, Params);
  for (const IRContext *C = this; C; C = C->Parent) {
    auto [It, End] = (C->*PoolOf).equal_range(H);
    for (; It != End; ++It)
      if (It->second->Def == Def && It->second->Params == Params) {
        ++(IsType ? NumTypeUniqueHits : NumAttrUniqueHits);
        return It->second.get();
      }
  }
  ++(IsType ? NumTypeUniqueMisses : NumAttrUniqueMisses);

  // The verifier may unique nested types; it runs before the insert.
  if (const auto &Verifier = Def->getVerifier())
    if (failed(Verifier(Params, Diags, Loc)))
      return nullptr;
  auto Storage = std::make_unique<StorageT>();
  Storage->Def = Def;
  Storage->Params = std::move(Params);
  StorageT *Raw = Storage.get();
  (this->*PoolOf).emplace(H, std::move(Storage));
  return Raw;
}

Type IRContext::getType(const TypeDefinition *Def,
                        std::vector<ParamValue> Params) {
  DiagnosticEngine Scratch;
  Type T = getTypeChecked(Def, std::move(Params), Scratch);
  assert(T && "type parameters rejected by definition verifier; use "
              "getTypeChecked for fallible construction");
  return T;
}

Type IRContext::getTypeChecked(const TypeDefinition *Def,
                               std::vector<ParamValue> Params,
                               DiagnosticEngine &Diags, SMLoc Loc) {
  return Type(uniqueStorage(&IRContext::TypePool, Def, std::move(Params),
                            Diags, Loc));
}

Attribute IRContext::getAttr(const AttrDefinition *Def,
                             std::vector<ParamValue> Params) {
  DiagnosticEngine Scratch;
  Attribute A = getAttrChecked(Def, std::move(Params), Scratch);
  assert(A && "attribute parameters rejected by definition verifier; use "
              "getAttrChecked for fallible construction");
  return A;
}

Attribute IRContext::getAttrChecked(const AttrDefinition *Def,
                                    std::vector<ParamValue> Params,
                                    DiagnosticEngine &Diags, SMLoc Loc) {
  return Attribute(uniqueStorage(&IRContext::AttrPool, Def, std::move(Params),
                                 Diags, Loc));
}

size_t IRContext::getNumUniquedTypes() const { return TypePool.size(); }

size_t IRContext::getNumUniquedAttrs() const { return AttrPool.size(); }

//===----------------------------------------------------------------------===//
// Builtin dialect
//===----------------------------------------------------------------------===//

void IRContext::registerBuiltinDialect() {
  Dialect *Builtin = getOrCreateDialect("builtin");

  SignednessEnum = Builtin->addEnum(
      "signedness", {"Signless", "Signed", "Unsigned"});

  const char *FloatNames[3] = {"f16", "f32", "f64"};
  for (unsigned I = 0; I != 3; ++I) {
    FloatTypeDefs[I] = Builtin->addType(FloatNames[I]);
    FloatTypeDefs[I]->setSummary("An IEEE floating-point type");
  }

  IntegerTypeDef = Builtin->addType("integer");
  IntegerTypeDef->setSummary("An integer type with bitwidth and signedness");
  IntegerTypeDef->setParamNames({"bitwidth", "signedness"});
  EnumDef *SignEnum = SignednessEnum;
  IntegerTypeDef->setVerifier(
      [SignEnum](const std::vector<ParamValue> &Params,
                 DiagnosticEngine &Diags, SMLoc Loc) -> LogicalResult {
        if (Params.size() != 2 || !Params[0].isInt() || !Params[1].isEnum() ||
            Params[1].getEnum().Def != SignEnum) {
          Diags.emitError(Loc, "builtin.integer expects (bitwidth: uint32_t, "
                               "signedness: signedness)");
          return failure();
        }
        int64_t Width = Params[0].getInt().Value;
        if (Width < 1 || Width > 128) {
          Diags.emitError(Loc, "integer bitwidth must be between 1 and 128");
          return failure();
        }
        return success();
      });

  IndexTypeDef = Builtin->addType("index");
  IndexTypeDef->setSummary("A platform-sized index type");

  FunctionTypeDef = Builtin->addType("function");
  FunctionTypeDef->setSummary("A function type: (inputs) -> (results)");
  FunctionTypeDef->setParamNames({"inputs", "results"});
  FunctionTypeDef->setVerifier(
      [](const std::vector<ParamValue> &Params, DiagnosticEngine &Diags,
         SMLoc Loc) -> LogicalResult {
        auto IsTypeArray = [](const ParamValue &P) {
          if (!P.isArray())
            return false;
          for (const ParamValue &Elem : P.getArray())
            if (!Elem.isType())
              return false;
          return true;
        };
        if (Params.size() != 2 || !IsTypeArray(Params[0]) ||
            !IsTypeArray(Params[1])) {
          Diags.emitError(
              Loc, "builtin.function expects two arrays of types");
          return failure();
        }
        return success();
      });

  IntAttrDef = Builtin->addAttr("int");
  IntAttrDef->setSummary("An integer attribute");
  IntAttrDef->setParamNames({"value"});
  IntAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                             DiagnosticEngine &Diags,
                             SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isInt()) {
      Diags.emitError(Loc, "builtin.int expects a single integer parameter");
      return failure();
    }
    return success();
  });

  FloatAttrDef = Builtin->addAttr("float");
  FloatAttrDef->setSummary("A floating-point attribute");
  FloatAttrDef->setParamNames({"value"});
  FloatAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                               DiagnosticEngine &Diags,
                               SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isFloat()) {
      Diags.emitError(Loc,
                      "builtin.float expects a single float parameter");
      return failure();
    }
    unsigned Width = Params[0].getFloat().Width;
    if (Width != 16 && Width != 32 && Width != 64) {
      Diags.emitError(Loc, "builtin.float width must be 16, 32 or 64");
      return failure();
    }
    return success();
  });

  StringAttrDef = Builtin->addAttr("string");
  StringAttrDef->setSummary("A string attribute");
  StringAttrDef->setParamNames({"value"});
  StringAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                                DiagnosticEngine &Diags,
                                SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isString()) {
      Diags.emitError(Loc,
                      "builtin.string expects a single string parameter");
      return failure();
    }
    return success();
  });

  TypeAttrDef = Builtin->addAttr("type");
  TypeAttrDef->setSummary("An attribute wrapping a type");
  TypeAttrDef->setParamNames({"type"});
  TypeAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                              DiagnosticEngine &Diags,
                              SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isType()) {
      Diags.emitError(Loc, "builtin.type expects a single type parameter");
      return failure();
    }
    return success();
  });

  EnumAttrDef = Builtin->addAttr("enum");
  EnumAttrDef->setSummary("An attribute holding an enum constructor");
  EnumAttrDef->setParamNames({"value"});
  EnumAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                              DiagnosticEngine &Diags,
                              SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isEnum()) {
      Diags.emitError(Loc, "builtin.enum expects a single enum parameter");
      return failure();
    }
    return success();
  });

  UnitAttrDef = Builtin->addAttr("unit");
  UnitAttrDef->setSummary("A unit (presence-only) attribute");

  ArrayAttrDef = Builtin->addAttr("array");
  ArrayAttrDef->setSummary("An array of attributes");
  ArrayAttrDef->setParamNames({"elements"});
  ArrayAttrDef->setVerifier([](const std::vector<ParamValue> &Params,
                               DiagnosticEngine &Diags,
                               SMLoc Loc) -> LogicalResult {
    if (Params.size() != 1 || !Params[0].isArray()) {
      Diags.emitError(Loc, "builtin.array expects a single array parameter");
      return failure();
    }
    for (const ParamValue &Elem : Params[0].getArray())
      if (!Elem.isAttr()) {
        Diags.emitError(Loc, "builtin.array elements must be attributes");
        return failure();
      }
    return success();
  });

  // Builtin opaque parameter kinds (Figure 8: locations and type ids are
  // builtin parameters in IRDL). The payload is an uninterpreted string.
  OpaqueParamCodec Identity;
  Identity.Print = [](const OpaqueVal &V) { return V.Payload; };
  Identity.Parse = [](std::string_view Payload) {
    return std::optional<std::string>(std::string(Payload));
  };
  registerOpaqueParamCodec("location", Identity);
  registerOpaqueParamCodec("type_id", Identity);
}

TypeDefinition *IRContext::getFloatTypeDef(unsigned Width) const {
  switch (Width) {
  case 16:
    return FloatTypeDefs[0];
  case 32:
    return FloatTypeDefs[1];
  case 64:
    return FloatTypeDefs[2];
  default:
    return nullptr;
  }
}

Type IRContext::getFloatType(unsigned Width) {
  TypeDefinition *Def = getFloatTypeDef(Width);
  assert(Def && "unsupported float width");
  return getType(Def);
}

Type IRContext::getIntegerType(unsigned Width, Signedness Sign) {
  return getType(IntegerTypeDef,
                 {ParamValue(IntVal{32, Signedness::Unsigned,
                                    static_cast<int64_t>(Width)}),
                  ParamValue(EnumVal{SignednessEnum,
                                     static_cast<unsigned>(Sign)})});
}

Type IRContext::getIndexType() { return getType(IndexTypeDef); }

Type IRContext::getFunctionType(const std::vector<Type> &Inputs,
                                const std::vector<Type> &Results) {
  std::vector<ParamValue> InputParams(Inputs.begin(), Inputs.end());
  std::vector<ParamValue> ResultParams(Results.begin(), Results.end());
  return getType(FunctionTypeDef, {ParamValue(std::move(InputParams)),
                                   ParamValue(std::move(ResultParams))});
}

Attribute IRContext::getIntegerAttr(IntVal Value) {
  return getAttr(IntAttrDef, {ParamValue(Value)});
}

Attribute IRContext::getIntegerAttr(int64_t Value, unsigned Width,
                                    Signedness Sign) {
  return getIntegerAttr(IntVal{static_cast<uint16_t>(Width), Sign, Value});
}

Attribute IRContext::getFloatAttr(double Value, unsigned Width) {
  return getAttr(FloatAttrDef,
                 {ParamValue(FloatVal{static_cast<uint16_t>(Width), Value})});
}

Attribute IRContext::getStringAttr(std::string Value) {
  return getAttr(StringAttrDef, {ParamValue(std::move(Value))});
}

Attribute IRContext::getTypeAttr(Type T) {
  return getAttr(TypeAttrDef, {ParamValue(T)});
}

Attribute IRContext::getUnitAttr() { return getAttr(UnitAttrDef); }

Attribute IRContext::getEnumAttr(EnumVal Value) {
  return getAttr(EnumAttrDef, {ParamValue(Value)});
}

Attribute IRContext::getArrayAttr(std::vector<Attribute> Elements) {
  std::vector<ParamValue> Params(Elements.begin(), Elements.end());
  return getAttr(ArrayAttrDef, {ParamValue(std::move(Params))});
}

void IRContext::registerOpaqueParamCodec(std::string ParamTypeName,
                                         OpaqueParamCodec Codec) {
  assert(!Parent && "codecs are registered in a root context");
  OpaqueCodecs[std::move(ParamTypeName)] = std::move(Codec);
}

const OpaqueParamCodec *
IRContext::lookupOpaqueParamCodec(std::string_view ParamTypeName) const {
  if (Parent)
    return Parent->lookupOpaqueParamCodec(ParamTypeName);
  auto It = OpaqueCodecs.find(ParamTypeName);
  return It == OpaqueCodecs.end() ? nullptr : &It->second;
}
