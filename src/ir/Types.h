//===- Types.h - Uniqued types, attributes, parameter values ----*- C++ -*-===//
///
/// \file
/// The value-semantic handles at the heart of the IR: Type and Attribute
/// are pointers to context-uniqued storage; ParamValue is the variant that
/// parameterizes them (Listing 9 of the paper: a type may carry integers,
/// enums, strings, nested types/attributes, arrays, or opaque C++ payloads
/// declared through IRDL-C++'s TypeOrAttrParam).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_TYPES_H
#define IRDL_IR_TYPES_H

#include "support/Hashing.h"

#include <cassert>
#include <cstdint>
#include <string>
#include <variant>
#include <vector>

namespace irdl {

class Attribute;
class AttrDefinition;
class Dialect;
class EnumDef;
class IRContext;
class ParamValue;
class Type;
class TypeDefinition;
struct AttrStorage;
struct TypeStorage;

/// Signedness of an integer value or integer type (Listing 9).
enum class Signedness : uint8_t { Signless, Signed, Unsigned };

/// Returns "i", "si", or "ui" — the sugar prefix for integer types.
std::string_view signednessPrefix(Signedness S);

/// An integer parameter value: a width- and signedness-tagged integer.
/// This is the runtime representation behind the int8_t..uint64_t parameter
/// constraints of Figure 2b.
struct IntVal {
  uint16_t Width = 64;
  Signedness Sign = Signedness::Signless;
  int64_t Value = 0;

  bool operator==(const IntVal &RHS) const = default;
};

/// A floating-point parameter value tagged with its bit-width.
struct FloatVal {
  uint16_t Width = 64;
  double Value = 0.0;

  bool operator==(const FloatVal &RHS) const = default;
};

/// A reference to one constructor of an Enum definition.
struct EnumVal {
  const EnumDef *Def = nullptr;
  unsigned Index = 0;

  bool operator==(const EnumVal &RHS) const = default;
};

/// An opaque parameter declared via IRDL-C++'s TypeOrAttrParam directive:
/// a named wrapper around an uninterpreted textual payload, parsed and
/// printed by callbacks registered under ParamTypeName.
struct OpaqueVal {
  std::string ParamTypeName;
  std::string Payload;

  bool operator==(const OpaqueVal &RHS) const = default;
};

/// A context-uniqued type handle. Null-constructible; compare by pointer.
class Type {
public:
  Type() = default;
  explicit Type(const TypeStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const Type &RHS) const { return Impl == RHS.Impl; }
  bool operator!=(const Type &RHS) const { return Impl != RHS.Impl; }

  const TypeStorage *getImpl() const { return Impl; }
  const TypeDefinition *getDef() const;
  const std::vector<ParamValue> &getParams() const;
  Dialect *getDialect() const;
  /// The context that registered the dialect (Dialect::getContext), which
  /// may be a read-only parent of the one that uniqued this type.
  const IRContext *getContext() const;

  /// Returns the fully qualified name, e.g. "cmath.complex".
  std::string getName() const;

  /// Returns the named parameter, asserting it exists.
  const ParamValue &getParam(std::string_view Name) const;

  /// Prints in textual syntax (`!cmath.complex<f32>` / sugar like `f32`).
  std::string str() const;

private:
  const TypeStorage *Impl = nullptr;
};

/// A context-uniqued attribute handle.
class Attribute {
public:
  Attribute() = default;
  explicit Attribute(const AttrStorage *Impl) : Impl(Impl) {}

  explicit operator bool() const { return Impl != nullptr; }
  bool operator==(const Attribute &RHS) const { return Impl == RHS.Impl; }
  bool operator!=(const Attribute &RHS) const { return Impl != RHS.Impl; }

  const AttrStorage *getImpl() const { return Impl; }
  const AttrDefinition *getDef() const;
  const std::vector<ParamValue> &getParams() const;
  Dialect *getDialect() const;
  const IRContext *getContext() const;

  std::string getName() const;
  const ParamValue &getParam(std::string_view Name) const;

  /// Prints in textual syntax (`#d.a<...>` / sugar like `3 : i32`).
  std::string str() const;

private:
  const AttrStorage *Impl = nullptr;
};

/// The variant value carried by type and attribute parameters.
class ParamValue {
public:
  enum class Kind {
    Empty,
    Type,
    Attr,
    Int,
    Float,
    String,
    Enum,
    Array,
    Opaque,
  };

  ParamValue() = default;
  /*implicit*/ ParamValue(Type T) : Storage(T) {}
  /*implicit*/ ParamValue(Attribute A) : Storage(A) {}
  /*implicit*/ ParamValue(IntVal V) : Storage(V) {}
  /*implicit*/ ParamValue(FloatVal V) : Storage(V) {}
  /*implicit*/ ParamValue(std::string S) : Storage(std::move(S)) {}
  /*implicit*/ ParamValue(EnumVal V) : Storage(V) {}
  /*implicit*/ ParamValue(std::vector<ParamValue> Elems)
      : Storage(std::move(Elems)) {}
  /*implicit*/ ParamValue(OpaqueVal V) : Storage(std::move(V)) {}

  Kind getKind() const { return static_cast<Kind>(Storage.index()); }

  bool isType() const { return getKind() == Kind::Type; }
  bool isAttr() const { return getKind() == Kind::Attr; }
  bool isInt() const { return getKind() == Kind::Int; }
  bool isFloat() const { return getKind() == Kind::Float; }
  bool isString() const { return getKind() == Kind::String; }
  bool isEnum() const { return getKind() == Kind::Enum; }
  bool isArray() const { return getKind() == Kind::Array; }
  bool isOpaque() const { return getKind() == Kind::Opaque; }

  Type getType() const { return std::get<Type>(Storage); }
  Attribute getAttr() const { return std::get<Attribute>(Storage); }
  const IntVal &getInt() const { return std::get<IntVal>(Storage); }
  const FloatVal &getFloat() const { return std::get<FloatVal>(Storage); }
  const std::string &getString() const {
    return std::get<std::string>(Storage);
  }
  const EnumVal &getEnum() const { return std::get<EnumVal>(Storage); }
  const std::vector<ParamValue> &getArray() const {
    return std::get<std::vector<ParamValue>>(Storage);
  }
  const OpaqueVal &getOpaque() const { return std::get<OpaqueVal>(Storage); }

  bool operator==(const ParamValue &RHS) const = default;

  /// Structural hash consistent with operator==.
  size_t hash() const;

  /// Prints in the textual parameter syntax.
  std::string str() const;

private:
  std::variant<std::monostate, Type, Attribute, IntVal, FloatVal,
               std::string, EnumVal, std::vector<ParamValue>, OpaqueVal>
      Storage;
};

/// Uniqued backing store for a Type. Created only by IRContext.
struct TypeStorage {
  const TypeDefinition *Def;
  std::vector<ParamValue> Params;
};

/// Uniqued backing store for an Attribute. Created only by IRContext.
struct AttrStorage {
  const AttrDefinition *Def;
  std::vector<ParamValue> Params;
};

} // namespace irdl

#endif // IRDL_IR_TYPES_H
