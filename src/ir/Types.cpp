//===- Types.cpp ----------------------------------------------------===//

#include "ir/Types.h"

#include "ir/Context.h"
#include "ir/Dialect.h"
#include "ir/Printer.h"

using namespace irdl;

std::string_view irdl::signednessPrefix(Signedness S) {
  switch (S) {
  case Signedness::Signless:
    return "i";
  case Signedness::Signed:
    return "si";
  case Signedness::Unsigned:
    return "ui";
  }
  return "i";
}

const TypeDefinition *Type::getDef() const {
  assert(Impl && "null type");
  return Impl->Def;
}

const std::vector<ParamValue> &Type::getParams() const {
  assert(Impl && "null type");
  return Impl->Params;
}

Dialect *Type::getDialect() const { return getDef()->getDialect(); }
const IRContext *Type::getContext() const { return getDialect()->getContext(); }
std::string Type::getName() const { return getDef()->getFullName(); }

const ParamValue &Type::getParam(std::string_view Name) const {
  auto Index = getDef()->lookupParam(Name);
  assert(Index && "no such type parameter");
  return getParams()[*Index];
}

std::string Type::str() const { return printTypeToString(*this); }

const AttrDefinition *Attribute::getDef() const {
  assert(Impl && "null attribute");
  return Impl->Def;
}

const std::vector<ParamValue> &Attribute::getParams() const {
  assert(Impl && "null attribute");
  return Impl->Params;
}

Dialect *Attribute::getDialect() const { return getDef()->getDialect(); }
const IRContext *Attribute::getContext() const {
  return getDialect()->getContext();
}
std::string Attribute::getName() const { return getDef()->getFullName(); }

const ParamValue &Attribute::getParam(std::string_view Name) const {
  auto Index = getDef()->lookupParam(Name);
  assert(Index && "no such attribute parameter");
  return getParams()[*Index];
}

std::string Attribute::str() const { return printAttrToString(*this); }

size_t ParamValue::hash() const {
  size_t Seed = static_cast<size_t>(getKind());
  switch (getKind()) {
  case Kind::Empty:
    break;
  case Kind::Type:
    hashCombine(Seed, std::hash<const void *>{}(getType().getImpl()));
    break;
  case Kind::Attr:
    hashCombine(Seed, std::hash<const void *>{}(getAttr().getImpl()));
    break;
  case Kind::Int: {
    const IntVal &V = getInt();
    hashCombine(Seed, hashValues(V.Width, static_cast<int>(V.Sign), V.Value));
    break;
  }
  case Kind::Float: {
    const FloatVal &V = getFloat();
    hashCombine(Seed, hashValues(V.Width, V.Value));
    break;
  }
  case Kind::String:
    hashCombine(Seed, std::hash<std::string>{}(getString()));
    break;
  case Kind::Enum: {
    const EnumVal &V = getEnum();
    hashCombine(Seed, hashValues(static_cast<const void *>(V.Def), V.Index));
    break;
  }
  case Kind::Array:
    for (const ParamValue &Elem : getArray())
      hashCombine(Seed, Elem.hash());
    break;
  case Kind::Opaque: {
    const OpaqueVal &V = getOpaque();
    hashCombine(Seed, hashValues(V.ParamTypeName, V.Payload));
    break;
  }
  }
  return Seed;
}

std::string ParamValue::str() const { return printParamToString(*this); }
