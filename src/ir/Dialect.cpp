//===- Dialect.cpp --------------------------------------------------===//

#include "ir/Dialect.h"

#include "ir/Context.h"

#include <algorithm>

using namespace irdl;

std::string EnumDef::getFullName() const {
  return Owner->getNamespace() + "." + std::string(Name);
}

std::optional<unsigned> EnumDef::lookupCase(std::string_view Case) const {
  for (unsigned I = 0, E = Cases.size(); I != E; ++I)
    if (Cases[I] == Case)
      return I;
  return std::nullopt;
}

std::string TypeOrAttrDefinitionBase::getFullName() const {
  return Owner->getNamespace() + "." + std::string(Name);
}

void TypeOrAttrDefinitionBase::setParamNames(
    std::span<const std::string_view> Names) {
  BumpStorage &S = Owner->getStorage();
  auto *Copy = static_cast<std::string_view *>(
      S.allocate(Names.size() * sizeof(std::string_view),
                 alignof(std::string_view)));
  for (size_t I = 0; I != Names.size(); ++I)
    new (Copy + I) std::string_view(S.copyString(Names[I]));
  ParamNames = {Copy, Names.size()};
}

std::optional<unsigned>
TypeOrAttrDefinitionBase::lookupParam(std::string_view ParamName) const {
  for (unsigned I = 0, E = ParamNames.size(); I != E; ++I)
    if (ParamNames[I] == ParamName)
      return I;
  return std::nullopt;
}

OpDefinition::OpDefinition(Dialect *D, std::string_view Name)
    : Owner(D), Name(Name), FullName(D->getNamespace()) {
  FullName += '.';
  FullName += Name;
}

std::pmr::vector<Dialect::Entry>::const_iterator
Dialect::find(std::string_view Name, DefKind Kind) const {
  return std::lower_bound(Defs.begin(), Defs.end(), std::pair(Name, Kind),
                          [](const Entry &E, const auto &Key) {
                            return std::pair(E.Name, E.Kind) < Key;
                          });
}

void *Dialect::lookup(std::string_view Name, DefKind Kind) const {
  auto It = find(Name, Kind);
  return It != Defs.end() && It->Name == Name && It->Kind == Kind ? It->Def
                                                                  : nullptr;
}

template <typename T, typename... ArgTs>
T *Dialect::add(std::string_view Name, DefKind Kind, ArgTs &&...Args) {
  auto It = find(Name, Kind);
  if (It != Defs.end() && It->Name == Name && It->Kind == Kind)
    return nullptr;
  std::string_view Copy = Storage.copyString(Name);
  T *Def = Storage.create<T>(this, Copy, std::forward<ArgTs>(Args)...);
  Defs.insert(It, Entry{Copy, Kind, Def});
  return Def;
}

TypeDefinition *Dialect::addType(std::string_view Name) {
  return add<TypeDefinition>(Name, DefKind::Type);
}

AttrDefinition *Dialect::addAttr(std::string_view Name) {
  return add<AttrDefinition>(Name, DefKind::Attr);
}

OpDefinition *Dialect::addOp(std::string_view Name) {
  return add<OpDefinition>(Name, DefKind::Op);
}

EnumDef *Dialect::addEnum(std::string_view Name,
                          std::span<const std::string_view> Cases) {
  if (lookup(Name, DefKind::Enum))
    return nullptr;
  auto *Copy = static_cast<std::string_view *>(Storage.allocate(
      Cases.size() * sizeof(std::string_view), alignof(std::string_view)));
  for (size_t I = 0; I != Cases.size(); ++I)
    new (Copy + I) std::string_view(Storage.copyString(Cases[I]));
  return add<EnumDef>(Name, DefKind::Enum,
                      std::span<const std::string_view>(Copy, Cases.size()));
}

TypeDefinition *Dialect::lookupType(std::string_view Name) const {
  return static_cast<TypeDefinition *>(lookup(Name, DefKind::Type));
}

AttrDefinition *Dialect::lookupAttr(std::string_view Name) const {
  return static_cast<AttrDefinition *>(lookup(Name, DefKind::Attr));
}

OpDefinition *Dialect::lookupOp(std::string_view Name) const {
  return static_cast<OpDefinition *>(lookup(Name, DefKind::Op));
}

EnumDef *Dialect::lookupEnum(std::string_view Name) const {
  return static_cast<EnumDef *>(lookup(Name, DefKind::Enum));
}

template <typename T>
std::vector<T *> Dialect::collect(DefKind Kind) const {
  std::vector<T *> Result;
  for (const Entry &E : Defs)
    if (E.Kind == Kind)
      Result.push_back(static_cast<T *>(E.Def));
  return Result;
}

std::vector<TypeDefinition *> Dialect::getTypeDefs() const {
  return collect<TypeDefinition>(DefKind::Type);
}
std::vector<AttrDefinition *> Dialect::getAttrDefs() const {
  return collect<AttrDefinition>(DefKind::Attr);
}
std::vector<OpDefinition *> Dialect::getOpDefs() const {
  return collect<OpDefinition>(DefKind::Op);
}
std::vector<EnumDef *> Dialect::getEnumDefs() const {
  return collect<EnumDef>(DefKind::Enum);
}
