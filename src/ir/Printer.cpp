//===- Printer.cpp --------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Types, attributes, parameters
//===----------------------------------------------------------------------===//

template <typename IntT> static void appendInt(std::string &Out, IntT V) {
  char Buf[24];
  Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
}

/// Appends `dialect.name` without building getFullName()'s string.
template <typename DefT>
static void appendFullName(std::string &Out, const DefT *Def) {
  Out += Def->getDialect()->getNamespace();
  Out += '.';
  Out += Def->getShortName();
}

static void appendQuoted(std::string &Out, std::string_view Str) {
  Out += '"';
  appendEscaped(Out, Str);
  Out += '"';
}

static void appendEnum(std::string &Out, const EnumVal &V) {
  appendFullName(Out, V.Def);
  Out += '.';
  Out += V.Def->getCases()[V.Index];
}

void irdl::printFloatLiteral(double Value, std::string &Out) {
  if (std::isnan(Value)) {
    Out += "nan";
    return;
  }
  if (std::isinf(Value)) {
    Out += Value < 0 ? "-inf" : "inf";
    return;
  }
  // printf's %.17g: enough digits to read back the same double.
  char Buf[32];
  char *End = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                            std::chars_format::general, 17)
                  .ptr;
  std::string_view Text(Buf, End - Buf);
  Out += Text;
  // Ensure the token is recognizably a float on re-parse.
  if (Text.find_first_of(".e") == std::string_view::npos)
    Out += ".0";
}

/// Appends `<p, ...>` unless \p Params is empty.
static void printParamList(const std::vector<ParamValue> &Params,
                           std::string &Out) {
  if (Params.empty())
    return;
  Out += '<';
  for (size_t I = 0, E = Params.size(); I != E; ++I) {
    if (I)
      Out += ", ";
    printParam(Params[I], Out);
  }
  Out += '>';
}

static void printTypeList(const std::vector<ParamValue> &Types,
                          std::string &Out) {
  for (size_t I = 0; I != Types.size(); ++I) {
    if (I)
      Out += ", ";
    printType(Types[I].getType(), Out);
  }
}

void irdl::printType(Type T, std::string &Out) {
  if (!T) {
    Out += "<<null type>>";
    return;
  }
  const TypeDefinition *Def = T.getDef();
  switch (Def->getBuiltinKind()) {
  case BuiltinKind::FloatType:
  case BuiltinKind::IndexType:
    Out += Def->getShortName();
    return;
  case BuiltinKind::IntegerType: {
    const EnumVal &Sign = T.getParams()[1].getEnum();
    Out += signednessPrefix(static_cast<Signedness>(Sign.Index));
    appendInt(Out, T.getParams()[0].getInt().Value);
    return;
  }
  case BuiltinKind::FunctionType: {
    const auto &Results = T.getParams()[1].getArray();
    Out += '(';
    printTypeList(T.getParams()[0].getArray(), Out);
    Out += ") -> ";
    // A single result prints bare unless it is itself a function type,
    // whose own arrow would otherwise end this type's result list.
    Type Single = Results.size() == 1 ? Results[0].getType() : Type();
    if (Results.size() == 1 &&
        !(Single &&
          Single.getDef()->getBuiltinKind() == BuiltinKind::FunctionType)) {
      printType(Single, Out);
      return;
    }
    Out += '(';
    printTypeList(Results, Out);
    Out += ')';
    return;
  }
  default:
    break;
  }
  Out += '!';
  appendFullName(Out, Def);
  printParamList(T.getParams(), Out);
}

std::string irdl::printTypeToString(Type T) {
  std::string Out;
  printType(T, Out);
  return Out;
}

static void printIntVal(const IntVal &V, std::string &Out) {
  appendInt(Out, V.Value);
  Out += " : ";
  Out += signednessPrefix(V.Sign);
  appendInt(Out, V.Width);
}

static void printFloatVal(const FloatVal &V, std::string &Out) {
  printFloatLiteral(V.Value, Out);
  Out += " : f";
  appendInt(Out, V.Width);
}

void irdl::printAttr(Attribute A, std::string &Out, bool Sugar) {
  if (!A) {
    Out += "<<null attribute>>";
    return;
  }
  const AttrDefinition *Def = A.getDef();
  if (Sugar) {
    switch (Def->getBuiltinKind()) {
    case BuiltinKind::IntAttr:
      printIntVal(A.getParams()[0].getInt(), Out);
      return;
    case BuiltinKind::FloatAttr:
      printFloatVal(A.getParams()[0].getFloat(), Out);
      return;
    case BuiltinKind::StringAttr:
      appendQuoted(Out, A.getParams()[0].getString());
      return;
    case BuiltinKind::TypeAttr:
      printType(A.getParams()[0].getType(), Out);
      return;
    case BuiltinKind::UnitAttr:
      Out += "unit";
      return;
    case BuiltinKind::EnumAttr:
      appendEnum(Out, A.getParams()[0].getEnum());
      return;
    case BuiltinKind::ArrayAttr: {
      Out += '[';
      const auto &Elems = A.getParams()[0].getArray();
      for (size_t I = 0; I != Elems.size(); ++I) {
        if (I)
          Out += ", ";
        printAttr(Elems[I].getAttr(), Out, /*Sugar=*/true);
      }
      Out += ']';
      return;
    }
    default:
      break;
    }
  }
  Out += '#';
  appendFullName(Out, Def);
  printParamList(A.getParams(), Out);
}

std::string irdl::printAttrToString(Attribute A) {
  std::string Out;
  printAttr(A, Out);
  return Out;
}

void irdl::printParam(const ParamValue &P, std::string &Out) {
  switch (P.getKind()) {
  case ParamValue::Kind::Empty:
    Out += "<<empty param>>";
    return;
  case ParamValue::Kind::Type:
    printType(P.getType(), Out);
    return;
  case ParamValue::Kind::Attr:
    // Canonical #-form: sugar would be ambiguous with the other parameter
    // kinds inside `<...>` lists.
    printAttr(P.getAttr(), Out, /*Sugar=*/false);
    return;
  case ParamValue::Kind::Int:
    printIntVal(P.getInt(), Out);
    return;
  case ParamValue::Kind::Float:
    printFloatVal(P.getFloat(), Out);
    return;
  case ParamValue::Kind::String:
    appendQuoted(Out, P.getString());
    return;
  case ParamValue::Kind::Enum:
    appendEnum(Out, P.getEnum());
    return;
  case ParamValue::Kind::Array: {
    Out += '[';
    const auto &Elems = P.getArray();
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (I)
        Out += ", ";
      printParam(Elems[I], Out);
    }
    Out += ']';
    return;
  }
  case ParamValue::Kind::Opaque: {
    const OpaqueVal &V = P.getOpaque();
    Out += "opaque<";
    appendQuoted(Out, V.ParamTypeName);
    Out += ", ";
    appendQuoted(Out, V.Payload);
    Out += '>';
    return;
  }
  }
}

std::string irdl::printParamToString(const ParamValue &P) {
  std::string Out;
  printParam(P, Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// IRPrinter
//===----------------------------------------------------------------------===//

unsigned IRPrinter::IdTable::getOrAssign(const void *Key) {
  assert(Key && "a null key marks an empty slot");
  // At most half full.
  if (2 * (NextId + 1) > Slots.size())
    grow();
  size_t Mask = Slots.size() - 1;
  for (size_t I = slotOf(Key);; I = (I + 1) & Mask) {
    Slot &S = Slots[I];
    if (S.Key == Key)
      return S.Id;
    if (!S.Key) {
      S = {Key, NextId};
      return NextId++;
    }
  }
}

size_t IRPrinter::IdTable::slotOf(const void *Key) const {
  // Fibonacci hashing: the top bits of the product index the table.
  return (reinterpret_cast<uintptr_t>(Key) * 0x9E3779B97F4A7C15ull) >>
         Shift;
}

void IRPrinter::IdTable::grow() {
  std::vector<Slot> Old(Slots.empty() ? 64 : 2 * Slots.size());
  Old.swap(Slots);
  Shift = 64 - std::countr_zero(Slots.size());
  size_t Mask = Slots.size() - 1;
  for (const Slot &S : Old) {
    if (!S.Key)
      continue;
    size_t I = slotOf(S.Key);
    while (Slots[I].Key)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

void IRPrinter::indent() { Out.append(2 * Indent, ' '); }

unsigned IRPrinter::valueId(Value V) {
  // Results of multi-result operations share a base id.
  if (Operation *Op = V.getDefiningOp())
    return ValueIds.getOrAssign(Op->getResult(0).getImpl());
  return ValueIds.getOrAssign(V.getImpl());
}

void IRPrinter::printValueName(Value V) {
  Out += '%';
  appendInt(Out, valueId(V));
  if (Operation *Op = V.getDefiningOp(); Op && Op->getNumResults() > 1) {
    Out += '#';
    appendInt(Out, V.getIndex());
  }
}

void IRPrinter::printBlockName(Block *B) {
  Out += "^bb";
  appendInt(Out, BlockIds.getOrAssign(B));
}

void IRPrinter::printAttrDict(const NamedAttrList &Attrs,
                              std::initializer_list<std::string_view> Elided) {
  bool Any = false;
  for (const NamedAttribute &NA : Attrs) {
    if (std::find(Elided.begin(), Elided.end(), NA.Name) != Elided.end())
      continue;
    Out += Any ? ", " : " {";
    Any = true;
    // Names that are not plain identifiers print quoted.
    if (isIdentifier(NA.Name))
      Out += NA.Name;
    else
      appendQuoted(Out, NA.Name);
    // Unit attributes print as their bare name.
    if (NA.Attr.getDef()->getBuiltinKind() != BuiltinKind::UnitAttr) {
      Out += " = ";
      printAttr(NA.Attr, Out);
    }
  }
  if (Any)
    Out += '}';
}

void IRPrinter::printOp(Operation *Op) {
  indent();
  if (unsigned NumResults = Op->getNumResults()) {
    Out += '%';
    appendInt(Out, valueId(Op->getResult(0)));
    if (NumResults > 1) {
      Out += ':';
      appendInt(Out, NumResults);
    }
    Out += " = ";
  }
  printOpRHS(Op);
  Out += '\n';
}

void IRPrinter::printOpRHS(Operation *Op) {
  const OpDefinition *Def = Op->getDef();
  if (Def && Def->getPrintFn() && !Opts.GenericForm) {
    Out += Op->getName().str();
    Out += ' ';
    CustomOpPrinter Custom(*this);
    Def->getPrintFn()(Op, Custom);
    return;
  }
  printGenericOp(Op);
}

void IRPrinter::printGenericOp(Operation *Op) {
  Out += '"';
  Out += Op->getName().str();
  Out += "\"(";
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
    if (I)
      Out += ", ";
    printValueName(Op->getOperand(I));
  }
  Out += ')';

  if (unsigned NumSucc = Op->getNumSuccessors()) {
    Out += '[';
    for (unsigned I = 0; I != NumSucc; ++I) {
      if (I)
        Out += ", ";
      printBlockName(Op->getSuccessor(I));
    }
    Out += ']';
  }

  if (unsigned NumRegions = Op->getNumRegions()) {
    Out += " (";
    for (unsigned I = 0; I != NumRegions; ++I) {
      if (I)
        Out += ", ";
      printRegion(Op->getRegion(I), /*PrintEntryArgs=*/true);
    }
    Out += ')';
  }

  printAttrDict(Op->getAttrs());

  Out += " : (";
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
    if (I)
      Out += ", ";
    printType(Op->getOperand(I).getType(), Out);
  }
  Out += ") -> (";
  for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I) {
    if (I)
      Out += ", ";
    printType(Op->getResult(I).getType(), Out);
  }
  Out += ')';
}

void IRPrinter::printBlock(Block &B, bool PrintHeader) {
  if (PrintHeader) {
    indent();
    printBlockName(&B);
    if (B.getNumArguments()) {
      Out += '(';
      for (unsigned I = 0, E = B.getNumArguments(); I != E; ++I) {
        if (I)
          Out += ", ";
        printValueName(B.getArgument(I));
        Out += ": ";
        printType(B.getArgument(I).getType(), Out);
      }
      Out += ')';
    }
    Out += ":\n";
  }
  ++Indent;
  for (Operation &Op : B)
    printOp(&Op);
  --Indent;
}

void IRPrinter::printRegion(Region &R, bool PrintEntryArgs) {
  Out += "{\n";
  bool IsEntry = true;
  for (Block &B : R) {
    bool Header = !IsEntry || (PrintEntryArgs && B.getNumArguments() != 0);
    printBlock(B, Header);
    IsEntry = false;
  }
  indent();
  Out += '}';
}

std::string irdl::printOpToString(Operation *Op, PrintOptions Opts) {
  std::string Result;
  IRPrinter P(Result, Opts);
  P.printOp(Op);
  // Drop the trailing newline for embedding convenience.
  if (!Result.empty() && Result.back() == '\n')
    Result.pop_back();
  return Result;
}
