//===- Printer.cpp --------------------------------------------------===//

#include "ir/Printer.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cmath>
#include <sstream>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Types, attributes, parameters
//===----------------------------------------------------------------------===//

static bool isBuiltinDef(const TypeOrAttrDefinitionBase *Def,
                         std::string_view Name) {
  return Def->getDialect()->getNamespace() == "builtin" &&
         Def->getShortName() == Name;
}

void irdl::printFloatLiteral(double Value, std::ostream &OS) {
  if (std::isnan(Value)) {
    OS << "nan";
    return;
  }
  if (std::isinf(Value)) {
    OS << (Value < 0 ? "-inf" : "inf");
    return;
  }
  std::ostringstream Tmp;
  Tmp.precision(17);
  Tmp << Value;
  std::string Text = Tmp.str();
  // Ensure the token is recognizably a float on re-parse.
  if (Text.find('.') == std::string::npos &&
      Text.find('e') == std::string::npos)
    Text += ".0";
  OS << Text;
}

void irdl::printType(Type T, std::ostream &OS) {
  if (!T) {
    OS << "<<null type>>";
    return;
  }
  const TypeDefinition *Def = T.getDef();
  // Builtin sugar.
  if (isBuiltinDef(Def, "f16") || isBuiltinDef(Def, "f32") ||
      isBuiltinDef(Def, "f64") || isBuiltinDef(Def, "index")) {
    OS << Def->getShortName();
    return;
  }
  if (isBuiltinDef(Def, "integer")) {
    const IntVal &Width = T.getParams()[0].getInt();
    const EnumVal &Sign = T.getParams()[1].getEnum();
    OS << signednessPrefix(static_cast<Signedness>(Sign.Index))
       << Width.Value;
    return;
  }
  if (isBuiltinDef(Def, "function")) {
    const auto &Inputs = T.getParams()[0].getArray();
    const auto &Results = T.getParams()[1].getArray();
    OS << "(";
    for (size_t I = 0; I != Inputs.size(); ++I) {
      if (I)
        OS << ", ";
      printType(Inputs[I].getType(), OS);
    }
    OS << ") -> ";
    // A single result prints bare unless it is itself a function type,
    // whose own arrow would otherwise end this type's result list.
    Type Single = Results.size() == 1 ? Results[0].getType() : Type();
    if (Results.size() == 1 &&
        !(Single && isBuiltinDef(Single.getDef(), "function"))) {
      printType(Results[0].getType(), OS);
      return;
    }
    OS << "(";
    for (size_t I = 0; I != Results.size(); ++I) {
      if (I)
        OS << ", ";
      printType(Results[I].getType(), OS);
    }
    OS << ")";
    return;
  }
  OS << "!" << Def->getFullName();
  if (!T.getParams().empty()) {
    OS << "<";
    for (size_t I = 0, E = T.getParams().size(); I != E; ++I) {
      if (I)
        OS << ", ";
      printParam(T.getParams()[I], OS);
    }
    OS << ">";
  }
}

std::string irdl::printTypeToString(Type T) {
  std::ostringstream OS;
  printType(T, OS);
  return OS.str();
}

static void printIntVal(const IntVal &V, std::ostream &OS) {
  OS << V.Value << " : " << signednessPrefix(V.Sign) << V.Width;
}

static void printFloatVal(const FloatVal &V, std::ostream &OS) {
  printFloatLiteral(V.Value, OS);
  OS << " : f" << V.Width;
}

void irdl::printAttr(Attribute A, std::ostream &OS, bool Sugar) {
  if (!A) {
    OS << "<<null attribute>>";
    return;
  }
  const AttrDefinition *Def = A.getDef();
  if (Sugar) {
    if (isBuiltinDef(Def, "int")) {
      printIntVal(A.getParams()[0].getInt(), OS);
      return;
    }
    if (isBuiltinDef(Def, "float")) {
      printFloatVal(A.getParams()[0].getFloat(), OS);
      return;
    }
    if (isBuiltinDef(Def, "string")) {
      OS << '"' << escapeString(A.getParams()[0].getString()) << '"';
      return;
    }
    if (isBuiltinDef(Def, "type")) {
      printType(A.getParams()[0].getType(), OS);
      return;
    }
    if (isBuiltinDef(Def, "unit")) {
      OS << "unit";
      return;
    }
    if (isBuiltinDef(Def, "enum")) {
      const EnumVal &V = A.getParams()[0].getEnum();
      OS << V.Def->getFullName() << "." << V.Def->getCases()[V.Index];
      return;
    }
    if (isBuiltinDef(Def, "array")) {
      OS << "[";
      const auto &Elems = A.getParams()[0].getArray();
      for (size_t I = 0; I != Elems.size(); ++I) {
        if (I)
          OS << ", ";
        printAttr(Elems[I].getAttr(), OS, /*Sugar=*/true);
      }
      OS << "]";
      return;
    }
  }
  OS << "#" << Def->getFullName();
  if (!A.getParams().empty()) {
    OS << "<";
    for (size_t I = 0, E = A.getParams().size(); I != E; ++I) {
      if (I)
        OS << ", ";
      printParam(A.getParams()[I], OS);
    }
    OS << ">";
  }
}

std::string irdl::printAttrToString(Attribute A) {
  std::ostringstream OS;
  printAttr(A, OS);
  return OS.str();
}

void irdl::printParam(const ParamValue &P, std::ostream &OS) {
  switch (P.getKind()) {
  case ParamValue::Kind::Empty:
    OS << "<<empty param>>";
    return;
  case ParamValue::Kind::Type:
    printType(P.getType(), OS);
    return;
  case ParamValue::Kind::Attr:
    // Canonical #-form: sugar would be ambiguous with the other parameter
    // kinds inside `<...>` lists.
    printAttr(P.getAttr(), OS, /*Sugar=*/false);
    return;
  case ParamValue::Kind::Int:
    printIntVal(P.getInt(), OS);
    return;
  case ParamValue::Kind::Float:
    printFloatVal(P.getFloat(), OS);
    return;
  case ParamValue::Kind::String:
    OS << '"' << escapeString(P.getString()) << '"';
    return;
  case ParamValue::Kind::Enum: {
    const EnumVal &V = P.getEnum();
    OS << V.Def->getFullName() << "." << V.Def->getCases()[V.Index];
    return;
  }
  case ParamValue::Kind::Array: {
    OS << "[";
    const auto &Elems = P.getArray();
    for (size_t I = 0; I != Elems.size(); ++I) {
      if (I)
        OS << ", ";
      printParam(Elems[I], OS);
    }
    OS << "]";
    return;
  }
  case ParamValue::Kind::Opaque: {
    const OpaqueVal &V = P.getOpaque();
    OS << "opaque<\"" << escapeString(V.ParamTypeName) << "\", \""
       << escapeString(V.Payload) << "\">";
    return;
  }
  }
}

std::string irdl::printParamToString(const ParamValue &P) {
  std::ostringstream OS;
  printParam(P, OS);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// IRPrinter
//===----------------------------------------------------------------------===//

void IRPrinter::indent() {
  for (unsigned I = 0; I != Indent; ++I)
    OS << "  ";
}

std::string &IRPrinter::nameValue(Value V) {
  auto It = ValueNames.find(V.getImpl());
  if (It != ValueNames.end())
    return It->second;
  // Results of multi-result operations share a base id.
  if (Operation *Op = V.getDefiningOp()) {
    unsigned Base = NextValueId++;
    for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I) {
      std::string OpName = "%" + std::to_string(Base);
      if (E > 1)
        OpName += "#" + std::to_string(I);
      ValueNames.emplace(Op->getResult(I).getImpl(), std::move(OpName));
    }
    return ValueNames[V.getImpl()];
  }
  std::string ArgName = "%" + std::to_string(NextValueId++);
  return ValueNames.emplace(V.getImpl(), std::move(ArgName)).first->second;
}

void IRPrinter::printValueName(Value V) { OS << nameValue(V); }

void IRPrinter::printBlockName(Block *B) {
  auto It = BlockNames.find(B);
  if (It == BlockNames.end())
    It = BlockNames.emplace(B, "^bb" + std::to_string(NextBlockId++)).first;
  OS << It->second;
}

void IRPrinter::printAttrDict(const NamedAttrList &Attrs,
                              const std::vector<std::string> &Elided) {
  bool Any = false;
  for (const NamedAttribute &NA : Attrs) {
    if (std::find(Elided.begin(), Elided.end(), NA.Name) != Elided.end())
      continue;
    OS << (Any ? ", " : " {");
    Any = true;
    // Names that are not plain identifiers print quoted.
    if (isIdentifier(NA.Name))
      OS << NA.Name;
    else
      OS << '"' << escapeString(NA.Name) << '"';
    // Unit attributes print as their bare name.
    if (!(isBuiltinDef(NA.Attr.getDef(), "unit"))) {
      OS << " = ";
      printAttr(NA.Attr, OS);
    }
  }
  if (Any)
    OS << "}";
}

void IRPrinter::printOp(Operation *Op) {
  indent();
  if (unsigned NumResults = Op->getNumResults()) {
    const std::string &FullName = nameValue(Op->getResult(0));
    OS << FullName.substr(0, FullName.find('#'));
    if (NumResults > 1)
      OS << ":" << NumResults;
    OS << " = ";
  }
  printOpRHS(Op);
  OS << "\n";
}

void IRPrinter::printOpRHS(Operation *Op) {
  const OpDefinition *Def = Op->getDef();
  if (Def && Def->getPrintFn() && !Opts.GenericForm) {
    OS << Op->getName().str() << " ";
    CustomOpPrinter Custom(*this);
    Def->getPrintFn()(Op, Custom);
    return;
  }
  printGenericOp(Op);
}

void IRPrinter::printGenericOp(Operation *Op) {
  OS << '"' << Op->getName().str() << "\"(";
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
    if (I)
      OS << ", ";
    printValueName(Op->getOperand(I));
  }
  OS << ")";

  if (unsigned NumSucc = Op->getNumSuccessors()) {
    OS << "[";
    for (unsigned I = 0; I != NumSucc; ++I) {
      if (I)
        OS << ", ";
      printBlockName(Op->getSuccessor(I));
    }
    OS << "]";
  }

  if (unsigned NumRegions = Op->getNumRegions()) {
    OS << " (";
    for (unsigned I = 0; I != NumRegions; ++I) {
      if (I)
        OS << ", ";
      printRegion(Op->getRegion(I), /*PrintEntryArgs=*/true);
    }
    OS << ")";
  }

  printAttrDict(Op->getAttrs());

  OS << " : (";
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
    if (I)
      OS << ", ";
    printType(Op->getOperand(I).getType(), OS);
  }
  OS << ") -> (";
  for (unsigned I = 0, E = Op->getNumResults(); I != E; ++I) {
    if (I)
      OS << ", ";
    printType(Op->getResult(I).getType(), OS);
  }
  OS << ")";
}

void IRPrinter::printBlock(Block &B, bool PrintHeader) {
  if (PrintHeader) {
    indent();
    printBlockName(&B);
    if (B.getNumArguments()) {
      OS << "(";
      for (unsigned I = 0, E = B.getNumArguments(); I != E; ++I) {
        if (I)
          OS << ", ";
        printValueName(B.getArgument(I));
        OS << ": ";
        printType(B.getArgument(I).getType(), OS);
      }
      OS << ")";
    }
    OS << ":\n";
  }
  ++Indent;
  for (Operation &Op : B)
    printOp(&Op);
  --Indent;
}

void IRPrinter::printRegion(Region &R, bool PrintEntryArgs) {
  OS << "{\n";
  bool IsEntry = true;
  for (Block &B : R) {
    bool Header = !IsEntry || (PrintEntryArgs && B.getNumArguments() != 0);
    printBlock(B, Header);
    IsEntry = false;
  }
  indent();
  OS << "}";
}

std::string irdl::printOpToString(Operation *Op, PrintOptions Opts) {
  std::ostringstream OS;
  IRPrinter P(OS, Opts);
  P.printOp(Op);
  std::string Result = OS.str();
  // Drop the trailing newline for embedding convenience.
  if (!Result.empty() && Result.back() == '\n')
    Result.pop_back();
  return Result;
}
