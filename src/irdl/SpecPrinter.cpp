//===- SpecPrinter.cpp - IRDL pretty-printing ---------------------------===//
///
/// \file
/// Prints a resolved DialectSpec back to IRDL surface syntax. Alias uses
/// appear expanded (resolution is lossy there by design); everything else
/// round-trips: parse(print(spec)) produces an equivalent dialect. This
/// powers the introspection tooling of Figure 1 and the corpus pipeline.
///
//===----------------------------------------------------------------------===//

#include "irdl/IRDL.h"

#include "support/StringExtras.h"

#include <sstream>

using namespace irdl;

namespace {

void printNamedList(std::ostringstream &OS, std::string_view Directive,
                    std::span<const ParamSpec> Items,
                    std::string_view Indent) {
  if (Items.empty())
    return;
  OS << Indent << Directive << " (";
  for (size_t I = 0, E = Items.size(); I != E; ++I) {
    if (I)
      OS << ", ";
    OS << Items[I].Name << ": " << Items[I].Constr->str();
  }
  OS << ")\n";
}

void printOperandList(std::ostringstream &OS, std::string_view Directive,
                      std::span<const OperandSpec> Items,
                      std::string_view Indent = "  ") {
  if (Items.empty())
    return;
  OS << Indent << Directive << " (";
  for (size_t I = 0, E = Items.size(); I != E; ++I) {
    if (I)
      OS << ", ";
    OS << Items[I].Name << ": ";
    switch (Items[I].VK) {
    case VariadicKind::Single:
      OS << Items[I].Constr->str();
      break;
    case VariadicKind::Optional:
      OS << "Optional<" << Items[I].Constr->str() << ">";
      break;
    case VariadicKind::Variadic:
      OS << "Variadic<" << Items[I].Constr->str() << ">";
      break;
    }
  }
  OS << ")\n";
}

void printSummary(std::ostringstream &OS, std::string_view Summary,
                  std::string_view Indent = "  ") {
  if (!Summary.empty())
    OS << Indent << "Summary \"" << escapeString(Summary) << "\"\n";
}

void printCpp(std::ostringstream &OS, std::string_view Src,
              std::string_view Indent = "  ") {
  if (!Src.empty())
    OS << Indent << "CppConstraint \"" << escapeString(Src) << "\"\n";
}

} // namespace

std::string irdl::printDialectSpec(const DialectSpec &Spec) {
  std::ostringstream OS;
  OS << "Dialect " << Spec.Name << " {\n";

  for (const EnumSpec &E : Spec.Enums) {
    OS << "  Enum " << E.Name << " { ";
    for (size_t I = 0, N = E.Cases.size(); I != N; ++I) {
      if (I)
        OS << ", ";
      OS << E.Cases[I];
    }
    OS << " }\n";
  }

  for (const ParamTypeSpec &P : Spec.ParamTypes) {
    OS << "  TypeOrAttrParam " << P.Name << " {\n";
    printSummary(OS, P.Summary, "    ");
    if (!P.CppClassName.empty())
      OS << "    CppClassName \"" << P.CppClassName << "\"\n";
    if (!P.CppParserSrc.empty())
      OS << "    CppParser \"" << P.CppParserSrc << "\"\n";
    if (!P.CppPrinterSrc.empty())
      OS << "    CppPrinter \"" << P.CppPrinterSrc << "\"\n";
    OS << "  }\n";
  }

  for (const NamedConstraintSpec &C : Spec.Constraints) {
    // Named constraints resolve to their base + predicate; print the base
    // and the original Cpp source when available.
    const Constraint *Body = C.Constr;
    if (Body->getKind() == Constraint::Kind::Named)
      Body = Body->getChildren()[0];
    std::string CppSrc;
    bool IsNative = Body->getKind() == Constraint::Kind::Native;
    if (Body->getKind() == Constraint::Kind::Cpp || IsNative) {
      CppSrc = Body->getString();
      Body = Body->getChildren()[0];
    }
    OS << "  Constraint " << C.Name << " : " << Body->str() << " {\n";
    printSummary(OS, C.Summary, "    ");
    if (!CppSrc.empty())
      OS << "    CppConstraint \"" << (IsNative ? "native:" : "")
         << escapeString(CppSrc) << "\"\n";
    OS << "  }\n";
  }

  auto PrintTypeOrAttr = [&OS](const TypeOrAttrSpec &T) {
    OS << "  " << (T.IsAttr ? "Attribute " : "Type ") << T.Name << " {\n";
    printNamedList(OS, "Parameters", T.Params, "    ");
    printSummary(OS, T.Summary, "    ");
    printCpp(OS, T.CppConstraintSrc, "    ");
    OS << "  }\n";
  };
  for (const TypeOrAttrSpec &T : Spec.Types)
    PrintTypeOrAttr(T);
  for (const TypeOrAttrSpec &A : Spec.Attrs)
    PrintTypeOrAttr(A);

  for (const OpSpec &Op : Spec.Ops) {
    OS << "  Operation " << Op.Name << " {\n";
    if (!Op.VarNames.empty()) {
      OS << "    ConstraintVars (";
      for (size_t I = 0, E = Op.VarNames.size(); I != E; ++I) {
        if (I)
          OS << ", ";
        OS << "!" << Op.VarNames[I] << ": "
           << Op.VarConstraints[I]->str();
      }
      OS << ")\n";
    }
    printOperandList(OS, "Operands", Op.Operands, "    ");
    printOperandList(OS, "Results", Op.Results, "    ");
    printNamedList(OS, "Attributes", Op.Attributes, "    ");
    for (const RegionSpec &R : Op.Regions) {
      OS << "    Region " << R.Name << " {\n";
      printOperandList(OS, "Arguments", R.Args, "      ");
      if (!R.TerminatorOpName.empty())
        OS << "      Terminator " << R.TerminatorOpName << "\n";
      OS << "    }\n";
    }
    if (Op.Successors) {
      OS << "    Successors (";
      for (size_t I = 0, E = Op.Successors->size(); I != E; ++I) {
        if (I)
          OS << ", ";
        OS << (*Op.Successors)[I];
      }
      OS << ")\n";
    }
    if (Op.HasFormat)
      OS << "    Format \"" << escapeString(Op.FormatSrc) << "\"\n";
    printSummary(OS, Op.Summary, "    ");
    if (!Op.NativeVerifierName.empty())
      OS << "    CppConstraint \"native:" << Op.NativeVerifierName
         << "\"\n";
    else
      printCpp(OS, Op.CppConstraintSrc, "    ");
    OS << "  }\n";
  }

  OS << "}\n";
  return OS.str();
}
