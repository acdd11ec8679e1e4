//===- irdl_doc.cpp - Markdown documentation generator --------------------===//
///
/// Generates Markdown reference documentation for dialects from their
/// IRDL specs — the "well-defined, well-documented interface" tooling the
/// paper's Section 3 motivates. Summaries come from the `Summary`
/// directives; signatures are rendered from the resolved constraints.
///
/// Run: build/examples/irdl_doc [file.irdl ...] (defaults to dialects/)

#include "irdl/IRDL.h"

#include <filesystem>
#include <iostream>

using namespace irdl;

namespace {

void emitConstraint(std::ostream &OS, const Constraint *C) {
  OS << "`" << C->str() << "`";
}

void emitDialectDoc(std::ostream &OS, const DialectSpec &D) {
  OS << "# Dialect `" << D.Name << "`\n\n";

  if (!D.Enums.empty()) {
    OS << "## Enums\n\n";
    for (const EnumSpec &E : D.Enums) {
      OS << "### `" << D.Name << "." << E.Name << "`\n\n";
      OS << "Constructors: ";
      for (size_t I = 0; I < E.Cases.size(); ++I)
        OS << (I ? ", " : "") << "`" << E.Cases[I] << "`";
      OS << "\n\n";
    }
  }

  auto EmitTypeOrAttrSection = [&OS, &D](
                                   std::span<const TypeOrAttrSpec> Defs,
                                   const char *Title, char Sigil) {
    if (Defs.empty())
      return;
    OS << "## " << Title << "\n\n";
    for (const TypeOrAttrSpec &T : Defs) {
      OS << "### `" << Sigil << D.Name << "." << T.Name << "`";
      if (!T.Params.empty()) {
        OS << " `<";
        for (size_t I = 0; I < T.Params.size(); ++I)
          OS << (I ? ", " : "") << T.Params[I].Name;
        OS << ">`";
      }
      OS << "\n\n";
      if (!T.Summary.empty())
        OS << T.Summary << "\n\n";
      if (!T.Params.empty()) {
        OS << "| parameter | constraint |\n|---|---|\n";
        for (const ParamSpec &P : T.Params) {
          OS << "| `" << P.Name << "` | ";
          emitConstraint(OS, P.Constr);
          OS << " |\n";
        }
        OS << "\n";
      }
      if (!T.CppConstraintSrc.empty())
        OS << "Additional IRDL-C++ invariant: `" << T.CppConstraintSrc
           << "`\n\n";
    }
  };
  EmitTypeOrAttrSection(D.Types, "Types", '!');
  EmitTypeOrAttrSection(D.Attrs, "Attributes", '#');

  if (!D.Ops.empty()) {
    OS << "## Operations\n\n";
    for (const OpSpec &Op : D.Ops) {
      OS << "### `" << D.Name << "." << Op.Name << "`\n\n";
      if (!Op.Summary.empty())
        OS << Op.Summary << "\n\n";
      if (!Op.VarNames.empty()) {
        OS << "Constraint variables: ";
        for (size_t I = 0; I < Op.VarNames.size(); ++I) {
          OS << (I ? ", " : "") << "`!" << Op.VarNames[I] << ": "
             << Op.VarConstraints[I]->str() << "`";
        }
        OS << "\n\n";
      }
      auto EmitOperands = [&OS](const char *What,
                                std::span<const OperandSpec> Items) {
        if (Items.empty())
          return;
        OS << "| " << What << " | constraint |\n|---|---|\n";
        for (const OperandSpec &O : Items) {
          OS << "| `" << O.Name << "`";
          if (O.VK == VariadicKind::Variadic)
            OS << " (variadic)";
          else if (O.VK == VariadicKind::Optional)
            OS << " (optional)";
          OS << " | ";
          emitConstraint(OS, O.Constr);
          OS << " |\n";
        }
        OS << "\n";
      };
      EmitOperands("operand", Op.Operands);
      EmitOperands("result", Op.Results);
      if (!Op.Attributes.empty()) {
        OS << "| attribute | constraint |\n|---|---|\n";
        for (const ParamSpec &A : Op.Attributes) {
          OS << "| `" << A.Name << "` | ";
          emitConstraint(OS, A.Constr);
          OS << " |\n";
        }
        OS << "\n";
      }
      for (const RegionSpec &R : Op.Regions) {
        OS << "Region `" << R.Name << "`";
        if (!R.TerminatorOpName.empty())
          OS << " (single block, terminated by `" << R.TerminatorOpName
             << "`)";
        if (!R.Args.empty()) {
          OS << " with arguments ";
          for (size_t I = 0; I < R.Args.size(); ++I)
            OS << (I ? ", " : "") << "`" << R.Args[I].Name << ": "
               << R.Args[I].Constr->str() << "`";
        }
        OS << "\n\n";
      }
      if (Op.Successors) {
        OS << "Terminator";
        if (!Op.Successors->empty()) {
          OS << " with successors ";
          for (size_t I = 0; I < Op.Successors->size(); ++I)
            OS << (I ? ", " : "") << "`" << (*Op.Successors)[I] << "`";
        }
        OS << ".\n\n";
      }
      if (Op.HasFormat)
        OS << "Custom syntax: `" << Op.Name << " " << Op.FormatSrc
           << "`\n\n";
      if (!Op.CppConstraintSrc.empty())
        OS << "Additional IRDL-C++ invariant: `" << Op.CppConstraintSrc
           << "`\n\n";
    }
  }
}

} // namespace

int main(int argc, char **argv) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);

  std::vector<std::string> Paths;
  if (argc > 1) {
    for (int I = 1; I < argc; ++I)
      Paths.push_back(argv[I]);
  } else {
    for (const auto &Entry :
         std::filesystem::directory_iterator(IRDL_DIALECTS_DIR))
      if (Entry.path().extension() == ".irdl")
        Paths.push_back(Entry.path().string());
    std::sort(Paths.begin(), Paths.end());
  }

  for (const std::string &Path : Paths) {
    auto Module = loadIRDLFile(Ctx, Path, SrcMgr, Diags);
    if (!Module) {
      std::cerr << "failed to load " << Path << ":\n" << Diags.renderAll();
      return 1;
    }
    for (const auto &D : Module->getDialects())
      emitDialectDoc(std::cout, *D);
  }
  return 0;
}
