//===- IRDLParser.h - Parser for the IRDL language ----------------*- C++ -*-===//
///
/// \file
/// Recursive-descent parser for IRDL source files, producing the AST of
/// IRDLAst.h. Reuses the IR token definitions (the two languages share
/// their lexical structure).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_IRDLPARSER_H
#define IRDL_IRDL_IRDLPARSER_H

#include "irdl/IRDLAst.h"
#include "support/Diagnostics.h"

namespace irdl {

/// Parses \p Source as a sequence of Dialect declarations. Returns an
/// empty AST and emits diagnostics on error. The tree views \p Source,
/// which must outlive it (register it with a SourceMgr for caret
/// rendering). Constraint expressions nest at most MaxNestingDepth
/// (IRParser.h) deep.
ast::ParsedIRDL parseIRDL(std::string_view Source, DiagnosticEngine &Diags);

} // namespace irdl

#endif // IRDL_IRDL_IRDLPARSER_H
