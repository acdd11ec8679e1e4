//===- Format.h - Declarative operation formats -------------------*- C++ -*-===//
///
/// \file
/// Compiles IRDL `Format` directives (Section 4.7) such as
/// `"$lhs, $rhs : $T.elementType"` into custom parse/print hooks for the
/// operation's definition. Parsing reconstructs all operand and result
/// types by inference through the constraint variables, so the format is
/// validated at registration time: every operand must be printed, no
/// variadic definitions are allowed, and every type must be derivable from
/// the directives plus the constraints.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_FORMAT_H
#define IRDL_IRDL_FORMAT_H

#include "irdl/Spec.h"

namespace irdl {

/// Compiles \p Op's FormatSrc into the storage of \p OwningSpec and
/// installs parse/print hooks on its OpDefinition. The hooks point to
/// \p Op, which the dialect keeps alive by retaining the spec. Emits
/// diagnostics and fails when the format cannot drive a parser.
LogicalResult installFormat(DialectSpec &OwningSpec, OpSpec &Op,
                            DiagnosticEngine &Diags);

} // namespace irdl

#endif // IRDL_IRDL_FORMAT_H
