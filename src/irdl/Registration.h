//===- Registration.h - Installing IRDL specs into a context -----*- C++ -*-===//
///
/// \file
/// Pass 3 of the loader: compiles the resolved specs of a dialect into
/// runtime verifiers and custom-syntax hooks and installs them on the
/// (already created) definitions. Also exposes the operand/result
/// segmentation logic shared with tooling.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_REGISTRATION_H
#define IRDL_IRDL_REGISTRATION_H

#include "irdl/IRDL.h"

namespace irdl {

/// Computes for each operand/result definition the [begin, size) slice of
/// the actual list (Section 4.6 variadic matching). With two or more
/// variadic definitions, sizes come from the integer-array attribute
/// \p SegmentAttrName on \p Op (the paper: "an attribute containing the
/// size of the variadic operands and results is expected"). On mismatch,
/// fills \p Err and returns nullopt.
std::optional<std::vector<std::pair<unsigned, unsigned>>>
computeSegments(std::span<const OperandSpec> Specs, unsigned Actual,
                const Operation *Op, std::string_view SegmentAttrName,
                std::string &Err);

/// computeSegments into a caller-owned \p Segments (resized to
/// Specs.size()), so a caller that reuses it does not allocate. Returns
/// false and fills \p Err on mismatch.
bool computeSegmentsInto(std::span<const OperandSpec> Specs,
                         unsigned Actual, const Operation *Op,
                         std::string_view SegmentAttrName,
                         std::vector<std::pair<unsigned, unsigned>> &Segments,
                         std::string &Err);

/// Installs verifiers, terminator flags, and format hooks for \p Spec,
/// whose dialect retains it: the hooks point into its storage.
LogicalResult registerDialectSpec(const std::shared_ptr<DialectSpec> &Spec,
                                  IRContext &Ctx, DiagnosticEngine &Diags,
                                  const IRDLLoadOptions &Opts);

} // namespace irdl

#endif // IRDL_IRDL_REGISTRATION_H
