//===- ConstraintCompiler.h - Constraint tree -> bytecode --------*- C++ -*-===//
///
/// \file
/// Lowers resolved Constraint trees into flat ConstraintPrograms at
/// dialect-registration time. The compiler walks the tree once in
/// pre-order, hoists literals/definitions/predicates into the program's
/// pools, elides transparent Named wrappers, turns dispatchable AnyOf
/// nodes into hash-dispatched AnyOfTable instructions.
///
/// The compiled programs are the only engine verification, printing and
/// parsing run; the trees stay as their reference oracle in tests.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_CONSTRAINTCOMPILER_H
#define IRDL_IRDL_CONSTRAINTCOMPILER_H

#include "irdl/ConstraintProgram.h"

namespace irdl {

class ConstraintCompiler {
public:
  /// Minimum AnyOf alternatives before a dispatch table pays for itself
  /// (below this, trying the alternatives in order is cheaper than a
  /// hash lookup).
  static constexpr size_t MinDispatchAlts = 4;

  /// Compiles \p C into a program placed in the storage of C's tree.
  /// Var opcodes in it resolve through the variable programs of the
  /// MatchContext it runs under. The handle shares C's owner.
  static ConstraintProgramPtr compile(const ConstraintPtr &C);

  /// compile() for registration, which keeps the program by a plain
  /// pointer next to its tree.
  static const ConstraintProgram &compileInStorage(const Constraint &C);

  /// Compiles one program per constraint variable, the slots a
  /// MatchContext for the owning operation carries. The programs live in
  /// the storage of their trees.
  static std::vector<const ConstraintProgram *>
  compileVarPrograms(std::span<const ConstraintPtr> VarConstraints);
};

} // namespace irdl

#endif // IRDL_IRDL_CONSTRAINTCOMPILER_H
