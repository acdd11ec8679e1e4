//===- ConstraintNodes.h - Plain pointers to test trees --------*- C++ -*-===//
///
/// \file
/// Tests build constraint trees through handles (ConstraintPtr), while
/// MatchContext and findUnguardedVarCycle take the plain node pointers a
/// spec stores. nodesOf converts a list of handles; the handles keep the
/// nodes alive.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_TESTS_COMMON_CONSTRAINTNODES_H
#define IRDL_TESTS_COMMON_CONSTRAINTNODES_H

#include "irdl/Constraint.h"

#include <vector>

namespace irdl {

inline std::vector<const Constraint *>
nodesOf(const std::vector<ConstraintPtr> &Trees) {
  std::vector<const Constraint *> Nodes;
  for (const ConstraintPtr &C : Trees)
    Nodes.push_back(C.get());
  return Nodes;
}

} // namespace irdl

#endif // IRDL_TESTS_COMMON_CONSTRAINTNODES_H
