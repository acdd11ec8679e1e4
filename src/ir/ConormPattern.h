//===- ConormPattern.h - The paper's Listing 1 peephole ---------*- C++ -*-===//
///
/// \file
/// The `conorm` peephole of the paper's Listing 1: |p|*|q| = |p*q|, i.e.
///     mulf(norm(p), norm(q))  =>  norm(mul(p, q))
/// when both norms are over complex numbers of the same type. It names
/// the cmath ops by string and resolves them at rewrite time, so it needs
/// no compiled-in knowledge of the dynamically loaded cmath dialect.
///
/// Header-only, so a driver linking only the bytecode library (and what
/// it pulls in) can register it.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_CONORMPATTERN_H
#define IRDL_IR_CONORMPATTERN_H

#include "ir/Rewrite.h"

namespace irdl {

struct ConormPattern : RewritePattern {
  ConormPattern() : RewritePattern("std.mulf") {}

  LogicalResult matchAndRewrite(Operation *Op,
                                PatternRewriter &Rewriter) const override {
    Operation *L = Op->getOperand(0).getDefiningOp();
    Operation *R = Op->getOperand(1).getDefiningOp();
    auto IsNorm = [](Operation *N) {
      return N && N->getName().str() == "cmath.norm";
    };
    if (!IsNorm(L) || !IsNorm(R) ||
        L->getOperand(0).getType() != R->getOperand(0).getType())
      return failure();
    IRContext *Ctx = Rewriter.getContext();
    OperationState MulState(*Ctx, Ctx->resolveOpDef("cmath.mul"), Op->getLoc());
    MulState.Operands = {L->getOperand(0), R->getOperand(0)};
    MulState.ResultTypes = {L->getOperand(0).getType()};
    Operation *Mul = Rewriter.createOp(MulState);
    OperationState NormState(*Ctx, Ctx->resolveOpDef("cmath.norm"),
                             Op->getLoc());
    NormState.Operands = {Mul->getResult(0)};
    NormState.ResultTypes = {Op->getResult(0).getType()};
    Operation *Norm = Rewriter.createOp(NormState);
    Rewriter.replaceOp(Op, {Norm->getResult(0)});
    return success();
  }
};

} // namespace irdl

#endif // IRDL_IR_CONORMPATTERN_H
