//===- EngineOracle.h - Tree oracle vs compiled programs -------*- C++ -*-===//
///
/// \file
/// The differential check behind the compiled constraint engine: every
/// constraint slot of every operation runs through the reference tree
/// interpreter (Constraint::matches) and through its compiled program.
/// Slots go in verifier order (operands, results, attributes, region
/// arguments), and each engine keeps one MatchContext per operation, so
/// variable bindings flow between slots exactly as in the verifier.
/// After every slot the two verdicts and the two binding sets must agree.
///
/// Unlike the verifier, the check does not stop at the first failing
/// slot: the rest of the operation is compared too. Slots the verifier
/// would never reach (a count mismatch, a missing attribute, an empty
/// region) are skipped.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_TESTS_COMMON_ENGINEORACLE_H
#define IRDL_TESTS_COMMON_ENGINEORACLE_H

#include "ir/Block.h"
#include "ir/Region.h"
#include "irdl/ConstraintProgram.h"
#include "irdl/IRDL.h"
#include "irdl/Registration.h"

#include <gtest/gtest.h>

#include <unordered_map>

namespace irdl {

class EngineOracle {
public:
  void addDialect(const DialectSpec &Spec) {
    for (const OpSpec &OS : Spec.Ops)
      Ops[OS.Def] = &OS;
  }
  void addModule(const IRDLModule &Module) {
    for (const auto &Spec : Module.getDialects())
      addDialect(*Spec);
  }

  /// Compares both engines on every slot of every operation under
  /// \p Root that belongs to an added dialect. Returns the number of
  /// slots compared.
  size_t check(Operation *Root, const std::string &Label) {
    size_t Slots = 0;
    Root->walk([&](Operation *Op) {
      auto It = Ops.find(Op->getDef());
      if (It != Ops.end())
        Slots += checkOp(Op, *It->second, Label);
    });
    return Slots;
  }

private:
  size_t checkOp(Operation *Op, const OpSpec &S, const std::string &Label) {
    MatchContext TreeMC(S.VarConstraints);
    MatchContext ProgMC(S.VarPrograms);
    size_t Slots = 0;
    auto Compare = [&](const Constraint *Constr,
                       const ConstraintProgram *Prog,
                       const ParamValue &V, const std::string &Slot) {
      ++Slots;
      std::string Where = Label + ": " + Op->getName().str() + " " + Slot;
      bool TreeOk = Constr->matches(V, TreeMC);
      bool ProgOk = Prog->run(V, ProgMC);
      EXPECT_EQ(TreeOk, ProgOk) << "verdict diverged at " << Where;
      for (unsigned I = 0, E = TreeMC.getNumVars(); I != E; ++I) {
        const auto &TreeB = TreeMC.getBinding(I);
        const auto &ProgB = ProgMC.getBinding(I);
        EXPECT_EQ(TreeB.has_value(), ProgB.has_value())
            << "binding of variable " << I << " diverged at " << Where;
        if (TreeB && ProgB) {
          EXPECT_TRUE(*TreeB == *ProgB)
              << "variable " << I << " bound differently at " << Where;
        }
      }
    };
    auto CompareTypes = [&](std::span<const OperandSpec> Specs,
                            unsigned Count, auto TypeAt,
                            std::string_view SegmentAttr,
                            const char *Kind) {
      std::string Err;
      auto Segments = computeSegments(Specs, Count, Op, SegmentAttr, Err);
      if (!Segments)
        return;
      for (size_t I = 0, E = Specs.size(); I != E; ++I) {
        auto [Begin, Size] = (*Segments)[I];
        for (unsigned J = 0; J != Size; ++J)
          Compare(Specs[I].Constr, Specs[I].Prog,
                  ParamValue(TypeAt(Begin + J)),
                  std::string(Kind) + " '" + std::string(Specs[I].Name) +
                      "'");
      }
    };

    CompareTypes(
        S.Operands, Op->getNumOperands(),
        [&](unsigned I) { return Op->getOperand(I).getType(); },
        "operandSegmentSizes", "operand");
    CompareTypes(
        S.Results, Op->getNumResults(),
        [&](unsigned I) { return Op->getResult(I).getType(); },
        "resultSegmentSizes", "result");
    for (const ParamSpec &A : S.Attributes)
      if (Attribute Attr = Op->getAttr(A.Name))
        Compare(A.Constr, A.Prog, ParamValue(Attr),
                "attribute '" + std::string(A.Name) + "'");
    if (Op->getNumRegions() == S.Regions.size())
      for (size_t R = 0, E = S.Regions.size(); R != E; ++R) {
        if (S.Regions[R].Args.empty() || Op->getRegion(R).empty())
          continue;
        Block &Entry = Op->getRegion(R).front();
        CompareTypes(
            S.Regions[R].Args, Entry.getNumArguments(),
            [&](unsigned I) { return Entry.getArgument(I).getType(); },
            "argumentSegmentSizes", "region argument");
      }
    return Slots;
  }

  std::unordered_map<const OpDefinition *, const OpSpec *> Ops;
};

} // namespace irdl

#endif // IRDL_TESTS_COMMON_ENGINEORACLE_H
