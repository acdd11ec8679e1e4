//===- Registration.cpp ----------------------------------------------===//

#include "irdl/Registration.h"

#include "ir/Block.h"
#include "ir/Operation.h"
#include "ir/Region.h"
#include "irdl/ConstraintCompiler.h"
#include "irdl/ConstraintProfiler.h"
#include "irdl/Format.h"
#include "support/StringExtras.h"
#include "support/Timing.h"

using namespace irdl;

/// Matches \p V through the compiled program when the engine is enabled
/// (and the program exists), through the tree otherwise. The flag is read
/// per call so --compiled-constraints swaps engines for dialects that are
/// already registered; diagnostics always render from the tree, keeping
/// error text byte-identical across engines.
static bool constraintMatches(const ConstraintPtr &C,
                              const std::shared_ptr<const ConstraintProgram> &Prog,
                              const ParamValue &V, MatchContext &MC) {
  if (Prog && compiledConstraintsEnabled())
    return Prog->run(V, MC);
  return C->matches(V, MC);
}

//===----------------------------------------------------------------------===//
// Segmentation
//===----------------------------------------------------------------------===//

std::optional<std::vector<std::pair<unsigned, unsigned>>>
irdl::computeSegments(const std::vector<OperandSpec> &Specs, unsigned Actual,
                      const Operation *Op, std::string_view SegmentAttrName,
                      std::string &Err) {
  unsigned NumVariadic = 0;
  unsigned NumFixed = 0;
  for (const OperandSpec &S : Specs) {
    if (S.VK == VariadicKind::Single)
      ++NumFixed;
    else
      ++NumVariadic;
  }

  std::vector<std::pair<unsigned, unsigned>> Segments(Specs.size());

  if (NumVariadic == 0) {
    if (Actual != Specs.size()) {
      Err = "expected " + std::to_string(Specs.size()) + " but found " +
            std::to_string(Actual);
      return std::nullopt;
    }
    for (unsigned I = 0; I != Actual; ++I)
      Segments[I] = {I, 1};
    return Segments;
  }

  if (NumVariadic == 1) {
    if (Actual < NumFixed) {
      Err = "expected at least " + std::to_string(NumFixed) +
            " but found " + std::to_string(Actual);
      return std::nullopt;
    }
    unsigned Slack = Actual - NumFixed;
    unsigned Pos = 0;
    for (unsigned I = 0, E = Specs.size(); I != E; ++I) {
      if (Specs[I].VK == VariadicKind::Single) {
        Segments[I] = {Pos, 1};
        Pos += 1;
        continue;
      }
      if (Specs[I].VK == VariadicKind::Optional && Slack > 1) {
        Err = "optional definition '" + Specs[I].Name +
              "' matches at most one, but " + std::to_string(Slack) +
              " remain";
        return std::nullopt;
      }
      Segments[I] = {Pos, Slack};
      Pos += Slack;
    }
    return Segments;
  }

  // Two or more variadic definitions: segment sizes come from an attribute.
  Attribute SegAttr = Op->getAttr(SegmentAttrName);
  if (!SegAttr) {
    Err = "multiple variadic definitions require the '" +
          std::string(SegmentAttrName) + "' attribute";
    return std::nullopt;
  }
  IRContext *Ctx = SegAttr.getContext();
  if (SegAttr.getDef() != Ctx->getArrayAttrDef()) {
    Err = "'" + std::string(SegmentAttrName) +
          "' must be an array attribute";
    return std::nullopt;
  }
  const auto &Elems = SegAttr.getParams()[0].getArray();
  if (Elems.size() != Specs.size()) {
    Err = "'" + std::string(SegmentAttrName) + "' must have " +
          std::to_string(Specs.size()) + " entries";
    return std::nullopt;
  }
  unsigned Pos = 0;
  for (unsigned I = 0, E = Specs.size(); I != E; ++I) {
    const ParamValue &Elem = Elems[I];
    if (!Elem.isAttr() ||
        Elem.getAttr().getDef() != Ctx->getIntAttrDef()) {
      Err = "'" + std::string(SegmentAttrName) +
            "' entries must be integer attributes";
      return std::nullopt;
    }
    int64_t Size = Elem.getAttr().getParams()[0].getInt().Value;
    bool SizeOk = Size >= 0 &&
                  (Specs[I].VK != VariadicKind::Single || Size == 1) &&
                  (Specs[I].VK != VariadicKind::Optional || Size <= 1);
    if (!SizeOk) {
      Err = "segment size " + std::to_string(Size) +
            " is invalid for definition '" + Specs[I].Name + "'";
      return std::nullopt;
    }
    Segments[I] = {Pos, static_cast<unsigned>(Size)};
    Pos += static_cast<unsigned>(Size);
  }
  if (Pos != Actual) {
    Err = "segment sizes sum to " + std::to_string(Pos) + " but " +
          std::to_string(Actual) + " were found";
    return std::nullopt;
  }
  return Segments;
}

//===----------------------------------------------------------------------===//
// Verifier construction
//===----------------------------------------------------------------------===//

namespace {

/// Builds the parameter verifier for a type/attribute definition.
TypeOrAttrDefinitionBase::VerifierFn
buildTypeOrAttrVerifier(std::shared_ptr<DialectSpec> Owner,
                        const TypeOrAttrSpec &Spec,
                        NativeConstraintFn NativeVerifier) {
  std::shared_ptr<const TypeOrAttrSpec> Ref(Owner, &Spec);
  return [Ref, NativeVerifier](const std::vector<ParamValue> &Params,
                               DiagnosticEngine &Diags,
                               SMLoc Loc) -> LogicalResult {
    const TypeOrAttrSpec &S = *Ref;
    std::string FullName = S.Def->getFullName();
    if (Params.size() != S.Params.size()) {
      Diags.emitError(Loc, "'" + FullName + "' expects " +
                               std::to_string(S.Params.size()) +
                               " parameters but got " +
                               std::to_string(Params.size()));
      return failure();
    }
    MatchContext MC;
    for (size_t I = 0, E = Params.size(); I != E; ++I) {
      if (!constraintMatches(S.Params[I].Constr, S.Params[I].Prog,
                             Params[I], MC)) {
        Diags.emitError(Loc, "parameter '" + S.Params[I].Name + "' of '" +
                                 FullName +
                                 "' does not satisfy constraint " +
                                 S.Params[I].Constr->str());
        return failure();
      }
    }
    if (S.CppConstraint) {
      CppExpr::EvalContext Ctx;
      Ctx.Self = CppEvalValue(ParamRecord{S.Def, &Params});
      auto B = S.CppConstraint->evaluateBool(Ctx);
      if (!B || !*B) {
        Diags.emitError(Loc, "'" + FullName +
                                 "' violates its IRDL-C++ constraint \"" +
                                 S.CppConstraintSrc + "\"");
        return failure();
      }
    }
    if (NativeVerifier && !NativeVerifier(ParamValue(
                              std::vector<ParamValue>(Params)))) {
      Diags.emitError(Loc, "'" + FullName +
                               "' violates its native constraint");
      return failure();
    }
    return success();
  };
}

/// Builds the operation verifier for an OpSpec.
OpDefinition::VerifierFn buildOpVerifier(
    std::shared_ptr<DialectSpec> Owner, const OpSpec &Spec,
    std::function<LogicalResult(Operation *, DiagnosticEngine &)>
        NativeVerifier) {
  std::shared_ptr<const OpSpec> Ref(Owner, &Spec);
  return [Ref, NativeVerifier](Operation *Op,
                               DiagnosticEngine &Diags) -> LogicalResult {
    const OpSpec &S = *Ref;
    std::string FullName = S.Def->getFullName();
    std::string Err;
    MatchContext MC(&S.VarConstraints);

    // Operands.
    auto OperandSegments = computeSegments(
        S.Operands, Op->getNumOperands(), Op, "operandSegmentSizes", Err);
    if (!OperandSegments) {
      Diags.emitError(Op->getLoc(),
                      "'" + FullName + "' operand count mismatch: " + Err);
      return failure();
    }
    for (size_t I = 0, E = S.Operands.size(); I != E; ++I) {
      auto [Begin, Size] = (*OperandSegments)[I];
      for (unsigned J = 0; J != Size; ++J) {
        Type Ty = Op->getOperand(Begin + J).getType();
        if (!constraintMatches(S.Operands[I].Constr, S.Operands[I].Prog,
                               ParamValue(Ty), MC)) {
          Diags.emitError(Op->getLoc(),
                          "operand '" + S.Operands[I].Name + "' of '" +
                              FullName + "' (type " + Ty.str() +
                              ") does not satisfy constraint " +
                              S.Operands[I].Constr->str());
          return failure();
        }
      }
    }

    // Results.
    auto ResultSegments = computeSegments(
        S.Results, Op->getNumResults(), Op, "resultSegmentSizes", Err);
    if (!ResultSegments) {
      Diags.emitError(Op->getLoc(),
                      "'" + FullName + "' result count mismatch: " + Err);
      return failure();
    }
    for (size_t I = 0, E = S.Results.size(); I != E; ++I) {
      auto [Begin, Size] = (*ResultSegments)[I];
      for (unsigned J = 0; J != Size; ++J) {
        Type Ty = Op->getResult(Begin + J).getType();
        if (!constraintMatches(S.Results[I].Constr, S.Results[I].Prog,
                               ParamValue(Ty), MC)) {
          Diags.emitError(Op->getLoc(),
                          "result '" + S.Results[I].Name + "' of '" +
                              FullName + "' (type " + Ty.str() +
                              ") does not satisfy constraint " +
                              S.Results[I].Constr->str());
          return failure();
        }
      }
    }

    // Attributes.
    for (const ParamSpec &A : S.Attributes) {
      Attribute Attr = Op->getAttr(A.Name);
      if (!Attr) {
        Diags.emitError(Op->getLoc(), "'" + FullName +
                                          "' requires attribute '" +
                                          A.Name + "'");
        return failure();
      }
      if (!constraintMatches(A.Constr, A.Prog, ParamValue(Attr), MC)) {
        Diags.emitError(Op->getLoc(),
                        "attribute '" + A.Name + "' of '" + FullName +
                            "' does not satisfy constraint " +
                            A.Constr->str());
        return failure();
      }
    }

    // Regions.
    if (Op->getNumRegions() != S.Regions.size()) {
      Diags.emitError(Op->getLoc(),
                      "'" + FullName + "' expects " +
                          std::to_string(S.Regions.size()) +
                          " regions but has " +
                          std::to_string(Op->getNumRegions()));
      return failure();
    }
    for (size_t I = 0, E = S.Regions.size(); I != E; ++I) {
      const RegionSpec &RS = S.Regions[I];
      Region &R = Op->getRegion(I);
      if (!RS.Args.empty() || !RS.TerminatorOpName.empty()) {
        if (R.empty()) {
          Diags.emitError(Op->getLoc(), "region '" + RS.Name + "' of '" +
                                            FullName +
                                            "' must not be empty");
          return failure();
        }
      }
      if (!RS.Args.empty()) {
        Block &Entry = R.front();
        auto ArgSegments =
            computeSegments(RS.Args, Entry.getNumArguments(), Op,
                            "argumentSegmentSizes", Err);
        if (!ArgSegments) {
          Diags.emitError(Op->getLoc(), "region '" + RS.Name + "' of '" +
                                            FullName +
                                            "' argument mismatch: " + Err);
          return failure();
        }
        for (size_t A = 0, AE = RS.Args.size(); A != AE; ++A) {
          auto [Begin, Size] = (*ArgSegments)[A];
          for (unsigned J = 0; J != Size; ++J) {
            Type Ty = Entry.getArgument(Begin + J).getType();
            if (!constraintMatches(RS.Args[A].Constr, RS.Args[A].Prog,
                                   ParamValue(Ty), MC)) {
              Diags.emitError(
                  Op->getLoc(),
                  "argument '" + RS.Args[A].Name + "' of region '" +
                      RS.Name + "' does not satisfy constraint " +
                      RS.Args[A].Constr->str());
              return failure();
            }
          }
        }
      }
      if (!RS.TerminatorOpName.empty()) {
        if (R.getNumBlocks() != 1) {
          Diags.emitError(Op->getLoc(),
                          "region '" + RS.Name + "' of '" + FullName +
                              "' must consist of a single block");
          return failure();
        }
        Operation *Term = R.front().empty() ? nullptr : &R.front().back();
        if (!Term || Term->getName().str() != RS.TerminatorOpName) {
          Diags.emitError(Op->getLoc(),
                          "region '" + RS.Name + "' of '" + FullName +
                              "' must end with '" + RS.TerminatorOpName +
                              "'");
          return failure();
        }
      }
    }

    // IRDL-C++ global constraint.
    if (S.CppConstraint) {
      CppExpr::EvalContext Ctx;
      Ctx.Self = CppEvalValue(Op);
      Ctx.Spec = &S;
      auto B = S.CppConstraint->evaluateBool(Ctx);
      if (!B || !*B) {
        Diags.emitError(Op->getLoc(),
                        "'" + FullName +
                            "' violates its IRDL-C++ constraint \"" +
                            S.CppConstraintSrc + "\"");
        return failure();
      }
    }
    if (NativeVerifier)
      return NativeVerifier(Op, Diags);
    return success();
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Installation
//===----------------------------------------------------------------------===//

LogicalResult irdl::registerDialectSpec(std::shared_ptr<DialectSpec> Spec,
                                        IRContext &Ctx,
                                        DiagnosticEngine &Diags,
                                        const IRDLLoadOptions &Opts) {
  // Compile every resolved constraint into its flat program form up
  // front, so verification never pays the lowering cost. Slots that
  // already carry a program — bytecode loads deserialize compiled
  // programs straight from the v2 Programs section — are kept as-is;
  // only their profiler attribution is (re-)registered.
  {
    IRDL_TIME_SCOPE("irdl.compile-constraint-programs");
    // While profiling is on, every program is registered with the
    // constraint profiler under a "<dialect>.<symbol> <slot> '<name>'"
    // attribution name, so --profile-constraints reports hot programs by
    // source location rather than bare program ids. Off, nothing is
    // registered: each record pins its program's allocation.
    bool Profiling = constraintProfilingEnabled();
    auto Profile = [&](const ConstraintProgramPtr &Prog,
                       const std::string &Owner, const char *Slot,
                       const std::string &Name) {
      if (Profiling)
        ConstraintProfiler::instance().registerProgram(
            Prog, Owner + " " + Slot + " '" + Name + "'");
    };
    auto CompileParams = [&](std::vector<ParamSpec> &Params,
                             const std::string &Owner) {
      for (ParamSpec &P : Params) {
        if (!P.Prog)
          P.Prog = ConstraintCompiler::compile(P.Constr);
        Profile(P.Prog, Owner, "param", P.Name);
      }
    };
    for (TypeOrAttrSpec &TS : Spec->Types)
      CompileParams(TS.Params, Spec->Name + "." + TS.Name);
    for (TypeOrAttrSpec &TS : Spec->Attrs)
      CompileParams(TS.Params, Spec->Name + "." + TS.Name);
    for (OpSpec &OS : Spec->Ops) {
      std::string Owner = Spec->Name + "." + OS.Name;
      if (OS.VarPrograms.empty())
        OS.VarPrograms =
            ConstraintCompiler::compileVarPrograms(OS.VarConstraints);
      for (size_t I = 0; I != OS.VarPrograms.size(); ++I)
        Profile(OS.VarPrograms[I], Owner, "var",
                I < OS.VarNames.size() ? OS.VarNames[I] : "?");
      for (OperandSpec &O : OS.Operands) {
        if (!O.Prog)
          O.Prog = ConstraintCompiler::compile(O.Constr, OS.VarPrograms);
        Profile(O.Prog, Owner, "operand", O.Name);
      }
      for (OperandSpec &R : OS.Results) {
        if (!R.Prog)
          R.Prog = ConstraintCompiler::compile(R.Constr, OS.VarPrograms);
        Profile(R.Prog, Owner, "result", R.Name);
      }
      for (ParamSpec &A : OS.Attributes) {
        if (!A.Prog)
          A.Prog = ConstraintCompiler::compile(A.Constr, OS.VarPrograms);
        Profile(A.Prog, Owner, "attr", A.Name);
      }
      for (RegionSpec &RS : OS.Regions)
        for (OperandSpec &Arg : RS.Args) {
          if (!Arg.Prog)
            Arg.Prog =
                ConstraintCompiler::compile(Arg.Constr, OS.VarPrograms);
          Profile(Arg.Prog, Owner, "region arg", Arg.Name);
        }
    }
  }

  // Opaque parameter kinds get a default identity codec (the IRDL-C++
  // CppParser/CppPrinter sources are carried for documentation; a host
  // can overwrite the codec for real validation).
  for (const ParamTypeSpec &P : Spec->ParamTypes) {
    std::string FullName = Spec->Name + "." + P.Name;
    if (!Ctx.lookupOpaqueParamCodec(FullName)) {
      OpaqueParamCodec Identity;
      Identity.Print = [](const OpaqueVal &V) { return V.Payload; };
      Identity.Parse =
          [](std::string_view Payload) -> std::optional<std::string> {
        return std::string(Payload);
      };
      Ctx.registerOpaqueParamCodec(FullName, std::move(Identity));
    }
  }

  auto InstallTypeOrAttr = [&](TypeOrAttrSpec &TS) -> LogicalResult {
    NativeConstraintFn Native;
    if (startsWith(TS.CppConstraintSrc, "native:")) {
      auto It =
          Opts.NativeConstraints.find(TS.CppConstraintSrc.substr(7));
      if (It == Opts.NativeConstraints.end()) {
        Diags.emitError(SMLoc(), "no native constraint registered under '" +
                                     TS.CppConstraintSrc.substr(7) + "'");
        return failure();
      }
      Native = It->second;
    }
    TS.Def->setVerifier(buildTypeOrAttrVerifier(Spec, TS, Native));
    TS.Def->setRequiresCpp(TS.requiresCppVerifier() ||
                           !TS.CppConstraintSrc.empty() ||
                           TS.requiresCppParams());
    return success();
  };

  for (TypeOrAttrSpec &TS : Spec->Types)
    if (failed(InstallTypeOrAttr(TS)))
      return failure();
  for (TypeOrAttrSpec &TS : Spec->Attrs)
    if (failed(InstallTypeOrAttr(TS)))
      return failure();

  for (OpSpec &OS : Spec->Ops) {
    std::function<LogicalResult(Operation *, DiagnosticEngine &)> Native;
    if (!OS.NativeVerifierName.empty()) {
      auto It = Opts.NativeOpVerifiers.find(OS.NativeVerifierName);
      if (It == Opts.NativeOpVerifiers.end()) {
        Diags.emitError(SMLoc(), "no native op verifier registered under '" +
                                     OS.NativeVerifierName + "'");
        return failure();
      }
      Native = It->second;
    }
    OS.Def->setVerifier(buildOpVerifier(Spec, OS, Native));
    if (OS.Successors) {
      OS.Def->setTerminator();
      OS.Def->setNumSuccessors(OS.Successors->size());
    }
    OS.Def->setRequiresCpp(OS.requiresCppVerifier() ||
                           !OS.localConstraintsInIRDL());
    if (OS.HasFormat)
      if (failed(installFormat(Spec, OS, Diags)))
        return failure();
  }

  return success();
}
