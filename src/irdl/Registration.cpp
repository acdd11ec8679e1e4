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

#include <algorithm>

using namespace irdl;

//===----------------------------------------------------------------------===//
// Segmentation
//===----------------------------------------------------------------------===//

bool irdl::computeSegmentsInto(
    std::span<const OperandSpec> Specs, unsigned Actual,
    const Operation *Op, std::string_view SegmentAttrName,
    std::vector<std::pair<unsigned, unsigned>> &Segments, std::string &Err) {
  unsigned NumVariadic = 0;
  unsigned NumFixed = 0;
  for (const OperandSpec &S : Specs) {
    if (S.VK == VariadicKind::Single)
      ++NumFixed;
    else
      ++NumVariadic;
  }

  Segments.resize(Specs.size());

  if (NumVariadic == 0) {
    if (Actual != Specs.size()) {
      Err = "expected " + std::to_string(Specs.size()) + " but found " +
            std::to_string(Actual);
      return false;
    }
    for (unsigned I = 0; I != Actual; ++I)
      Segments[I] = {I, 1};
    return true;
  }

  if (NumVariadic == 1) {
    if (Actual < NumFixed) {
      Err = "expected at least " + std::to_string(NumFixed) +
            " but found " + std::to_string(Actual);
      return false;
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
        Err = "optional definition '" + std::string(Specs[I].Name) +
              "' matches at most one, but " + std::to_string(Slack) +
              " remain";
        return false;
      }
      Segments[I] = {Pos, Slack};
      Pos += Slack;
    }
    return true;
  }

  // Two or more variadic definitions: segment sizes come from an attribute.
  Attribute SegAttr = Op->getAttr(SegmentAttrName);
  if (!SegAttr) {
    Err = "multiple variadic definitions require the '" +
          std::string(SegmentAttrName) + "' attribute";
    return false;
  }
  const IRContext *Ctx = SegAttr.getContext();
  if (SegAttr.getDef() != Ctx->getArrayAttrDef()) {
    Err = "'" + std::string(SegmentAttrName) +
          "' must be an array attribute";
    return false;
  }
  const auto &Elems = SegAttr.getParams()[0].getArray();
  if (Elems.size() != Specs.size()) {
    Err = "'" + std::string(SegmentAttrName) + "' must have " +
          std::to_string(Specs.size()) + " entries";
    return false;
  }
  unsigned Pos = 0;
  for (unsigned I = 0, E = Specs.size(); I != E; ++I) {
    const ParamValue &Elem = Elems[I];
    if (!Elem.isAttr() ||
        Elem.getAttr().getDef() != Ctx->getIntAttrDef()) {
      Err = "'" + std::string(SegmentAttrName) +
            "' entries must be integer attributes";
      return false;
    }
    int64_t Size = Elem.getAttr().getParams()[0].getInt().Value;
    bool SizeOk = Size >= 0 &&
                  (Specs[I].VK != VariadicKind::Single || Size == 1) &&
                  (Specs[I].VK != VariadicKind::Optional || Size <= 1);
    if (!SizeOk) {
      Err = "segment size " + std::to_string(Size) +
            " is invalid for definition '" + std::string(Specs[I].Name) + "'";
      return false;
    }
    Segments[I] = {Pos, static_cast<unsigned>(Size)};
    Pos += static_cast<unsigned>(Size);
  }
  if (Pos != Actual) {
    Err = "segment sizes sum to " + std::to_string(Pos) + " but " +
          std::to_string(Actual) + " were found";
    return false;
  }
  return true;
}

std::optional<std::vector<std::pair<unsigned, unsigned>>>
irdl::computeSegments(std::span<const OperandSpec> Specs, unsigned Actual,
                      const Operation *Op, std::string_view SegmentAttrName,
                      std::string &Err) {
  std::vector<std::pair<unsigned, unsigned>> Segments;
  if (!computeSegmentsInto(Specs, Actual, Op, SegmentAttrName, Segments, Err))
    return std::nullopt;
  return Segments;
}

//===----------------------------------------------------------------------===//
// Verifier construction
//===----------------------------------------------------------------------===//

namespace {

/// Builds the parameter verifier for a type/attribute definition. It
/// captures only the spec, so the std::function stores it inline.
TypeOrAttrDefinitionBase::VerifierFn
buildTypeOrAttrVerifier(const TypeOrAttrSpec &Spec) {
  return [Ref = &Spec](const std::vector<ParamValue> &Params,
                       DiagnosticEngine &Diags, SMLoc Loc) -> LogicalResult {
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
      if (!S.Params[I].Prog->run(Params[I], MC)) {
        Diags.emitError(Loc, "parameter '" + std::string(S.Params[I].Name) +
                                 "' of '" + FullName +
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
                                 std::string(S.CppConstraintSrc) + "\"");
        return failure();
      }
    }
    if (S.NativeVerifier && !(*S.NativeVerifier)(ParamValue(
                                std::vector<ParamValue>(Params)))) {
      Diags.emitError(Loc, "'" + FullName +
                               "' violates its native constraint");
      return failure();
    }
    return success();
  };
}

/// What the op verifiers of one thread reuse from op to op: the
/// constraint-variable bindings and the segment buffer of variadic
/// definitions. A verifier that finds it taken (a native hook verifying
/// from inside a constraint) uses a fresh one instead.
struct OpVerifyScratch {
  MatchContext MC;
  std::vector<std::pair<unsigned, unsigned>> Segments;
  bool InUse = false;
};

thread_local OpVerifyScratch ThreadScratch;

/// Outcome of matching one operand, result or entry-block argument list
/// against its definitions.
struct ListMatch {
  /// The value count fits no segmentation; CountErr says why.
  bool CountMismatch = false;
  std::string CountErr;
  /// Otherwise, the definition and type of the first value that failed
  /// its constraint, or null when every value matched.
  const OperandSpec *Failed = nullptr;
  Type FailedType;
};

/// True when no definition of \p Specs is Variadic or Optional: the
/// segments are the identity and only the count needs checking.
bool allSingle(std::span<const OperandSpec> Specs) {
  return std::all_of(Specs.begin(), Specs.end(), [](const OperandSpec &S) {
    return S.VK == VariadicKind::Single;
  });
}

/// Matches the \p Actual values whose types \p TypeAt yields against
/// \p Specs, in definition order.
template <typename TypeAtFn>
ListMatch matchList(std::span<const OperandSpec> Specs, bool AllSingle,
                    unsigned Actual, TypeAtFn TypeAt, const Operation *Op,
                    std::string_view SegmentAttrName,
                    OpVerifyScratch &Scratch) {
  ListMatch M;
  auto Check = [&](const OperandSpec &Spec, unsigned Index) {
    Type Ty = TypeAt(Index);
    if (Spec.Prog->run(Ty, Scratch.MC))
      return true;
    M.Failed = &Spec;
    M.FailedType = Ty;
    return false;
  };
  if (AllSingle && Actual == Specs.size()) {
    for (unsigned I = 0; I != Actual; ++I)
      if (!Check(Specs[I], I))
        break;
    return M;
  }
  if (!computeSegmentsInto(Specs, Actual, Op, SegmentAttrName,
                           Scratch.Segments, M.CountErr)) {
    M.CountMismatch = true;
    return M;
  }
  for (size_t I = 0, E = Specs.size(); I != E; ++I) {
    auto [Begin, Size] = Scratch.Segments[I];
    for (unsigned J = 0; J != Size; ++J)
      if (!Check(Specs[I], Begin + J))
        return M;
  }
  return M;
}

/// Everything the IRDL declaration checks except the IRDL-C++ and native
/// constraints: value counts and constraints, attributes and regions.
LogicalResult verifyDeclared(const OpSpec &S, Operation *Op,
                             DiagnosticEngine &Diags,
                             OpVerifyScratch &Scratch) {
  const std::string &FullName = S.Def->getFullName();
  Scratch.MC.reset(S.VarPrograms);

  ListMatch Operands = matchList(
      S.Operands, S.OperandsSingle, Op->getNumOperands(),
      [Op](unsigned I) { return Op->getOperand(I).getType(); }, Op,
      "operandSegmentSizes", Scratch);
  if (Operands.CountMismatch) {
    Diags.emitError(Op->getLoc(), "'" + FullName +
                                      "' operand count mismatch: " +
                                      Operands.CountErr);
    return failure();
  }
  if (Operands.Failed) {
    Diags.emitError(Op->getLoc(),
                    "operand '" + std::string(Operands.Failed->Name) +
                        "' of '" + FullName + "' (type " +
                        Operands.FailedType.str() +
                        ") does not satisfy constraint " +
                        Operands.Failed->Constr->str());
    return failure();
  }

  ListMatch Results = matchList(
      S.Results, S.ResultsSingle, Op->getNumResults(),
      [Op](unsigned I) { return Op->getResult(I).getType(); }, Op,
      "resultSegmentSizes", Scratch);
  if (Results.CountMismatch) {
    Diags.emitError(Op->getLoc(), "'" + FullName +
                                      "' result count mismatch: " +
                                      Results.CountErr);
    return failure();
  }
  if (Results.Failed) {
    Diags.emitError(Op->getLoc(),
                    "result '" + std::string(Results.Failed->Name) +
                        "' of '" + FullName + "' (type " +
                        Results.FailedType.str() +
                        ") does not satisfy constraint " +
                        Results.Failed->Constr->str());
    return failure();
  }

  for (const ParamSpec &A : S.Attributes) {
    Attribute Attr = Op->getAttr(A.Name);
    if (!Attr) {
      Diags.emitError(Op->getLoc(), "'" + FullName +
                                        "' requires attribute '" +
                                        std::string(A.Name) + "'");
      return failure();
    }
    if (!A.Prog->run(ParamValue(Attr), Scratch.MC)) {
      Diags.emitError(Op->getLoc(), "attribute '" + std::string(A.Name) +
                                        "' of '" + FullName +
                                        "' does not satisfy constraint " +
                                        A.Constr->str());
      return failure();
    }
  }

  if (Op->getNumRegions() != S.Regions.size()) {
    Diags.emitError(Op->getLoc(), "'" + FullName + "' expects " +
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
        Diags.emitError(Op->getLoc(), "region '" + std::string(RS.Name) +
                                          "' of '" + FullName +
                                          "' must not be empty");
        return failure();
      }
    }
    if (!RS.Args.empty()) {
      Block &Entry = R.front();
      ListMatch Args = matchList(
          RS.Args, RS.ArgsSingle, Entry.getNumArguments(),
          [&Entry](unsigned J) { return Entry.getArgument(J).getType(); },
          Op, "argumentSegmentSizes", Scratch);
      if (Args.CountMismatch) {
        Diags.emitError(Op->getLoc(), "region '" + std::string(RS.Name) +
                                          "' of '" + FullName +
                                          "' argument mismatch: " +
                                          Args.CountErr);
        return failure();
      }
      if (Args.Failed) {
        Diags.emitError(Op->getLoc(),
                        "argument '" + std::string(Args.Failed->Name) +
                            "' of region '" + std::string(RS.Name) +
                            "' does not satisfy constraint " +
                            Args.Failed->Constr->str());
        return failure();
      }
    }
    if (!RS.TerminatorOpName.empty()) {
      if (R.getNumBlocks() != 1) {
        Diags.emitError(Op->getLoc(), "region '" + std::string(RS.Name) +
                                          "' of '" + FullName +
                                          "' must consist of a single block");
        return failure();
      }
      Operation *Term = R.front().empty() ? nullptr : &R.front().back();
      if (!Term || Term->getName().str() != RS.TerminatorOpName) {
        Diags.emitError(Op->getLoc(), "region '" + std::string(RS.Name) +
                                          "' of '" + FullName +
                                          "' must end with '" +
                                          std::string(RS.TerminatorOpName) +
                                          "'");
        return failure();
      }
    }
  }
  return success();
}

/// Builds the operation verifier for an OpSpec. On success it allocates
/// nothing: names are referenced, diagnostics are built only on failure,
/// and bindings and segments live in the thread's OpVerifyScratch.
/// It captures only the spec, so the std::function stores it inline.
OpDefinition::VerifierFn buildOpVerifier(const OpSpec &Spec) {
  return [Ref = &Spec](Operation *Op,
                       DiagnosticEngine &Diags) -> LogicalResult {
    const OpSpec &S = *Ref;
    {
      std::optional<OpVerifyScratch> Nested;
      OpVerifyScratch &Scratch =
          ThreadScratch.InUse ? Nested.emplace() : ThreadScratch;
      Scratch.InUse = true;
      LogicalResult Declared = verifyDeclared(S, Op, Diags, Scratch);
      Scratch.InUse = false;
      if (failed(Declared))
        return failure();
    }

    // IRDL-C++ global constraint.
    if (S.CppConstraint) {
      CppExpr::EvalContext Ctx;
      Ctx.Self = CppEvalValue(Op);
      Ctx.Spec = &S;
      auto B = S.CppConstraint->evaluateBool(Ctx);
      if (!B || !*B) {
        Diags.emitError(Op->getLoc(),
                        "'" + S.Def->getFullName() +
                            "' violates its IRDL-C++ constraint \"" +
                            std::string(S.CppConstraintSrc) + "\"");
        return failure();
      }
    }
    if (S.NativeVerifier)
      return (*S.NativeVerifier)(Op, Diags);
    return success();
  };
}

} // namespace

//===----------------------------------------------------------------------===//
// Installation
//===----------------------------------------------------------------------===//

LogicalResult
irdl::registerDialectSpec(const std::shared_ptr<DialectSpec> &Spec,
                          IRContext &Ctx, DiagnosticEngine &Diags,
                          const IRDLLoadOptions &Opts) {
  BumpStorage &Storage = Spec->getStorage();
  // Compile every resolved constraint into its flat program form up
  // front, so verification never pays the lowering cost. The frontend
  // (after Sema) and the `.irbc` reader (after its own tree checks) are
  // the only callers, so every program here is compiled from checked
  // trees.
  {
    IRDL_TIME_SCOPE("irdl.compile-constraint-programs");
    // While profiling is on, every program is registered with the
    // constraint profiler under a "<dialect>.<symbol> <slot> '<name>'"
    // attribution name, so --profile-constraints reports hot programs by
    // source location rather than bare program ids. Off, nothing is
    // registered: each record pins its program's spec.
    bool Profiling = constraintProfilingEnabled();
    auto Compile = [&](const Constraint *C, std::string_view Symbol,
                       const char *Slot, std::string_view Name) {
      const ConstraintProgram *Prog = &ConstraintCompiler::compileInStorage(*C);
      if (Profiling)
        ConstraintProfiler::instance().registerProgram(
            ConstraintProgramPtr(Spec, Prog),
            std::string(Spec->Name) + "." + std::string(Symbol) + " " + Slot +
                " '" + std::string(Name) + "'");
      return Prog;
    };
    auto CompileParams = [&](std::span<ParamSpec> Params,
                             std::string_view Symbol) {
      for (ParamSpec &P : Params)
        P.Prog = Compile(P.Constr, Symbol, "param", P.Name);
    };
    auto CompileOperands = [&](std::span<OperandSpec> Specs,
                               std::string_view Symbol, const char *Slot) {
      for (OperandSpec &O : Specs)
        O.Prog = Compile(O.Constr, Symbol, Slot, O.Name);
    };
    for (TypeOrAttrSpec &TS : Spec->Types)
      CompileParams(TS.Params, TS.Name);
    for (TypeOrAttrSpec &TS : Spec->Attrs)
      CompileParams(TS.Params, TS.Name);
    for (OpSpec &OS : Spec->Ops) {
      // Var opcodes index these slots through the verifier's
      // MatchContext, so every variable needs its program.
      std::span<const ConstraintProgram *> VarPrograms =
          Spec->allocate<const ConstraintProgram *>(OS.VarConstraints.size());
      for (size_t I = 0; I != VarPrograms.size(); ++I)
        VarPrograms[I] = Compile(OS.VarConstraints[I], OS.Name, "var",
                                 I < OS.VarNames.size() ? OS.VarNames[I] : "?");
      OS.VarPrograms = VarPrograms;
      // Sema and the `.irbc` reader reject unguarded variable cycles in
      // the trees, and programs compiled from them cannot add one.
      assert(!findUnguardedVarCycle(OS.VarPrograms) &&
             "unguarded variable cycle survived the tree checks");
      CompileOperands(OS.Operands, OS.Name, "operand");
      CompileOperands(OS.Results, OS.Name, "result");
      for (ParamSpec &A : OS.Attributes)
        A.Prog = Compile(A.Constr, OS.Name, "attr", A.Name);
      for (RegionSpec &RS : OS.Regions)
        CompileOperands(RS.Args, OS.Name, "region arg");
    }
  }

  // The hooks and summaries installed below point into the spec's
  // storage.
  Spec->D->retain(Spec);

  // Opaque parameter kinds get a default identity codec (the IRDL-C++
  // CppParser/CppPrinter sources are carried for documentation; a host
  // can overwrite the codec for real validation).
  for (const ParamTypeSpec &P : Spec->ParamTypes) {
    std::string FullName = std::string(Spec->Name) + "." + std::string(P.Name);
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
    if (startsWith(TS.CppConstraintSrc, "native:")) {
      std::string Name(TS.CppConstraintSrc.substr(7));
      auto It = Opts.NativeConstraints.find(Name);
      if (It == Opts.NativeConstraints.end()) {
        Diags.emitError(SMLoc(), "no native constraint registered under '" +
                                     Name + "'");
        return failure();
      }
      TS.NativeVerifier = Storage.create<NativeConstraintFn>(It->second);
    }
    TS.Def->setVerifier(buildTypeOrAttrVerifier(TS));
    TS.Def->setSummary(TS.Summary);
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
    if (!OS.NativeVerifierName.empty()) {
      auto It = Opts.NativeOpVerifiers.find(std::string(OS.NativeVerifierName));
      if (It == Opts.NativeOpVerifiers.end()) {
        Diags.emitError(SMLoc(), "no native op verifier registered under '" +
                                     std::string(OS.NativeVerifierName) + "'");
        return failure();
      }
      OS.NativeVerifier = Storage.create<NativeOpVerifierFn>(It->second);
    }
    OS.OperandsSingle = allSingle(OS.Operands);
    OS.ResultsSingle = allSingle(OS.Results);
    for (RegionSpec &RS : OS.Regions)
      RS.ArgsSingle = allSingle(RS.Args);
    OS.Def->setVerifier(buildOpVerifier(OS));
    OS.Def->setSummary(OS.Summary);
    if (OS.Successors) {
      OS.Def->setTerminator();
      OS.Def->setNumSuccessors(OS.Successors->size());
    }
    OS.Def->setRequiresCpp(OS.requiresCppVerifier() ||
                           !OS.localConstraintsInIRDL());
    if (OS.HasFormat)
      if (failed(installFormat(*Spec, OS, Diags)))
        return failure();
  }

  return success();
}
