//===- Format.cpp ---------------------------------------------------===//

#include "irdl/Format.h"

#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "irdl/ConstraintProgram.h"
#include "support/StringExtras.h"

#include <map>
#include <set>

using namespace irdl;

namespace {

struct FormatElement {
  enum class Kind { Literal, Operand, AttrField, Var, VarParam };
  Kind K;
  /// Literal: raw text. Others: unused.
  std::string Text;
  /// Literal: expected tokens (kind + spelling for identifier-likes).
  /// Spellings are owned copies: the lexer that produced them is gone.
  std::vector<std::pair<IRToken::Kind, std::string>> Tokens;
  /// Operand / AttrField / Var index.
  unsigned Index = 0;
  /// VarParam: parameter index within the var's parametric constraint.
  unsigned ParamIndex = 0;
};

struct CompiledFormat {
  std::vector<FormatElement> Elements;
};

/// Can \p C's value be reconstructed given directly-bound vars and
/// per-var known parameters?
bool derivable(const ConstraintPtr &C, const std::set<unsigned> &KnownVars,
               const std::map<unsigned, std::set<unsigned>> &KnownParams,
               const std::vector<ConstraintPtr> &VarConstraints,
               unsigned Depth = 0) {
  if (Depth > 16)
    return false;
  switch (C->getKind()) {
  case Constraint::Kind::Var: {
    unsigned V = C->getVarIndex();
    if (KnownVars.count(V))
      return true;
    // Derivable through its own parametric constraint?
    const ConstraintPtr &VC = VarConstraints[V];
    if (VC->getKind() != Constraint::Kind::TypeParams &&
        VC->getKind() != Constraint::Kind::AttrParams)
      return false;
    if (VC->isBaseOnly())
      return VC->getChildren().empty() &&
             (VC->getKind() == Constraint::Kind::TypeParams
                  ? VC->getTypeDef()->getNumParams() == 0
                  : VC->getAttrDef()->getNumParams() == 0);
    auto KP = KnownParams.find(V);
    for (unsigned I = 0, E = VC->getChildren().size(); I != E; ++I) {
      if (KP != KnownParams.end() && KP->second.count(I))
        continue;
      if (!derivable(VC->getChildren()[I], KnownVars, KnownParams,
                     VarConstraints, Depth + 1))
        return false;
    }
    return true;
  }
  case Constraint::Kind::TypeParams:
  case Constraint::Kind::AttrParams: {
    if (C->isBaseOnly()) {
      unsigned NumParams = C->getKind() == Constraint::Kind::TypeParams
                               ? C->getTypeDef()->getNumParams()
                               : C->getAttrDef()->getNumParams();
      return NumParams == 0;
    }
    for (const ConstraintPtr &Child : C->getChildren())
      if (!derivable(Child, KnownVars, KnownParams, VarConstraints,
                     Depth + 1))
        return false;
    return true;
  }
  case Constraint::Kind::IntEq:
  case Constraint::Kind::FloatEq:
  case Constraint::Kind::StringEq:
  case Constraint::Kind::EnumEq:
    return true;
  case Constraint::Kind::ArrayExact:
  case Constraint::Kind::And:
  case Constraint::Kind::Cpp:
  case Constraint::Kind::Native:
  case Constraint::Kind::Named: {
    if (C->getKind() == Constraint::Kind::ArrayExact) {
      for (const ConstraintPtr &Child : C->getChildren())
        if (!derivable(Child, KnownVars, KnownParams, VarConstraints,
                       Depth + 1))
          return false;
      return true;
    }
    for (const ConstraintPtr &Child : C->getChildren())
      if (derivable(Child, KnownVars, KnownParams, VarConstraints,
                    Depth + 1))
        return true;
    return false;
  }
  default:
    return false;
  }
}

/// Looks up the parameter index \p ParamName inside a var's parametric
/// constraint; nullopt if the constraint has no such named parameter.
std::optional<unsigned> lookupVarParam(const ConstraintPtr &VC,
                                       std::string_view ParamName) {
  if (VC->getKind() == Constraint::Kind::TypeParams)
    return VC->getTypeDef()->lookupParam(ParamName);
  if (VC->getKind() == Constraint::Kind::AttrParams)
    return VC->getAttrDef()->lookupParam(ParamName);
  return std::nullopt;
}

/// Derives the value of every still-unbound var in \p MC, using parsed
/// per-var parameter values; derived values are uniqued in \p Ctx. Vars
/// that stay unbound surface later, when the operand/result types they
/// feed cannot be inferred.
void deriveVars(const OpSpec &Spec, MatchContext &MC,
                const std::map<std::pair<unsigned, unsigned>, ParamValue>
                    &VarParamVals,
                IRContext &Ctx) {
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (unsigned V = 0, E = Spec.VarConstraints.size(); V != E; ++V) {
      if (MC.getBinding(V))
        continue;
      const ConstraintPtr &VC = Spec.VarConstraints[V];
      if (VC->getKind() != Constraint::Kind::TypeParams &&
          VC->getKind() != Constraint::Kind::AttrParams)
        continue;
      std::vector<ParamValue> Params;
      bool Ok = true;
      for (unsigned I = 0, N = VC->getChildren().size(); I != N; ++I) {
        auto It = VarParamVals.find({V, I});
        if (It != VarParamVals.end()) {
          Params.push_back(It->second);
          continue;
        }
        auto CV = Spec.VarPrograms[V]->concreteChildValue(I, MC, Ctx);
        if (!CV) {
          Ok = false;
          break;
        }
        Params.push_back(std::move(*CV));
      }
      if (!Ok)
        continue;
      DiagnosticEngine Scratch;
      if (VC->getKind() == Constraint::Kind::TypeParams) {
        Type T = Ctx.getTypeChecked(VC->getTypeDef(), std::move(Params),
                                    Scratch);
        if (!T)
          continue;
        MC.bind(V, ParamValue(T));
      } else {
        Attribute A = Ctx.getAttrChecked(VC->getAttrDef(), std::move(Params),
                                         Scratch);
        if (!A)
          continue;
        MC.bind(V, ParamValue(A));
      }
      Progress = true;
    }
  }
}

} // namespace

LogicalResult irdl::installFormat(std::shared_ptr<DialectSpec> OwningSpec,
                                  OpSpec &Op, DiagnosticEngine &Diags) {
  assert(Op.HasFormat && "operation has no format");
  SMLoc Loc; // Format strings do not retain source locations.

  auto FormatError = [&](const std::string &Message) {
    Diags.emitError(Loc, "in format of operation '" + Op.Name + "': " +
                             Message);
    return failure();
  };

  // Formats are rejected for shapes the syntax cannot express.
  for (const OperandSpec &O : Op.Operands)
    if (O.VK != VariadicKind::Single)
      return FormatError("variadic operands are not supported in formats");
  for (const OperandSpec &R : Op.Results)
    if (R.VK != VariadicKind::Single)
      return FormatError("variadic results are not supported in formats");
  if (!Op.Regions.empty())
    return FormatError("regions are not supported in formats");
  if (Op.Successors && !Op.Successors->empty())
    return FormatError("successors are not supported in formats");

  auto Compiled = std::make_shared<CompiledFormat>();
  std::set<unsigned> SeenOperands, SeenAttrs, KnownVars;
  std::map<unsigned, std::set<unsigned>> KnownVarParams;

  // Tokenize the format string.
  const std::string &Src = Op.FormatSrc;
  size_t Pos = 0;
  while (Pos < Src.size()) {
    if (Src[Pos] != '$') {
      size_t Start = Pos;
      while (Pos < Src.size() && Src[Pos] != '$')
        ++Pos;
      std::string Text = Src.substr(Start, Pos - Start);
      // Pure whitespace chunks only affect printing.
      FormatElement Elem;
      Elem.K = FormatElement::Kind::Literal;
      Elem.Text = Text;
      DiagnosticEngine Scratch;
      IRLexer Lex(Text, Scratch);
      while (!Lex.getToken().is(IRToken::Kind::Eof)) {
        if (Lex.getToken().is(IRToken::Kind::Error))
          return FormatError("invalid literal '" + Text + "'");
        Elem.Tokens.emplace_back(Lex.getToken().K, Lex.getToken().Spelling);
        Lex.lex();
      }
      Compiled->Elements.push_back(std::move(Elem));
      continue;
    }
    ++Pos; // consume '$'
    size_t Start = Pos;
    while (Pos < Src.size() && isIdentifierChar(Src[Pos]))
      ++Pos;
    if (Pos == Start)
      return FormatError("expected name after '$'");
    std::string Name = Src.substr(Start, Pos - Start);
    std::string ParamName;
    if (Pos < Src.size() && Src[Pos] == '.') {
      ++Pos;
      size_t PStart = Pos;
      while (Pos < Src.size() && isIdentifierChar(Src[Pos]))
        ++Pos;
      ParamName = Src.substr(PStart, Pos - PStart);
      if (ParamName.empty())
        return FormatError("expected parameter name after '.'");
    }

    FormatElement Elem;
    if (auto OpIdx = Op.lookupOperand(Name)) {
      if (!ParamName.empty())
        return FormatError("operands have no printable parameters");
      if (!SeenOperands.insert(*OpIdx).second)
        return FormatError("operand '" + Name + "' appears twice");
      Elem.K = FormatElement::Kind::Operand;
      Elem.Index = *OpIdx;
    } else if (auto AttrIdx = Op.lookupAttrField(Name)) {
      if (!ParamName.empty())
        return FormatError("attribute directives take no parameter");
      if (!SeenAttrs.insert(*AttrIdx).second)
        return FormatError("attribute '" + Name + "' appears twice");
      Elem.K = FormatElement::Kind::AttrField;
      Elem.Index = *AttrIdx;
    } else if (auto VarIdx = Op.lookupVar(Name)) {
      Elem.Index = *VarIdx;
      if (ParamName.empty()) {
        Elem.K = FormatElement::Kind::Var;
        KnownVars.insert(*VarIdx);
      } else {
        auto PIdx =
            lookupVarParam(Op.VarConstraints[*VarIdx], ParamName);
        if (!PIdx)
          return FormatError("constraint variable '" + Name +
                             "' has no parameter '" + ParamName + "'");
        Elem.K = FormatElement::Kind::VarParam;
        Elem.ParamIndex = *PIdx;
        KnownVarParams[*VarIdx].insert(*PIdx);
      }
    } else if (Op.lookupResult(Name)) {
      return FormatError("results cannot appear in formats; they are "
                         "inferred from constraints");
    } else {
      return FormatError("unknown directive '$" + Name + "'");
    }
    Compiled->Elements.push_back(std::move(Elem));
  }

  // Feasibility: every operand printed, every attribute printed, every
  // operand/result type derivable.
  for (unsigned I = 0, E = Op.Operands.size(); I != E; ++I)
    if (!SeenOperands.count(I))
      return FormatError("operand '" + Op.Operands[I].Name +
                         "' does not appear in the format");
  for (unsigned I = 0, E = Op.Attributes.size(); I != E; ++I)
    if (!SeenAttrs.count(I))
      return FormatError("attribute '" + Op.Attributes[I].Name +
                         "' does not appear in the format");
  for (const OperandSpec &O : Op.Operands)
    if (!derivable(O.Constr, KnownVars, KnownVarParams, Op.VarConstraints))
      return FormatError("the type of operand '" + O.Name +
                         "' cannot be inferred from the format");
  for (const OperandSpec &R : Op.Results)
    if (!derivable(R.Constr, KnownVars, KnownVarParams, Op.VarConstraints))
      return FormatError("the type of result '" + R.Name +
                         "' cannot be inferred from the format");

  // Install the hooks. Alias the shared_ptr so the spec outlives us.
  std::shared_ptr<OpSpec> SpecRef(OwningSpec, &Op);

  Op.Def->setPrintFn([SpecRef, Compiled](Operation *O, CustomOpPrinter &P) {
    const OpSpec &Spec = *SpecRef;
    // Rebind constraint variables from the verified op.
    MatchContext MC(&Spec.VarPrograms);
    for (unsigned I = 0, E = std::min<size_t>(Spec.Operands.size(),
                                              O->getNumOperands());
         I != E; ++I)
      (void)Spec.Operands[I].Prog->run(
          ParamValue(O->getOperand(I).getType()), MC);
    for (unsigned I = 0, E = std::min<size_t>(Spec.Results.size(),
                                              O->getNumResults());
         I != E; ++I)
      (void)Spec.Results[I].Prog->run(
          ParamValue(O->getResult(I).getType()), MC);

    for (const FormatElement &Elem : Compiled->Elements) {
      switch (Elem.K) {
      case FormatElement::Kind::Literal:
        P << Elem.Text;
        break;
      case FormatElement::Kind::Operand:
        if (Elem.Index < O->getNumOperands())
          P.printOperand(O->getOperand(Elem.Index));
        break;
      case FormatElement::Kind::AttrField:
        P.printAttribute(O->getAttr(Spec.Attributes[Elem.Index].Name));
        break;
      case FormatElement::Kind::Var:
        if (const auto &B = MC.getBinding(Elem.Index))
          P.printParam(*B);
        else
          P << "<<unbound>>";
        break;
      case FormatElement::Kind::VarParam: {
        const auto &B = MC.getBinding(Elem.Index);
        if (B && B->isType() &&
            Elem.ParamIndex < B->getType().getParams().size())
          P.printParam(B->getType().getParams()[Elem.ParamIndex]);
        else if (B && B->isAttr() &&
                 Elem.ParamIndex < B->getAttr().getParams().size())
          P.printParam(B->getAttr().getParams()[Elem.ParamIndex]);
        else
          P << "<<unbound>>";
        break;
      }
      }
    }
  });

  Op.Def->setParseFn([SpecRef, Compiled](CustomOpParser &P,
                                         OperationState &State)
                         -> LogicalResult {
    const OpSpec &Spec = *SpecRef;
    SMLoc OpLoc = P.getCurrentLoc();
    std::vector<CustomOpParser::UnresolvedOperand> OperandRefs(
        Spec.Operands.size());
    MatchContext MC(&Spec.VarPrograms);
    std::map<std::pair<unsigned, unsigned>, ParamValue> VarParamVals;

    for (const FormatElement &Elem : Compiled->Elements) {
      switch (Elem.K) {
      case FormatElement::Kind::Literal:
        for (const auto &[Kind, Spelling] : Elem.Tokens) {
          if (Kind == IRToken::Kind::Identifier) {
            if (failed(P.parseKeyword(Spelling)))
              return failure();
          } else if (failed(P.expect(Kind, "'" + Spelling + "'"))) {
            return failure();
          }
        }
        break;
      case FormatElement::Kind::Operand:
        if (failed(P.parseOperand(OperandRefs[Elem.Index])))
          return failure();
        break;
      case FormatElement::Kind::AttrField: {
        Attribute A;
        if (failed(P.parseAttribute(A)))
          return failure();
        State.addAttribute(Spec.Attributes[Elem.Index].Name, A);
        break;
      }
      case FormatElement::Kind::Var: {
        ParamValue V;
        if (failed(P.parseParam(V)))
          return failure();
        MC.bind(Elem.Index, std::move(V));
        break;
      }
      case FormatElement::Kind::VarParam: {
        ParamValue V;
        if (failed(P.parseParam(V)))
          return failure();
        VarParamVals.emplace(
            std::make_pair(Elem.Index, Elem.ParamIndex), std::move(V));
        break;
      }
      }
    }

    IRContext &Ctx = *P.getContext();
    deriveVars(Spec, MC, VarParamVals, Ctx);

    // Resolve operand and result types through their programs.
    for (unsigned I = 0, E = Spec.Operands.size(); I != E; ++I) {
      auto TV = Spec.Operands[I].Prog->concreteValue(MC, Ctx);
      if (!TV || !TV->isType())
        return P.emitError(OpLoc,
                           "cannot infer the type of operand '" +
                               Spec.Operands[I].Name + "'");
      if (failed(P.resolveOperand(OperandRefs[I], TV->getType(),
                                  State.Operands)))
        return failure();
    }
    for (unsigned I = 0, E = Spec.Results.size(); I != E; ++I) {
      auto TV = Spec.Results[I].Prog->concreteValue(MC, Ctx);
      if (!TV || !TV->isType())
        return P.emitError(OpLoc, "cannot infer the type of result '" +
                                      Spec.Results[I].Name + "'");
      State.ResultTypes.push_back(TV->getType());
    }
    return success();
  });

  return success();
}
