//===- Format.cpp ---------------------------------------------------===//

#include "irdl/Format.h"

#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "irdl/ConstraintProgram.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <span>
#include <utility>

using namespace irdl;

namespace irdl {

/// An expected token of a format literal: its kind, and its spelling for
/// identifier-likes.
struct FormatToken {
  IRToken::Kind K;
  std::string_view Spelling;
};

struct FormatElement {
  enum class Kind { Literal, Operand, AttrField, Var, VarParam };
  Kind K;
  /// Literal: raw text, viewing the operation's FormatSrc.
  std::string_view Text;
  /// Literal: its expected tokens, CompiledFormat::Tokens[TokensBegin,
  /// TokensBegin + NumTokens).
  uint32_t TokensBegin = 0;
  uint32_t NumTokens = 0;
  /// Operand / AttrField / Var index.
  unsigned Index = 0;
  /// VarParam: parameter index within the var's parametric constraint.
  unsigned ParamIndex = 0;
};

/// A format compiled for its operation, in the storage of its spec. The
/// views in it point into the operation's FormatSrc or that storage.
struct CompiledFormat {
  std::span<const FormatElement> Elements;
  /// The expected tokens of every literal: kind and spelling (used for
  /// identifier-likes). Spellings of string tokens with escapes, which
  /// the lexer unescaped, are copies in the storage.
  std::span<const FormatToken> Tokens;
  /// Whether the format prints a variable or a parameter of one.
  bool PrintsVars = false;

  std::span<const FormatToken> tokens(const FormatElement &Elem) const {
    return Tokens.subspan(Elem.TokensBegin, Elem.NumTokens);
  }
};

} // namespace irdl

namespace {

/// What a format's directives bind directly: whole variables (\p
/// KnownVars[V]) and single parameters of variables (the VarParam
/// elements).
struct FormatBindings {
  std::span<const uint8_t> KnownVars;
  std::span<const FormatElement> Elements;

  bool knowsParam(unsigned Var, unsigned Param) const {
    return std::any_of(Elements.begin(), Elements.end(),
                       [&](const FormatElement &E) {
                         return E.K == FormatElement::Kind::VarParam &&
                                E.Index == Var && E.ParamIndex == Param;
                       });
  }
};

/// Can \p C's value be reconstructed given directly-bound vars and
/// per-var known parameters?
bool derivable(const Constraint *C, const FormatBindings &Known,
               std::span<const Constraint *const> VarConstraints,
               unsigned Depth = 0) {
  if (Depth > 16)
    return false;
  switch (C->getKind()) {
  case Constraint::Kind::Var: {
    unsigned V = C->getVarIndex();
    if (Known.KnownVars[V])
      return true;
    // Derivable through its own parametric constraint?
    const Constraint *VC = VarConstraints[V];
    if (VC->getKind() != Constraint::Kind::TypeParams &&
        VC->getKind() != Constraint::Kind::AttrParams)
      return false;
    if (VC->isBaseOnly())
      return VC->getChildren().empty() &&
             (VC->getKind() == Constraint::Kind::TypeParams
                  ? VC->getTypeDef()->getNumParams() == 0
                  : VC->getAttrDef()->getNumParams() == 0);
    for (unsigned I = 0, E = VC->getChildren().size(); I != E; ++I) {
      if (Known.knowsParam(V, I))
        continue;
      if (!derivable(VC->getChildren()[I], Known, VarConstraints,
                     Depth + 1))
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
    for (const Constraint *Child : C->getChildren())
      if (!derivable(Child, Known, VarConstraints, Depth + 1))
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
      for (const Constraint *Child : C->getChildren())
        if (!derivable(Child, Known, VarConstraints, Depth + 1))
          return false;
      return true;
    }
    for (const Constraint *Child : C->getChildren())
      if (derivable(Child, Known, VarConstraints, Depth + 1))
        return true;
    return false;
  }
  default:
    return false;
  }
}

/// Looks up the parameter index \p ParamName inside a var's parametric
/// constraint; nullopt if the constraint has no such named parameter.
std::optional<unsigned> lookupVarParam(const Constraint *VC,
                                       std::string_view ParamName) {
  if (VC->getKind() == Constraint::Kind::TypeParams)
    return VC->getTypeDef()->lookupParam(ParamName);
  if (VC->getKind() == Constraint::Kind::AttrParams)
    return VC->getAttrDef()->lookupParam(ParamName);
  return std::nullopt;
}

/// A `$Var.param` value read by the parse hook.
struct VarParamValue {
  unsigned Var;
  unsigned Param;
  ParamValue Value;
};

/// What the parse hook reuses from op to op within one parse.
struct FormatParseScratch {
  std::vector<CustomOpParser::UnresolvedOperand> OperandRefs;
  MatchContext MC;
  /// In format order; the first value read for a parameter counts.
  std::vector<VarParamValue> VarParamVals;
  /// The parameters of the var deriveVars is building.
  std::vector<ParamValue> Params;
};

/// Derives the value of every still-unbound var in \p MC, using parsed
/// per-var parameter values; derived values are uniqued in \p Ctx. Vars
/// that stay unbound surface later, when the operand/result types they
/// feed cannot be inferred. \p Params is scratch storage.
void deriveVars(const OpSpec &Spec, MatchContext &MC,
                const std::vector<VarParamValue> &VarParamVals,
                std::vector<ParamValue> &Params, IRContext &Ctx) {
  bool Progress = true;
  while (Progress) {
    Progress = false;
    for (unsigned V = 0, E = Spec.VarConstraints.size(); V != E; ++V) {
      if (MC.getBinding(V))
        continue;
      const Constraint *VC = Spec.VarConstraints[V];
      if (VC->getKind() != Constraint::Kind::TypeParams &&
          VC->getKind() != Constraint::Kind::AttrParams)
        continue;
      Params.clear();
      bool Ok = true;
      for (unsigned I = 0, N = VC->getChildren().size(); I != N; ++I) {
        auto It = std::find_if(VarParamVals.begin(), VarParamVals.end(),
                               [&](const VarParamValue &P) {
                                 return P.Var == V && P.Param == I;
                               });
        if (It != VarParamVals.end()) {
          Params.push_back(It->Value);
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
        Type T = Ctx.lookupOrCreateType(VC->getTypeDef(), Params, Scratch);
        if (!T)
          continue;
        MC.bind(V, ParamValue(T));
      } else {
        Attribute A = Ctx.lookupOrCreateAttr(VC->getAttrDef(), Params,
                                             Scratch);
        if (!A)
          continue;
        MC.bind(V, ParamValue(A));
      }
      Progress = true;
    }
  }
}

/// What installFormat reuses from format to format.
struct FormatCompileScratch {
  std::vector<FormatElement> Elements;
  std::vector<FormatToken> Tokens;
  std::vector<uint8_t> Seen;
};

} // namespace

LogicalResult irdl::installFormat(DialectSpec &OwningSpec, OpSpec &Op,
                                  DiagnosticEngine &Diags) {
  assert(Op.HasFormat && "operation has no format");
  SMLoc Loc; // Format strings do not retain source locations.

  auto FormatError = [&](const std::string &Message) {
    Diags.emitError(Loc, "in format of operation '" + std::string(Op.Name) +
                             "': " + Message);
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

  thread_local FormatCompileScratch Scratch;
  std::vector<FormatElement> &Elements = Scratch.Elements;
  std::vector<FormatToken> &Tokens = Scratch.Tokens;
  Elements.clear();
  Tokens.clear();
  std::string_view Src = Op.FormatSrc;
  // Which operands, attributes and variables the format names.
  size_t NumOperands = Op.Operands.size(), NumAttrs = Op.Attributes.size();
  std::vector<uint8_t> &Seen = Scratch.Seen;
  Seen.assign(NumOperands + NumAttrs + Op.VarNames.size(), 0);
  auto SeenOperand = [&](unsigned I) -> uint8_t & { return Seen[I]; };
  auto SeenAttr = [&](unsigned I) -> uint8_t & {
    return Seen[NumOperands + I];
  };

  // Tokenize the format string.
  size_t Pos = 0;
  while (Pos < Src.size()) {
    if (Src[Pos] != '$') {
      size_t Start = Pos;
      while (Pos < Src.size() && Src[Pos] != '$')
        ++Pos;
      std::string_view Text(Src.data() + Start, Pos - Start);
      // Pure whitespace chunks only affect printing.
      FormatElement Elem;
      Elem.K = FormatElement::Kind::Literal;
      Elem.Text = Text;
      Elem.TokensBegin = Tokens.size();
      DiagnosticEngine Scratch;
      IRLexer Lex(Text, Scratch);
      while (!Lex.getToken().is(IRToken::Kind::Eof)) {
        if (Lex.getToken().is(IRToken::Kind::Error))
          return FormatError("invalid literal '" + std::string(Text) + "'");
        std::string_view Spelling = Lex.getToken().Spelling;
        if (!Spelling.empty() && (Spelling.data() < Text.data() ||
                                  Spelling.data() >= Text.data() +
                                                         Text.size()))
          Spelling = OwningSpec.copy(Spelling);
        Tokens.emplace_back(Lex.getToken().K, Spelling);
        Lex.lex();
      }
      Elem.NumTokens = Tokens.size() - Elem.TokensBegin;
      Elements.push_back(Elem);
      continue;
    }
    ++Pos; // consume '$'
    size_t Start = Pos;
    while (Pos < Src.size() && isIdentifierChar(Src[Pos]))
      ++Pos;
    if (Pos == Start)
      return FormatError("expected name after '$'");
    std::string_view Name(Src.data() + Start, Pos - Start);
    std::string_view ParamName;
    if (Pos < Src.size() && Src[Pos] == '.') {
      ++Pos;
      size_t PStart = Pos;
      while (Pos < Src.size() && isIdentifierChar(Src[Pos]))
        ++Pos;
      ParamName = std::string_view(Src.data() + PStart, Pos - PStart);
      if (ParamName.empty())
        return FormatError("expected parameter name after '.'");
    }

    FormatElement Elem;
    if (auto OpIdx = Op.lookupOperand(Name)) {
      if (!ParamName.empty())
        return FormatError("operands have no printable parameters");
      if (std::exchange(SeenOperand(*OpIdx), 1))
        return FormatError("operand '" + std::string(Name) +
                           "' appears twice");
      Elem.K = FormatElement::Kind::Operand;
      Elem.Index = *OpIdx;
    } else if (auto AttrIdx = Op.lookupAttrField(Name)) {
      if (!ParamName.empty())
        return FormatError("attribute directives take no parameter");
      if (std::exchange(SeenAttr(*AttrIdx), 1))
        return FormatError("attribute '" + std::string(Name) +
                           "' appears twice");
      Elem.K = FormatElement::Kind::AttrField;
      Elem.Index = *AttrIdx;
    } else if (auto VarIdx = Op.lookupVar(Name)) {
      Elem.Index = *VarIdx;
      if (ParamName.empty()) {
        Elem.K = FormatElement::Kind::Var;
        Seen[NumOperands + NumAttrs + *VarIdx] = 1;
      } else {
        auto PIdx =
            lookupVarParam(Op.VarConstraints[*VarIdx], ParamName);
        if (!PIdx)
          return FormatError("constraint variable '" + std::string(Name) +
                             "' has no parameter '" +
                             std::string(ParamName) + "'");
        Elem.K = FormatElement::Kind::VarParam;
        Elem.ParamIndex = *PIdx;
      }
    } else if (Op.lookupResult(Name)) {
      return FormatError("results cannot appear in formats; they are "
                         "inferred from constraints");
    } else {
      return FormatError("unknown directive '$" + std::string(Name) + "'");
    }
    Elements.push_back(Elem);
  }

  // Feasibility: every operand printed, every attribute printed, every
  // operand/result type derivable.
  for (unsigned I = 0, E = Op.Operands.size(); I != E; ++I)
    if (!SeenOperand(I))
      return FormatError("operand '" + std::string(Op.Operands[I].Name) +
                         "' does not appear in the format");
  for (unsigned I = 0, E = Op.Attributes.size(); I != E; ++I)
    if (!SeenAttr(I))
      return FormatError("attribute '" + std::string(Op.Attributes[I].Name) +
                         "' does not appear in the format");
  // The variable flags are the tail of Seen.
  FormatBindings Known{std::span(Seen).subspan(NumOperands + NumAttrs),
                       Elements};
  for (const OperandSpec &O : Op.Operands)
    if (!derivable(O.Constr, Known, Op.VarConstraints))
      return FormatError("the type of operand '" + std::string(O.Name) +
                         "' cannot be inferred from the format");
  for (const OperandSpec &R : Op.Results)
    if (!derivable(R.Constr, Known, Op.VarConstraints))
      return FormatError("the type of result '" + std::string(R.Name) +
                         "' cannot be inferred from the format");

  BumpStorage &Storage = OwningSpec.getStorage();
  CompiledFormat *Compiled = Storage.create<CompiledFormat>();
  Compiled->Elements =
      Storage.copyArray(std::span<const FormatElement>(Elements));
  Compiled->Tokens = Storage.copyArray(std::span<const FormatToken>(Tokens));
  Compiled->PrintsVars =
      std::any_of(Elements.begin(), Elements.end(), [](const FormatElement &E) {
        return E.K == FormatElement::Kind::Var ||
               E.K == FormatElement::Kind::VarParam;
      });
  Op.Format = Compiled;

  // Install the hooks. They capture only the spec, so the std::functions
  // store them inline.
  Op.Def->setPrintFn([SpecRef = &Op](Operation *O, CustomOpPrinter &P) {
    const OpSpec &Spec = *SpecRef;
    const CompiledFormat &Format = *Spec.Format;
    // Rebind constraint variables from the verified op, when the format
    // prints any. The context is reused from op to op (a hook prints no
    // nested ops), so it allocates only for the largest variable count.
    thread_local MatchContext MC;
    if (Format.PrintsVars) {
      MC.reset(Spec.VarPrograms);
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
    }

    for (const FormatElement &Elem : Format.Elements) {
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

  Op.Def->setParseFn([SpecRef = &Op](CustomOpParser &P,
                                     OperationState &State) -> LogicalResult {
    const OpSpec &Spec = *SpecRef;
    const CompiledFormat &Format = *Spec.Format;
    SMLoc OpLoc = P.getCurrentLoc();
    FormatParseScratch &Scratch = P.getScratch<FormatParseScratch>();
    std::vector<CustomOpParser::UnresolvedOperand> &OperandRefs =
        Scratch.OperandRefs;
    OperandRefs.assign(Spec.Operands.size(), {});
    MatchContext &MC = Scratch.MC;
    MC.reset(Spec.VarPrograms);
    std::vector<VarParamValue> &VarParamVals = Scratch.VarParamVals;
    VarParamVals.clear();

    for (const FormatElement &Elem : Format.Elements) {
      switch (Elem.K) {
      case FormatElement::Kind::Literal:
        for (const auto &[Kind, Spelling] : Format.tokens(Elem)) {
          if (Kind == IRToken::Kind::Identifier) {
            if (failed(P.parseKeyword(Spelling)))
              return failure();
          } else if (!P.consumeIf(Kind)) {
            // What expect() would report, without building the message
            // for every op that parses.
            return P.emitError(P.getCurrentLoc(),
                               "expected '" + std::string(Spelling) + "'");
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
        VarParamVals.push_back({Elem.Index, Elem.ParamIndex, std::move(V)});
        break;
      }
      }
    }

    IRContext &Ctx = *P.getContext();
    deriveVars(Spec, MC, VarParamVals, Scratch.Params, Ctx);

    // Resolve operand and result types through their programs.
    for (unsigned I = 0, E = Spec.Operands.size(); I != E; ++I) {
      auto TV = Spec.Operands[I].Prog->concreteValue(MC, Ctx);
      if (!TV || !TV->isType())
        return P.emitError(OpLoc,
                           "cannot infer the type of operand '" +
                               std::string(Spec.Operands[I].Name) + "'");
      if (failed(P.resolveOperand(OperandRefs[I], TV->getType(),
                                  State.Operands)))
        return failure();
    }
    for (unsigned I = 0, E = Spec.Results.size(); I != E; ++I) {
      auto TV = Spec.Results[I].Prog->concreteValue(MC, Ctx);
      if (!TV || !TV->isType())
        return P.emitError(OpLoc, "cannot infer the type of result '" +
                                      std::string(Spec.Results[I].Name) +
                                      "'");
      State.ResultTypes.push_back(TV->getType());
    }
    return success();
  });

  return success();
}
