//===- BuiltinOps.cpp - builtin/std operations ------------------------===//
///
/// \file
/// Registers the operations the paper's examples assume to exist:
/// `builtin.module`, and the `std` dialect's `func`, `return`, `mulf`,
/// `addf`, `constant`, `br`, and `cond_br`. These are defined natively in
/// C++ with custom parse/print hooks — exercising exactly the hook surface
/// that IRDL `Format` directives compile into for dynamic dialects.
///
//===----------------------------------------------------------------------===//

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"

using namespace irdl;

namespace {

/// True when \p T is f16, f32 or f64 of \p Ctx.
bool isBuiltinFloat(const IRContext &Ctx, Type T) {
  if (!T)
    return false;
  const TypeDefinition *Def = T.getDef();
  return Def == Ctx.getFloatTypeDef(16) || Def == Ctx.getFloatTypeDef(32) ||
         Def == Ctx.getFloatTypeDef(64);
}

LogicalResult verifyModule(Operation *Op, DiagnosticEngine &Diags) {
  if (Op->getNumOperands() != 0 || Op->getNumResults() != 0 ||
      Op->getNumRegions() != 1) {
    Diags.emitError(Op->getLoc(),
                    "module expects no operands/results and one region");
    return failure();
  }
  return success();
}

LogicalResult verifyFunc(Operation *Op, DiagnosticEngine &Diags) {
  Attribute SymName = Op->getAttr("sym_name");
  Attribute FuncTy = Op->getAttr("function_type");
  const IRContext *Ctx = Op->getDef()->getDialect()->getContext();
  if (!SymName || SymName.getDef() != Ctx->getStringAttrDef()) {
    Diags.emitError(Op->getLoc(),
                    "func requires a string 'sym_name' attribute");
    return failure();
  }
  if (!FuncTy || FuncTy.getDef() != Ctx->getTypeAttrDef() ||
      FuncTy.getParams()[0].getType().getDef() !=
          Ctx->getFunctionTypeDef()) {
    Diags.emitError(
        Op->getLoc(),
        "func requires a 'function_type' attribute holding a function type");
    return failure();
  }
  if (Op->getNumRegions() != 1 || Op->getNumResults() != 0 ||
      Op->getNumOperands() != 0) {
    Diags.emitError(Op->getLoc(),
                    "func expects one region and no operands/results");
    return failure();
  }
  Type FT = FuncTy.getParams()[0].getType();
  const auto &Inputs = FT.getParams()[0].getArray();
  const auto &Results = FT.getParams()[1].getArray();
  Region &Body = Op->getRegion(0);
  if (Body.empty())
    return success(); // Declaration.
  Block &Entry = Body.front();
  if (Entry.getNumArguments() != Inputs.size()) {
    Diags.emitError(Op->getLoc(),
                    "entry block argument count does not match the "
                    "function signature");
    return failure();
  }
  for (unsigned I = 0, E = Inputs.size(); I != E; ++I) {
    if (Entry.getArgument(I).getType() != Inputs[I].getType()) {
      Diags.emitError(Op->getLoc(), "entry block argument #" +
                                        std::to_string(I) +
                                        " does not match signature type " +
                                        Inputs[I].getType().str());
      return failure();
    }
  }
  // Global constraint: a trailing `return` must match the result types.
  for (Block &B : Body) {
    Operation *Term = B.getTerminator();
    if (!Term || Term->getName().str() != "std.return")
      continue;
    if (Term->getNumOperands() != Results.size()) {
      Diags.emitError(Term->getLoc(),
                      "return operand count does not match the function "
                      "result count");
      return failure();
    }
    for (unsigned I = 0, E = Results.size(); I != E; ++I) {
      if (Term->getOperand(I).getType() != Results[I].getType()) {
        Diags.emitError(Term->getLoc(),
                        "return operand #" + std::to_string(I) +
                            " does not match function result type " +
                            Results[I].getType().str());
        return failure();
      }
    }
  }
  return success();
}

/// True when \p T is the builtin integer type of \p Width and \p Sign.
/// Compares the definition and parameters in place, so verification
/// interns no type (and never one a verifier would reject).
bool isIntegerType(const IRContext &Ctx, Type T, unsigned Width,
                   Signedness Sign) {
  if (!T || T.getDef() != Ctx.getIntegerTypeDef())
    return false;
  const std::vector<ParamValue> &Params = T.getParams();
  return Params.size() == 2 && Params[0].isInt() &&
         Params[0].getInt() == IntVal{32, Signedness::Unsigned,
                                      static_cast<int64_t>(Width)} &&
         Params[1].isEnum() &&
         Params[1].getEnum() ==
             EnumVal{Ctx.getSignednessEnum(), static_cast<unsigned>(Sign)};
}

/// True when some integer of \p Width bits and signedness \p Sign holds
/// \p V: siN in [-2^(N-1), 2^(N-1)-1], uiN in [0, 2^N-1], and a
/// signless iN under either reading.
bool integerFits(int64_t V, unsigned Width, Signedness Sign) {
  if (Width == 0)
    return V == 0;
  bool FitsSigned = Width >= 64 || (V >= -(int64_t(1) << (Width - 1)) &&
                                    V < (int64_t(1) << (Width - 1)));
  bool FitsUnsigned =
      V >= 0 && (Width >= 64 || static_cast<uint64_t>(V) >> Width == 0);
  switch (Sign) {
  case Signedness::Signed:
    return FitsSigned;
  case Signedness::Unsigned:
    return FitsUnsigned;
  case Signedness::Signless:
    break;
  }
  return FitsSigned || FitsUnsigned;
}

LogicalResult verifyBinaryFloatOp(Operation *Op, DiagnosticEngine &Diags) {
  if (Op->getNumOperands() != 2 || Op->getNumResults() != 1 ||
      Op->getNumRegions() != 0) {
    Diags.emitError(Op->getLoc(), "'" + Op->getName().str() +
                                      "' expects two operands and one "
                                      "result");
    return failure();
  }
  Type T = Op->getOperand(0).getType();
  if (!isBuiltinFloat(*Op->getContext(), T)) {
    Diags.emitError(Op->getLoc(), "'" + Op->getName().str() +
                                      "' operates on floating-point types");
    return failure();
  }
  if (Op->getOperand(1).getType() != T ||
      Op->getResult(0).getType() != T) {
    Diags.emitError(Op->getLoc(), "'" + Op->getName().str() +
                                      "' operand and result types must "
                                      "match");
    return failure();
  }
  return success();
}

LogicalResult verifyConstant(Operation *Op, DiagnosticEngine &Diags) {
  const IRContext *Ctx = Op->getDef()->getDialect()->getContext();
  Attribute V = Op->getAttr("value");
  if (!V || (V.getDef() != Ctx->getIntAttrDef() &&
             V.getDef() != Ctx->getFloatAttrDef())) {
    Diags.emitError(Op->getLoc(),
                    "constant requires an integer or float 'value'");
    return failure();
  }
  if (Op->getNumOperands() != 0 || Op->getNumResults() != 1) {
    Diags.emitError(Op->getLoc(),
                    "constant expects no operands and one result");
    return failure();
  }
  Type ResultTy = Op->getResult(0).getType();
  bool Matches;
  if (V.getDef() == Ctx->getFloatAttrDef()) {
    unsigned Width = V.getParams()[0].getFloat().Width;
    Matches = ResultTy && ResultTy.getDef() == Ctx->getFloatTypeDef(Width) &&
              ResultTy.getParams().empty();
  } else {
    const IntVal &IV = V.getParams()[0].getInt();
    Matches = isIntegerType(*Ctx, ResultTy, IV.Width, IV.Sign);
    if (Matches && !integerFits(IV.Value, IV.Width, IV.Sign)) {
      Diags.emitError(Op->getLoc(),
                      "integer constant " + std::to_string(IV.Value) +
                          " does not fit its type " +
                          printTypeToString(ResultTy));
      return failure();
    }
  }
  if (!Matches) {
    Diags.emitError(Op->getLoc(),
                    "constant result type does not match its value");
    return failure();
  }
  return success();
}

LogicalResult verifyCondBr(Operation *Op, DiagnosticEngine &Diags) {
  const IRContext *Ctx = Op->getDef()->getDialect()->getContext();
  if (Op->getNumOperands() != 1 ||
      !isIntegerType(*Ctx, Op->getOperand(0).getType(), 1,
                     Signedness::Signless)) {
    Diags.emitError(Op->getLoc(), "cond_br expects a single i1 condition");
    return failure();
  }
  return success();
}

//===----------------------------------------------------------------------===//
// Custom syntax hooks
//===----------------------------------------------------------------------===//

void printModule(Operation *Op, CustomOpPrinter &P) {
  if (!Op->getAttrs().empty()) {
    P << "attributes";
    P.printOptionalAttrDict(Op->getAttrs());
    P << " ";
  }
  P.printRegion(Op->getRegion(0));
}

LogicalResult parseModule(CustomOpParser &P, OperationState &State) {
  if (P.consumeOptionalKeyword("attributes"))
    if (failed(P.parseOptionalAttrDict(State.Attributes)))
      return failure();
  Region *R = State.addRegion();
  return P.parseRegion(*R);
}

void printFunc(Operation *Op, CustomOpPrinter &P) {
  const IRContext *Ctx = Op->getDef()->getDialect()->getContext();
  P << "@";
  P << Op->getAttr("sym_name").getParams()[0].getString();
  Type FT = Op->getAttr("function_type").getParams()[0].getType();
  const auto &Inputs = FT.getParams()[0].getArray();
  const auto &Results = FT.getParams()[1].getArray();
  P << "(";
  Region &Body = Op->getRegion(0);
  for (unsigned I = 0, E = Inputs.size(); I != E; ++I) {
    if (I)
      P << ", ";
    if (!Body.empty()) {
      P.printOperand(Body.front().getArgument(I));
      P << ": ";
    }
    P.printType(Inputs[I].getType());
  }
  P << ")";
  if (!Results.empty()) {
    P << " -> ";
    // A lone function-typed result needs its parentheses too: its own
    // arrow would otherwise end the signature.
    bool Parens = Results.size() > 1 || Results[0].getType().getDef() ==
                                            Ctx->getFunctionTypeDef();
    if (Parens)
      P << "(";
    for (unsigned I = 0, E = Results.size(); I != E; ++I) {
      if (I)
        P << ", ";
      P.printType(Results[I].getType());
    }
    if (Parens)
      P << ")";
  }
  // Extra attributes need an `attributes` keyword so the dict's `{` cannot
  // be confused with the body region.
  bool HasExtraAttrs = false;
  for (const NamedAttribute &NA : Op->getAttrs())
    if (NA.Name != "sym_name" && NA.Name != "function_type")
      HasExtraAttrs = true;
  if (HasExtraAttrs) {
    P << " attributes";
    P.printOptionalAttrDict(Op->getAttrs(), {"sym_name", "function_type"});
  }
  if (!Body.empty()) {
    P << " ";
    P.printRegion(Body);
  }
}

LogicalResult parseFunc(CustomOpParser &P, OperationState &State) {
  IRContext *Ctx = P.getContext();
  std::string SymName;
  if (failed(P.parseSymbolName(SymName)))
    return failure();

  std::vector<std::pair<CustomOpParser::UnresolvedOperand, Type>> EntryArgs;
  if (failed(P.expect(IRToken::Kind::LParen, "'(' in function signature")))
    return failure();
  if (!P.consumeIf(IRToken::Kind::RParen)) {
    do {
      CustomOpParser::UnresolvedOperand Arg;
      if (failed(P.parseOperand(Arg)) ||
          failed(P.expect(IRToken::Kind::Colon,
                          "':' after function argument")))
        return failure();
      Type Ty;
      if (failed(P.parseType(Ty)))
        return failure();
      EntryArgs.emplace_back(Arg, Ty);
    } while (P.consumeIf(IRToken::Kind::Comma));
    if (failed(P.expect(IRToken::Kind::RParen,
                        "')' in function signature")))
      return failure();
  }

  std::vector<Type> InputTypes;
  InputTypes.reserve(EntryArgs.size());
  for (const auto &Arg : EntryArgs)
    InputTypes.push_back(Arg.second);
  std::vector<Type> ResultTypes;
  if (P.consumeIf(IRToken::Kind::Arrow)) {
    if (P.consumeIf(IRToken::Kind::LParen)) {
      if (!P.consumeIf(IRToken::Kind::RParen)) {
        do {
          Type Ty;
          if (failed(P.parseType(Ty)))
            return failure();
          ResultTypes.push_back(Ty);
        } while (P.consumeIf(IRToken::Kind::Comma));
        if (failed(P.expect(IRToken::Kind::RParen,
                            "')' in function results")))
          return failure();
      }
    } else {
      Type Ty;
      if (failed(P.parseType(Ty)))
        return failure();
      ResultTypes.push_back(Ty);
    }
  }

  if (P.consumeOptionalKeyword("attributes"))
    if (failed(P.parseOptionalAttrDict(State.Attributes)))
      return failure();
  State.addAttribute("sym_name", Ctx->getStringAttr(SymName));
  State.addAttribute(
      "function_type",
      Ctx->getTypeAttr(Ctx->getFunctionType(InputTypes, ResultTypes)));

  Region *Body = State.addRegion();
  return P.parseRegion(*Body, EntryArgs);
}

void printReturn(Operation *Op, CustomOpPrinter &P) {
  for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
    if (I)
      P << ", ";
    P.printOperand(Op->getOperand(I));
  }
  if (Op->getNumOperands()) {
    P << " : ";
    for (unsigned I = 0, E = Op->getNumOperands(); I != E; ++I) {
      if (I)
        P << ", ";
      P.printType(Op->getOperand(I).getType());
    }
  }
}

LogicalResult parseReturn(CustomOpParser &P, OperationState &State) {
  std::vector<CustomOpParser::UnresolvedOperand> Refs;
  CustomOpParser::UnresolvedOperand Ref;
  if (P.parseOptionalOperand(Ref)) {
    Refs.push_back(Ref);
    while (P.consumeIf(IRToken::Kind::Comma)) {
      if (failed(P.parseOperand(Ref)))
        return failure();
      Refs.push_back(Ref);
    }
    if (failed(P.expect(IRToken::Kind::Colon, "':' before operand types")))
      return failure();
    for (size_t I = 0; I != Refs.size(); ++I) {
      if (I && failed(P.expect(IRToken::Kind::Comma,
                               "',' between operand types")))
        return failure();
      Type Ty;
      if (failed(P.parseType(Ty)))
        return failure();
      if (failed(P.resolveOperand(Refs[I], Ty, State.Operands)))
        return failure();
    }
  }
  return success();
}

void printBinaryOp(Operation *Op, CustomOpPrinter &P) {
  P.printOperand(Op->getOperand(0));
  P << ", ";
  P.printOperand(Op->getOperand(1));
  P << " : ";
  P.printType(Op->getResult(0).getType());
}

LogicalResult parseBinaryOp(CustomOpParser &P, OperationState &State) {
  CustomOpParser::UnresolvedOperand Lhs, Rhs;
  if (failed(P.parseOperand(Lhs)) ||
      failed(P.expect(IRToken::Kind::Comma, "',' between operands")) ||
      failed(P.parseOperand(Rhs)) ||
      failed(P.expect(IRToken::Kind::Colon, "':' before operand type")))
    return failure();
  Type Ty;
  if (failed(P.parseType(Ty)))
    return failure();
  if (failed(P.resolveOperand(Lhs, Ty, State.Operands)) ||
      failed(P.resolveOperand(Rhs, Ty, State.Operands)))
    return failure();
  State.ResultTypes.push_back(Ty);
  return success();
}

void printConstant(Operation *Op, CustomOpPrinter &P) {
  P.printAttribute(Op->getAttr("value"));
}

LogicalResult parseConstant(CustomOpParser &P, OperationState &State) {
  IRContext *Ctx = P.getContext();
  Attribute V;
  SMLoc Loc = P.getCurrentLoc();
  if (failed(P.parseAttribute(V)))
    return failure();
  State.addAttribute("value", V);
  if (V.getDef() == Ctx->getFloatAttrDef()) {
    State.ResultTypes.push_back(
        Ctx->getFloatType(V.getParams()[0].getFloat().Width));
  } else if (V.getDef() == Ctx->getIntAttrDef()) {
    const IntVal &IV = V.getParams()[0].getInt();
    State.ResultTypes.push_back(Ctx->getIntegerType(IV.Width, IV.Sign));
  } else {
    return P.emitError(Loc, "constant expects an integer or float value");
  }
  return success();
}

} // namespace

namespace irdl {

void registerBuiltinOps(IRContext &Ctx) {
  Dialect *Builtin = Ctx.getOrCreateDialect("builtin");

  OpDefinition *Module = Builtin->addOp("module");
  Module->setSummary("A top-level container operation");
  Module->setVerifier(verifyModule);
  Module->setPrintFn(printModule);
  Module->setParseFn(parseModule);
  Module->setIsolatedFromAbove();

  Dialect *Std = Ctx.getOrCreateDialect("std");

  OpDefinition *Func = Std->addOp("func");
  Func->setSummary("A function definition");
  Func->setVerifier(verifyFunc);
  Func->setPrintFn(printFunc);
  Func->setParseFn(parseFunc);
  Func->setRequiresCpp(); // Global constraints live in native C++.
  Func->setIsolatedFromAbove();

  OpDefinition *Return = Std->addOp("return");
  Return->setSummary("Function return terminator");
  Return->setTerminator();
  Return->setNumSuccessors(0);
  Return->setPrintFn(printReturn);
  Return->setParseFn(parseReturn);

  for (const char *Name : {"mulf", "addf"}) {
    OpDefinition *Def = Std->addOp(Name);
    Def->setSummary(std::string("Floating-point ") +
                    (Name[0] == 'm' ? "multiplication" : "addition"));
    Def->setVerifier(verifyBinaryFloatOp);
    Def->setPrintFn(printBinaryOp);
    Def->setParseFn(parseBinaryOp);
  }

  OpDefinition *Constant = Std->addOp("constant");
  Constant->setSummary("An integer or floating-point constant");
  Constant->setVerifier(verifyConstant);
  Constant->setPrintFn(printConstant);
  Constant->setParseFn(parseConstant);

  OpDefinition *Br = Std->addOp("br");
  Br->setSummary("Unconditional branch");
  Br->setTerminator();
  Br->setNumSuccessors(1);

  OpDefinition *CondBr = Std->addOp("cond_br");
  CondBr->setSummary("Conditional branch");
  CondBr->setTerminator();
  CondBr->setNumSuccessors(2);
  CondBr->setVerifier(verifyCondBr);
}

} // namespace irdl
