//===- IRParser.cpp -------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/StringExtras.h"
#include "support/Timing.h"

#include <cmath>
#include <cstdlib>
#include <map>

using namespace irdl;

IRDL_STATISTIC(IRParser, NumBuffersParsed,
               "textual IR buffers parsed end to end");

namespace irdl {

/// The recursive-descent parser for the textual IR format.
class IRParserImpl {
public:
  IRParserImpl(IRContext &Ctx, std::string_view Source,
               DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags), Lex(Source, Diags) {}

  ~IRParserImpl() {
    // Delete any orphaned forward-reference placeholders (error paths).
    for (auto &Scope : Scopes)
      for (auto &[Name, Op] : Scope.Forwards)
        Orphans.push_back(Op);
    Scopes.clear();
  }

  /// Deletes placeholders left over after the partial IR is gone.
  void deleteOrphans() {
    for (Operation *Op : Orphans) {
      // Any remaining uses belong to IR that has been destroyed already.
      Op->destroy();
    }
    Orphans.clear();
  }

  //===------------------------------------------------------------------===//
  // Tokens
  //===------------------------------------------------------------------===//

  const IRToken &tok() const { return Lex.getToken(); }
  void lex() { Lex.lex(); }

  bool consumeIf(IRToken::Kind K) {
    if (!tok().is(K))
      return false;
    lex();
    return true;
  }

  LogicalResult expect(IRToken::Kind K, std::string_view What) {
    if (consumeIf(K))
      return success();
    Diags.emitError(tok().Loc, "expected " + std::string(What));
    return failure();
  }

  LogicalResult emitError(SMLoc Loc, std::string Message) {
    Diags.emitError(Loc, std::move(Message));
    return failure();
  }

  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  struct Scope {
    std::map<std::string, Value> Values;
    std::map<std::string, SMLoc> ValueLocs;
    /// Forward-referenced values: name -> detached placeholder op.
    std::map<std::string, Operation *> Forwards;
    /// Block label table for the region.
    std::map<std::string, Block *> Blocks;
    std::map<std::string, bool> BlockDefined;
  };

  void pushScope() { Scopes.emplace_back(); }

  LogicalResult popScope() {
    Scope &S = Scopes.back();
    LogicalResult Result = success();
    for (auto &[Name, Op] : S.Forwards) {
      Diags.emitError(Op->getLoc(), "use of undefined value %" + Name);
      Orphans.push_back(Op);
      Result = failure();
    }
    S.Forwards.clear();
    for (auto &[Name, B] : S.Blocks) {
      if (!S.BlockDefined[Name]) {
        Diags.emitError(SMLoc(), "reference to undefined block ^" + Name);
        B->destroy();
        Result = failure();
      }
    }
    Scopes.pop_back();
    return Result;
  }

  Value lookupValue(std::string_view Name) {
    for (auto It = Scopes.rbegin(), E = Scopes.rend(); It != E; ++It) {
      auto VIt = It->Values.find(std::string(Name));
      if (VIt != It->Values.end())
        return VIt->second;
      // Forward placeholders are only visible in their own scope.
      if (It == Scopes.rbegin()) {
        auto FIt = It->Forwards.find(std::string(Name));
        if (FIt != It->Forwards.end())
          return FIt->second->getResult(0);
      }
    }
    return Value();
  }

  /// Resolves a `%name` reference of expected type \p Ty, creating a
  /// forward placeholder in the innermost scope when unknown.
  Value resolveValue(const std::string &Name, Type Ty, SMLoc Loc) {
    if (Value V = lookupValue(Name)) {
      if (V.getType() != Ty) {
        Diags.emitError(Loc, "value %" + Name + " has type " +
                                 V.getType().str() + " but is used as " +
                                 Ty.str());
        return Value();
      }
      return V;
    }
    assert(!Scopes.empty());
    OperationState State(Ctx, OperationName("builtin.__forward_ref__"), Loc);
    State.ResultTypes.push_back(Ty);
    Operation *Placeholder = Operation::create(State);
    Scopes.back().Forwards.emplace(Name, Placeholder);
    return Placeholder->getResult(0);
  }

  LogicalResult defineValue(const std::string &Name, Value V, SMLoc Loc) {
    Scope &S = Scopes.back();
    if (S.Values.count(Name))
      return emitError(Loc, "redefinition of value %" + Name);
    auto FIt = S.Forwards.find(Name);
    if (FIt != S.Forwards.end()) {
      Operation *Placeholder = FIt->second;
      Value Old = Placeholder->getResult(0);
      if (Old.getType() != V.getType())
        return emitError(Loc, "definition of %" + Name + " with type " +
                                  V.getType().str() +
                                  " does not match forward uses of type " +
                                  Old.getType().str());
      Old.replaceAllUsesWith(V);
      Placeholder->destroy();
      S.Forwards.erase(FIt);
    }
    S.Values.emplace(Name, V);
    S.ValueLocs.emplace(Name, Loc);
    return success();
  }

  Block *getOrCreateBlock(const std::string &Name) {
    Scope &S = Scopes.back();
    auto It = S.Blocks.find(Name);
    if (It != S.Blocks.end())
      return It->second;
    Block *B = Block::create(Ctx);
    S.Blocks.emplace(Name, B);
    S.BlockDefined.emplace(Name, false);
    return B;
  }

  //===------------------------------------------------------------------===//
  // Types, attributes, parameters
  //===------------------------------------------------------------------===//

  /// Tries builtin type sugar for \p Ident; returns null when no match.
  Type parseTypeSugar(std::string_view Ident) {
    if (Ident == "f16" || Ident == "f32" || Ident == "f64")
      return Ctx.getFloatType(Ident == "f16" ? 16 : Ident == "f32" ? 32 : 64);
    if (Ident == "index")
      return Ctx.getIndexType();
    Signedness Sign;
    std::string_view Digits;
    if (startsWith(Ident, "si")) {
      Sign = Signedness::Signed;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "ui")) {
      Sign = Signedness::Unsigned;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "i")) {
      Sign = Signedness::Signless;
      Digits = Ident.substr(1);
    } else {
      return Type();
    }
    auto Width = parseUInt(Digits);
    if (!Width || *Width < 1 || *Width > 128)
      return Type();
    return Ctx.getIntegerType(static_cast<unsigned>(*Width), Sign);
  }

  /// Parses a dotted identifier path (`a.b.c`); returns the segments.
  std::vector<std::string> parseDottedPath() {
    std::vector<std::string> Segments;
    if (!tok().is(IRToken::Kind::Identifier))
      return Segments;
    Segments.push_back(tok().Spelling);
    lex();
    while (tok().is(IRToken::Kind::Dot)) {
      lex();
      if (!tok().is(IRToken::Kind::Identifier)) {
        Diags.emitError(tok().Loc, "expected identifier after '.'");
        return {};
      }
      Segments.push_back(tok().Spelling);
      lex();
    }
    return Segments;
  }

  Type parseType() {
    SMLoc Loc = tok().Loc;

    // Function type: (inputs) -> results
    if (consumeIf(IRToken::Kind::LParen)) {
      std::vector<Type> Inputs;
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Type T = parseType();
          if (!T)
            return Type();
          Inputs.push_back(T);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' in function type")) ||
          failed(expect(IRToken::Kind::Arrow, "'->' in function type")))
        return Type();
      std::vector<Type> Results;
      if (consumeIf(IRToken::Kind::LParen)) {
        if (!tok().is(IRToken::Kind::RParen)) {
          do {
            Type T = parseType();
            if (!T)
              return Type();
            Results.push_back(T);
          } while (consumeIf(IRToken::Kind::Comma));
        }
        if (failed(expect(IRToken::Kind::RParen, "')' in function type")))
          return Type();
      } else {
        Type T = parseType();
        if (!T)
          return Type();
        Results.push_back(T);
      }
      return Ctx.getFunctionType(Inputs, Results);
    }

    bool HadBang = consumeIf(IRToken::Kind::Bang);
    if (!tok().is(IRToken::Kind::Identifier)) {
      Diags.emitError(Loc, "expected type");
      return Type();
    }
    std::vector<std::string> Path = parseDottedPath();
    if (Path.empty())
      return Type();

    if (Path.size() == 1)
      if (Type Sugar = parseTypeSugar(Path[0]))
        return Sugar;

    std::string FullName = join(Path, ".");
    TypeDefinition *Def = Ctx.resolveTypeDef(FullName);
    if (!Def) {
      Diags.emitError(Loc, "unknown type '" + FullName + "'");
      return Type();
    }
    (void)HadBang;

    std::vector<ParamValue> Params;
    if (consumeIf(IRToken::Kind::Less)) {
      if (!tok().is(IRToken::Kind::Greater)) {
        do {
          ParamValue P;
          if (failed(parseParam(P)))
            return Type();
          Params.push_back(std::move(P));
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::Greater, "'>' in type parameters")))
        return Type();
    }
    return Ctx.getTypeChecked(Def, std::move(Params), Diags, Loc);
  }

  /// Parses an optional `: suffix` kind after a numeric literal. Returns
  /// failure on malformed suffix. Out params describe the kind.
  struct NumKind {
    bool IsFloat = false;
    unsigned Width = 64;
    Signedness Sign = Signedness::Signless;
    bool Present = false;
  };

  LogicalResult parseOptionalNumSuffix(NumKind &K) {
    if (!tok().is(IRToken::Kind::Colon))
      return success();
    lex();
    if (!tok().is(IRToken::Kind::Identifier))
      return emitError(tok().Loc, "expected integer or float kind after ':'");
    std::string_view Ident = tok().Spelling;
    K.Present = true;
    if (Ident == "f16" || Ident == "f32" || Ident == "f64") {
      K.IsFloat = true;
      K.Width = Ident == "f16" ? 16 : Ident == "f32" ? 32 : 64;
      lex();
      return success();
    }
    std::string_view Digits;
    if (startsWith(Ident, "si")) {
      K.Sign = Signedness::Signed;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "ui")) {
      K.Sign = Signedness::Unsigned;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "i")) {
      Digits = Ident.substr(1);
    } else {
      return emitError(tok().Loc, "expected integer or float kind");
    }
    auto Width = parseUInt(Digits);
    if (!Width || *Width < 1 || *Width > 128)
      return emitError(tok().Loc, "invalid integer kind width");
    K.Width = static_cast<unsigned>(*Width);
    lex();
    return success();
  }

  /// Parses a signed numeric literal plus optional kind suffix into \p P.
  LogicalResult parseNumberParam(ParamValue &P) {
    SMLoc Loc = tok().Loc;
    bool Negative = consumeIf(IRToken::Kind::Minus);
    if (tok().is(IRToken::Kind::Integer)) {
      auto V = parseUInt(tok().Spelling);
      if (!V)
        return emitError(Loc, "integer literal out of range");
      lex();
      NumKind K;
      if (failed(parseOptionalNumSuffix(K)))
        return failure();
      if (K.IsFloat) {
        double D = static_cast<double>(*V);
        P = ParamValue(FloatVal{static_cast<uint16_t>(K.Width),
                                Negative ? -D : D});
        return success();
      }
      int64_t SV = static_cast<int64_t>(*V);
      P = ParamValue(IntVal{static_cast<uint16_t>(K.Width), K.Sign,
                            Negative ? -SV : SV});
      return success();
    }
    if (tok().is(IRToken::Kind::Float) || tok().isIdent("inf") ||
        tok().isIdent("nan")) {
      double D;
      if (tok().is(IRToken::Kind::Float))
        D = std::strtod(tok().Spelling.c_str(), nullptr);
      else
        D = tok().isIdent("inf") ? HUGE_VAL : NAN;
      lex();
      NumKind K;
      if (failed(parseOptionalNumSuffix(K)))
        return failure();
      if (K.Present && !K.IsFloat)
        return emitError(Loc, "float literal with integer kind");
      P = ParamValue(
          FloatVal{static_cast<uint16_t>(K.Width), Negative ? -D : D});
      return success();
    }
    return emitError(Loc, "expected numeric literal");
  }

  LogicalResult parseParam(ParamValue &P) {
    SMLoc Loc = tok().Loc;
    switch (tok().K) {
    case IRToken::Kind::Minus:
    case IRToken::Kind::Integer:
    case IRToken::Kind::Float:
      return parseNumberParam(P);
    case IRToken::Kind::String: {
      P = ParamValue(tok().Spelling);
      lex();
      return success();
    }
    case IRToken::Kind::LSquare: {
      lex();
      std::vector<ParamValue> Elems;
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          ParamValue Elem;
          if (failed(parseParam(Elem)))
            return failure();
          Elems.push_back(std::move(Elem));
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' in array parameter")))
        return failure();
      P = ParamValue(std::move(Elems));
      return success();
    }
    case IRToken::Kind::Hash: {
      Attribute A = parseAttribute();
      if (!A)
        return failure();
      P = ParamValue(A);
      return success();
    }
    case IRToken::Kind::Bang:
    case IRToken::Kind::LParen: {
      Type T = parseType();
      if (!T)
        return failure();
      P = ParamValue(T);
      return success();
    }
    case IRToken::Kind::Identifier: {
      if (tok().isIdent("opaque")) {
        lex();
        if (failed(expect(IRToken::Kind::Less, "'<' after 'opaque'")))
          return failure();
        if (!tok().is(IRToken::Kind::String))
          return emitError(tok().Loc, "expected opaque parameter kind name");
        std::string KindName = tok().Spelling;
        lex();
        if (failed(expect(IRToken::Kind::Comma, "',' in opaque parameter")))
          return failure();
        if (!tok().is(IRToken::Kind::String))
          return emitError(tok().Loc, "expected opaque parameter payload");
        std::string Payload = tok().Spelling;
        lex();
        if (failed(expect(IRToken::Kind::Greater,
                          "'>' after opaque parameter")))
          return failure();
        const OpaqueParamCodec *Codec = Ctx.lookupOpaqueParamCodec(KindName);
        if (!Codec)
          return emitError(Loc, "unknown opaque parameter kind '" +
                                    KindName + "'");
        auto Parsed = Codec->Parse(Payload);
        if (!Parsed)
          return emitError(Loc, "invalid payload for opaque parameter '" +
                                    KindName + "'");
        P = ParamValue(OpaqueVal{KindName, *Parsed});
        return success();
      }
      if (tok().isIdent("inf") || tok().isIdent("nan"))
        return parseNumberParam(P);

      std::vector<std::string> Path = parseDottedPath();
      if (Path.empty())
        return failure();
      if (Path.size() == 1) {
        if (Type Sugar = parseTypeSugar(Path[0])) {
          P = ParamValue(Sugar);
          return success();
        }
        return emitError(Loc, "unknown parameter '" + Path[0] + "'");
      }
      // Enum constructor: [dialect.]enum.Case
      std::string CaseName = Path.back();
      Path.pop_back();
      std::string EnumPath = join(Path, ".");
      if (EnumDef *Def = Ctx.resolveEnumDef(EnumPath)) {
        if (auto Index = Def->lookupCase(CaseName)) {
          P = ParamValue(EnumVal{Def, *Index});
          return success();
        }
        return emitError(Loc, "'" + CaseName + "' is not a constructor of "
                                                   "enum '" +
                                  Def->getFullName() + "'");
      }
      return emitError(Loc, "unknown enum '" + EnumPath + "'");
    }
    default:
      return emitError(Loc, "expected parameter value");
    }
  }

  Attribute parseAttribute() {
    SMLoc Loc = tok().Loc;
    switch (tok().K) {
    case IRToken::Kind::Minus:
    case IRToken::Kind::Integer:
    case IRToken::Kind::Float: {
      ParamValue P;
      if (failed(parseNumberParam(P)))
        return Attribute();
      if (P.isInt())
        return Ctx.getIntegerAttr(P.getInt());
      return Ctx.getAttr(Ctx.getFloatAttrDef(), {P});
    }
    case IRToken::Kind::String: {
      std::string S = tok().Spelling;
      lex();
      return Ctx.getStringAttr(std::move(S));
    }
    case IRToken::Kind::LSquare: {
      lex();
      std::vector<Attribute> Elems;
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          Attribute A = parseAttribute();
          if (!A)
            return Attribute();
          Elems.push_back(A);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' in array attribute")))
        return Attribute();
      return Ctx.getArrayAttr(std::move(Elems));
    }
    case IRToken::Kind::Hash: {
      lex();
      std::vector<std::string> Path = parseDottedPath();
      if (Path.empty()) {
        Diags.emitError(Loc, "expected attribute name after '#'");
        return Attribute();
      }
      std::string FullName = join(Path, ".");
      AttrDefinition *Def = Ctx.resolveAttrDef(FullName);
      if (!Def) {
        Diags.emitError(Loc, "unknown attribute '" + FullName + "'");
        return Attribute();
      }
      std::vector<ParamValue> Params;
      if (consumeIf(IRToken::Kind::Less)) {
        if (!tok().is(IRToken::Kind::Greater)) {
          do {
            ParamValue P;
            if (failed(parseParam(P)))
              return Attribute();
            Params.push_back(std::move(P));
          } while (consumeIf(IRToken::Kind::Comma));
        }
        if (failed(expect(IRToken::Kind::Greater,
                          "'>' in attribute parameters")))
          return Attribute();
      }
      return Ctx.getAttrChecked(Def, std::move(Params), Diags, Loc);
    }
    case IRToken::Kind::Identifier:
      if (tok().isIdent("unit")) {
        lex();
        return Ctx.getUnitAttr();
      }
      if (tok().isIdent("true") || tok().isIdent("false")) {
        bool V = tok().isIdent("true");
        lex();
        return Ctx.getIntegerAttr(V ? 1 : 0, /*Width=*/1);
      }
      if (tok().isIdent("inf") || tok().isIdent("nan")) {
        ParamValue P;
        if (failed(parseNumberParam(P)))
          return Attribute();
        return Ctx.getAttr(Ctx.getFloatAttrDef(), {P});
      }
      // Dotted identifier paths may name an enum constructor
      // (`arith.fastmath.fast`); otherwise they fall back to type syntax.
      if (tok().is(IRToken::Kind::Identifier)) {
        // Peek: a path with >= 2 segments whose prefix names an enum.
        const char *Save = tok().Loc.getPointer();
        std::vector<std::string> Path = parseDottedPath();
        if (Path.empty())
          return Attribute();
        if (Path.size() >= 2) {
          std::string CaseName = Path.back();
          std::vector<std::string> Prefix(Path.begin(), Path.end() - 1);
          if (EnumDef *Def = Ctx.resolveEnumDef(join(Prefix, "."))) {
            if (auto Index = Def->lookupCase(CaseName))
              return Ctx.getEnumAttr(EnumVal{Def, *Index});
            Diags.emitError(Loc, "'" + CaseName +
                                     "' is not a constructor of enum '" +
                                     Def->getFullName() + "'");
            return Attribute();
          }
        }
        // Not an enum: reinterpret the path as a type.
        if (Path.size() == 1)
          if (Type Sugar = parseTypeSugar(Path[0]))
            return Ctx.getTypeAttr(Sugar);
        std::string FullName = join(Path, ".");
        if (TypeDefinition *Def = Ctx.resolveTypeDef(FullName)) {
          // Continue a full type parse for optional parameters.
          std::vector<ParamValue> Params;
          if (consumeIf(IRToken::Kind::Less)) {
            if (!tok().is(IRToken::Kind::Greater)) {
              do {
                ParamValue P;
                if (failed(parseParam(P)))
                  return Attribute();
                Params.push_back(std::move(P));
              } while (consumeIf(IRToken::Kind::Comma));
            }
            if (failed(expect(IRToken::Kind::Greater,
                              "'>' in type parameters")))
              return Attribute();
          }
          Type T = Ctx.getTypeChecked(Def, std::move(Params), Diags, Loc);
          if (!T)
            return Attribute();
          return Ctx.getTypeAttr(T);
        }
        (void)Save;
        Diags.emitError(Loc, "unknown attribute '" + FullName + "'");
        return Attribute();
      }
      [[fallthrough]];
    case IRToken::Kind::Bang:
    case IRToken::Kind::LParen: {
      // A bare type is a type attribute.
      Type T = parseType();
      if (!T)
        return Attribute();
      return Ctx.getTypeAttr(T);
    }
    default:
      Diags.emitError(Loc, "expected attribute");
      return Attribute();
    }
  }

  LogicalResult parseOptionalAttrDict(NamedAttrList &Attrs) {
    if (!tok().is(IRToken::Kind::LBrace))
      return success();
    lex();
    if (consumeIf(IRToken::Kind::RBrace))
      return success();
    do {
      std::string Name;
      if (tok().is(IRToken::Kind::Identifier) ||
          tok().is(IRToken::Kind::String)) {
        Name = tok().Spelling;
        lex();
      } else {
        return emitError(tok().Loc, "expected attribute name");
      }
      if (consumeIf(IRToken::Kind::Equal)) {
        Attribute A = parseAttribute();
        if (!A)
          return failure();
        Attrs.set(Name, A);
      } else {
        Attrs.set(Name, Ctx.getUnitAttr());
      }
    } while (consumeIf(IRToken::Kind::Comma));
    return expect(IRToken::Kind::RBrace, "'}' at end of attribute dict");
  }

  //===------------------------------------------------------------------===//
  // Operations
  //===------------------------------------------------------------------===//

  struct ResultBinding {
    std::string Name;
    SMLoc Loc;
    std::optional<unsigned> DeclaredCount;
  };

  /// Parses one operation statement into \p InsertInto.
  LogicalResult parseOpStatement(Block *InsertInto) {
    std::optional<ResultBinding> Binding;
    if (tok().is(IRToken::Kind::PercentId)) {
      ResultBinding B;
      B.Name = tok().Spelling;
      B.Loc = tok().Loc;
      if (B.Name.find('#') != std::string::npos)
        return emitError(B.Loc, "result binding may not contain '#'");
      lex();
      if (consumeIf(IRToken::Kind::Colon)) {
        if (!tok().is(IRToken::Kind::Integer))
          return emitError(tok().Loc, "expected result count after ':'");
        auto N = parseUInt(tok().Spelling);
        if (!N || *N == 0)
          return emitError(tok().Loc, "invalid result count");
        B.DeclaredCount = static_cast<unsigned>(*N);
        lex();
      }
      if (failed(expect(IRToken::Kind::Equal, "'=' after result binding")))
        return failure();
      Binding = std::move(B);
    }

    SMLoc OpLoc = tok().Loc;
    Operation *Op = nullptr;
    if (tok().is(IRToken::Kind::String)) {
      if (failed(parseGenericOp(Op)))
        return failure();
    } else if (tok().is(IRToken::Kind::Identifier)) {
      if (failed(parseCustomOp(Op)))
        return failure();
    } else {
      return emitError(OpLoc, "expected operation");
    }

    InsertInto->push_back(Op);

    unsigned NumResults = Op->getNumResults();
    if (Binding) {
      if (Binding->DeclaredCount && *Binding->DeclaredCount != NumResults)
        return emitError(Binding->Loc,
                         "operation defines " + std::to_string(NumResults) +
                             " results but " +
                             std::to_string(*Binding->DeclaredCount) +
                             " were bound");
      if (!Binding->DeclaredCount && NumResults != 1)
        return emitError(Binding->Loc,
                         "operation defines " + std::to_string(NumResults) +
                             " results; bind them as %name:" +
                             std::to_string(NumResults));
      if (NumResults == 1) {
        if (failed(defineValue(Binding->Name, Op->getResult(0),
                               Binding->Loc)))
          return failure();
      } else {
        for (unsigned I = 0; I != NumResults; ++I)
          if (failed(defineValue(Binding->Name + "#" + std::to_string(I),
                                 Op->getResult(I), Binding->Loc)))
            return failure();
      }
    } else if (NumResults != 0) {
      return emitError(OpLoc, "operation results must be bound to names");
    }
    return success();
  }

  LogicalResult resolveOpName(const std::string &FullName, SMLoc Loc,
                              OperationName &Name) {
    if (const OpDefinition *Def = Ctx.resolveOpDef(FullName)) {
      Name = OperationName(Def);
      return success();
    }
    if (Ctx.allowsUnregisteredOps()) {
      Name = OperationName(FullName);
      return success();
    }
    return emitError(Loc, "unknown operation '" + FullName + "'");
  }

  LogicalResult parseGenericOp(Operation *&Op) {
    SMLoc OpLoc = tok().Loc;
    std::string FullName = tok().Spelling;
    lex();

    OperationName Name;
    if (failed(resolveOpName(FullName, OpLoc, Name)))
      return failure();
    OperationState State(Ctx, Name, OpLoc);

    // Operand references.
    std::vector<CustomOpParser::UnresolvedOperand> OperandRefs;
    if (failed(expect(IRToken::Kind::LParen, "'(' after operation name")))
      return failure();
    if (!tok().is(IRToken::Kind::RParen)) {
      do {
        if (!tok().is(IRToken::Kind::PercentId))
          return emitError(tok().Loc, "expected SSA operand");
        OperandRefs.push_back({tok().Spelling, tok().Loc});
        lex();
      } while (consumeIf(IRToken::Kind::Comma));
    }
    if (failed(expect(IRToken::Kind::RParen, "')' after operands")))
      return failure();

    // Successors.
    if (consumeIf(IRToken::Kind::LSquare)) {
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          if (!tok().is(IRToken::Kind::CaretId))
            return emitError(tok().Loc, "expected successor block");
          State.addSuccessor(getOrCreateBlock(tok().Spelling));
          lex();
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' after successors")))
        return failure();
    }

    // Regions.
    if (tok().is(IRToken::Kind::LParen)) {
      lex();
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Region *R = State.addRegion();
          if (failed(parseRegionBody(*R, {})))
            return failure();
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' after regions")))
        return failure();
    }

    if (failed(parseOptionalAttrDict(State.Attributes)))
      return failure();

    // Signature.
    if (failed(expect(IRToken::Kind::Colon, "':' before op signature")) ||
        failed(expect(IRToken::Kind::LParen, "'(' in op signature")))
      return failure();
    std::vector<Type> OperandTypes;
    if (!tok().is(IRToken::Kind::RParen)) {
      do {
        Type T = parseType();
        if (!T)
          return failure();
        OperandTypes.push_back(T);
      } while (consumeIf(IRToken::Kind::Comma));
    }
    if (failed(expect(IRToken::Kind::RParen, "')' in op signature")) ||
        failed(expect(IRToken::Kind::Arrow, "'->' in op signature")))
      return failure();
    if (consumeIf(IRToken::Kind::LParen)) {
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Type T = parseType();
          if (!T)
            return failure();
          State.ResultTypes.push_back(T);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' in op signature")))
        return failure();
    } else {
      Type T = parseType();
      if (!T)
        return failure();
      State.ResultTypes.push_back(T);
    }

    if (OperandTypes.size() != OperandRefs.size())
      return emitError(OpLoc, "operand count (" +
                                  std::to_string(OperandRefs.size()) +
                                  ") does not match signature (" +
                                  std::to_string(OperandTypes.size()) + ")");
    for (size_t I = 0, E = OperandRefs.size(); I != E; ++I) {
      Value V = resolveValue(OperandRefs[I].Name, OperandTypes[I],
                             OperandRefs[I].Loc);
      if (!V)
        return failure();
      State.Operands.push_back(V);
    }

    Op = Operation::create(State);
    return success();
  }

  LogicalResult parseCustomOp(Operation *&Op) {
    SMLoc OpLoc = tok().Loc;
    std::vector<std::string> Path = parseDottedPath();
    if (Path.empty())
      return failure();
    std::string FullName = join(Path, ".");
    const OpDefinition *Def = Ctx.resolveOpDef(FullName);
    if (!Def)
      return emitError(OpLoc, "unknown operation '" + FullName + "'");
    if (!Def->getParseFn())
      return emitError(OpLoc, "operation '" + Def->getFullName() +
                                  "' has no custom syntax; use the generic "
                                  "form");
    OperationState State(Ctx, OperationName(Def), OpLoc);
    CustomOpParser Custom(*this);
    if (failed(Def->getParseFn()(Custom, State)))
      return failure();
    Op = Operation::create(State);
    return success();
  }

  using BlockArgList =
      std::vector<std::pair<CustomOpParser::UnresolvedOperand, Type>>;

  /// Binds the names in \p Args to the arguments of \p B, which must
  /// already hold one argument per entry. Only called once every argument
  /// exists: adding one can move the argument array, so a Value taken
  /// before the last addition would dangle.
  LogicalResult defineBlockArguments(Block *B, const BlockArgList &Args) {
    for (unsigned I = 0, E = Args.size(); I != E; ++I)
      if (failed(defineValue(Args[I].first.Name, B->getArgument(I),
                             Args[I].first.Loc)))
        return failure();
    return success();
  }

  /// Parses `{ ... }` region contents into \p R.
  LogicalResult parseRegionBody(Region &R, const BlockArgList &EntryArgs) {
    if (failed(expect(IRToken::Kind::LBrace, "'{' to begin region")))
      return failure();
    pushScope();

    Block *CurBlock = nullptr;
    if (!EntryArgs.empty()) {
      std::vector<Type> Types;
      for (const auto &Arg : EntryArgs)
        Types.push_back(Arg.second);
      CurBlock = Block::create(Ctx, Types);
      R.push_back(CurBlock);
      if (failed(defineBlockArguments(CurBlock, EntryArgs))) {
        (void)popScope();
        return failure();
      }
    }

    while (!tok().is(IRToken::Kind::RBrace)) {
      if (tok().is(IRToken::Kind::Eof)) {
        (void)popScope();
        return emitError(tok().Loc, "unterminated region");
      }
      if (tok().is(IRToken::Kind::CaretId)) {
        // Labeled block.
        std::string Label = tok().Spelling;
        SMLoc LabelLoc = tok().Loc;
        lex();
        Block *B = getOrCreateBlock(Label);
        Scope &S = Scopes.back();
        if (S.BlockDefined[Label]) {
          (void)popScope();
          return emitError(LabelLoc, "redefinition of block ^" + Label);
        }
        S.BlockDefined[Label] = true;
        R.push_back(B);
        if (consumeIf(IRToken::Kind::LParen)) {
          // A forward successor reference may already have created the
          // block, so its arguments are appended rather than created with
          // it.
          BlockArgList Args;
          if (!tok().is(IRToken::Kind::RParen)) {
            do {
              if (!tok().is(IRToken::Kind::PercentId)) {
                (void)popScope();
                return emitError(tok().Loc, "expected block argument");
              }
              CustomOpParser::UnresolvedOperand Ref{tok().Spelling,
                                                    tok().Loc};
              lex();
              if (failed(expect(IRToken::Kind::Colon,
                                "':' after block argument"))) {
                (void)popScope();
                return failure();
              }
              Type Ty = parseType();
              if (!Ty) {
                (void)popScope();
                return failure();
              }
              Args.emplace_back(std::move(Ref), Ty);
            } while (consumeIf(IRToken::Kind::Comma));
          }
          if (failed(expect(IRToken::Kind::RParen,
                            "')' after block arguments"))) {
            (void)popScope();
            return failure();
          }
          for (const auto &Arg : Args)
            B->addArgument(Arg.second);
          if (failed(defineBlockArguments(B, Args))) {
            (void)popScope();
            return failure();
          }
        }
        if (failed(expect(IRToken::Kind::Colon, "':' after block label"))) {
          (void)popScope();
          return failure();
        }
        CurBlock = B;
        continue;
      }
      if (!CurBlock) {
        CurBlock = Block::create(Ctx);
        R.push_back(CurBlock);
      }
      if (failed(parseOpStatement(CurBlock))) {
        (void)popScope();
        return failure();
      }
    }
    lex(); // consume '}'
    return popScope();
  }

  /// Parses the whole buffer as a module.
  Operation *parseTopLevel() {
    OperationState State(
        Ctx, OperationName(Ctx.resolveOpDef("builtin.module")), tok().Loc);
    Region *R = State.addRegion();
    Block *Body = Block::create(Ctx);
    R->push_back(Body);

    pushScope();
    while (!tok().is(IRToken::Kind::Eof)) {
      if (tok().is(IRToken::Kind::Error)) {
        (void)popScope();
        return nullptr;
      }
      if (failed(parseOpStatement(Body))) {
        (void)popScope();
        return nullptr;
      }
    }
    if (failed(popScope()))
      return nullptr;

    // Unwrap a single explicit module.
    if (Body->getNumOps() == 1) {
      Operation &Only = Body->front();
      if (Only.getDef() &&
          Only.getDef()->getFullName() == "builtin.module") {
        Only.removeFromBlock();
        return &Only;
      }
    }
    return Operation::create(State);
  }

  IRContext &Ctx;
  DiagnosticEngine &Diags;
  IRLexer Lex;
  std::vector<Scope> Scopes;
  std::vector<Operation *> Orphans;
};

} // namespace irdl

//===----------------------------------------------------------------------===//
// CustomOpParser
//===----------------------------------------------------------------------===//

IRContext *CustomOpParser::getContext() { return &Impl.Ctx; }
SMLoc CustomOpParser::getCurrentLoc() { return Impl.tok().Loc; }

LogicalResult CustomOpParser::emitError(SMLoc Loc, std::string Message) {
  return Impl.emitError(Loc, std::move(Message));
}

bool CustomOpParser::consumeIf(IRToken::Kind K) { return Impl.consumeIf(K); }

LogicalResult CustomOpParser::expect(IRToken::Kind K,
                                     std::string_view What) {
  return Impl.expect(K, What);
}

bool CustomOpParser::consumeOptionalKeyword(std::string_view Keyword) {
  if (!Impl.tok().isIdent(Keyword))
    return false;
  Impl.lex();
  return true;
}

LogicalResult CustomOpParser::parseKeyword(std::string_view Keyword) {
  if (consumeOptionalKeyword(Keyword))
    return success();
  return Impl.emitError(Impl.tok().Loc,
                        "expected keyword '" + std::string(Keyword) + "'");
}

LogicalResult CustomOpParser::parseOperand(UnresolvedOperand &Result) {
  if (!parseOptionalOperand(Result))
    return Impl.emitError(Impl.tok().Loc, "expected SSA operand");
  return success();
}

bool CustomOpParser::parseOptionalOperand(UnresolvedOperand &Result) {
  if (!Impl.tok().is(IRToken::Kind::PercentId))
    return false;
  Result.Name = Impl.tok().Spelling;
  Result.Loc = Impl.tok().Loc;
  Impl.lex();
  return true;
}

LogicalResult
CustomOpParser::resolveOperand(const UnresolvedOperand &Operand, Type Ty,
                               std::vector<Value> &Operands) {
  Value V = Impl.resolveValue(Operand.Name, Ty, Operand.Loc);
  if (!V)
    return failure();
  Operands.push_back(V);
  return success();
}

LogicalResult CustomOpParser::parseType(Type &Result) {
  Result = Impl.parseType();
  return Result ? success() : failure();
}

LogicalResult CustomOpParser::parseAttribute(Attribute &Result) {
  Result = Impl.parseAttribute();
  return Result ? success() : failure();
}

LogicalResult CustomOpParser::parseParam(ParamValue &Result) {
  return Impl.parseParam(Result);
}

LogicalResult CustomOpParser::parseOptionalAttrDict(NamedAttrList &Attrs) {
  return Impl.parseOptionalAttrDict(Attrs);
}

LogicalResult CustomOpParser::parseSymbolName(std::string &Result) {
  if (!Impl.tok().is(IRToken::Kind::AtId))
    return Impl.emitError(Impl.tok().Loc, "expected symbol name");
  Result = Impl.tok().Spelling;
  Impl.lex();
  return success();
}

LogicalResult CustomOpParser::parseSuccessor(Block *&Result) {
  if (!Impl.tok().is(IRToken::Kind::CaretId))
    return Impl.emitError(Impl.tok().Loc, "expected successor block");
  Result = Impl.getOrCreateBlock(Impl.tok().Spelling);
  Impl.lex();
  return success();
}

LogicalResult CustomOpParser::parseRegion(
    Region &R,
    const std::vector<std::pair<UnresolvedOperand, Type>> &EntryArgs) {
  return Impl.parseRegionBody(R, EntryArgs);
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

OwningOpRef irdl::parseSourceString(IRContext &Ctx, std::string_view Source,
                                    SourceMgr &SrcMgr,
                                    DiagnosticEngine &Diags,
                                    std::string BufferName) {
  IRDL_TIME_SCOPE("ir-parse");
  ++NumBuffersParsed;
  uint64_t Begin = metricsEnabled() ? steadyNowNs() : 0;
  unsigned Id =
      SrcMgr.addBuffer(std::string(Source), std::move(BufferName));
  if (!Diags.getSourceMgr())
    Diags.setSourceMgr(&SrcMgr);
  IRParserImpl Parser(Ctx, SrcMgr.getBufferContents(Id), Diags);
  Operation *Top = Parser.parseTopLevel();
  if (!Top) {
    Parser.deleteOrphans();
    return OwningOpRef();
  }
  if (metricsEnabled()) {
    // Reader throughput, comparable with the bytecode reader through the
    // shared format label.
    MetricLabels TextLabel{{"format", "text"}};
    static Counter &Bytes = MetricsRegistry::instance().getCounter(
        "irdl_reader_bytes_total", "input bytes consumed by IR readers",
        TextLabel);
    static Counter &Ops = MetricsRegistry::instance().getCounter(
        "irdl_reader_ops_total", "operations materialized by IR readers",
        TextLabel);
    static Histogram &Duration = MetricsRegistry::instance().getHistogram(
        "irdl_reader_duration_ns", "wall time of one IR reader invocation",
        TextLabel);
    Bytes.inc(Source.size());
    uint64_t NumOps = 0;
    Top->walk([&NumOps](Operation *) { ++NumOps; });
    Ops.inc(NumOps);
    Duration.record(steadyNowNs() - Begin);
  }
  return OwningOpRef(Top);
}

Type irdl::parseTypeString(IRContext &Ctx, std::string_view Source,
                           DiagnosticEngine &Diags) {
  IRParserImpl Parser(Ctx, Source, Diags);
  Type T = Parser.parseType();
  if (T && !Parser.tok().is(IRToken::Kind::Eof)) {
    Diags.emitError(Parser.tok().Loc, "unexpected trailing input after type");
    return Type();
  }
  return T;
}

Attribute irdl::parseAttrString(IRContext &Ctx, std::string_view Source,
                                DiagnosticEngine &Diags) {
  IRParserImpl Parser(Ctx, Source, Diags);
  Attribute A = Parser.parseAttribute();
  if (A && !Parser.tok().is(IRToken::Kind::Eof)) {
    Diags.emitError(Parser.tok().Loc,
                    "unexpected trailing input after attribute");
    return Attribute();
  }
  return A;
}
