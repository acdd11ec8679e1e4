//===- IRDLParser.cpp -----------------------------------------------===//

#include "irdl/IRDLParser.h"

#include "ir/IRLexer.h"
#include "support/LogicalResult.h"
#include "support/StringExtras.h"

using namespace irdl;
using namespace irdl::ast;

namespace {

class IRDLParserImpl {
public:
  IRDLParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Diags(Diags), Lex(Source, Diags) {}

  std::vector<DialectDecl> parseTopLevel() {
    std::vector<DialectDecl> Dialects;
    while (!tok().is(IRToken::Kind::Eof)) {
      if (tok().is(IRToken::Kind::Error))
        return {};
      if (!tok().isIdent("Dialect")) {
        error(tok().Loc, "expected 'Dialect' at top level");
        return {};
      }
      DialectDecl D;
      if (failed(parseDialect(D)))
        return {};
      Dialects.push_back(std::move(D));
    }
    return Dialects;
  }

private:
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
    return error(tok().Loc, "expected " + std::string(What));
  }

  LogicalResult error(SMLoc Loc, std::string Message) {
    Diags.emitError(Loc, std::move(Message));
    return failure();
  }

  /// Parses a plain identifier; fails with a message naming \p What.
  LogicalResult parseIdent(std::string &Result, std::string_view What) {
    if (!tok().is(IRToken::Kind::Identifier))
      return error(tok().Loc, "expected " + std::string(What));
    Result = tok().Spelling;
    lex();
    return success();
  }

  /// Parses `a.b.c`.
  LogicalResult parseDottedPath(std::vector<std::string> &Path,
                                std::string_view What) {
    std::string First;
    if (failed(parseIdent(First, What)))
      return failure();
    Path.push_back(std::move(First));
    while (consumeIf(IRToken::Kind::Dot)) {
      std::string Next;
      if (failed(parseIdent(Next, "identifier after '.'")))
        return failure();
      Path.push_back(std::move(Next));
    }
    return success();
  }

  /// Parses a quoted string following a directive keyword.
  LogicalResult parseDirectiveString(std::string &Result,
                                     std::string_view Directive) {
    if (!tok().is(IRToken::Kind::String))
      return error(tok().Loc, "expected string literal after '" +
                                  std::string(Directive) + "'");
    Result = tok().Spelling;
    lex();
    return success();
  }

  //===------------------------------------------------------------------===//
  // Constraint expressions
  //===------------------------------------------------------------------===//

  LogicalResult parseConstraintExpr(ConstraintExprPtr &Result) {
    auto Expr = std::make_unique<ConstraintExpr>();
    Expr->Loc = tok().Loc;

    // Literals.
    if (tok().is(IRToken::Kind::Minus) ||
        tok().is(IRToken::Kind::Integer) ||
        tok().is(IRToken::Kind::Float)) {
      bool Negative = consumeIf(IRToken::Kind::Minus);
      if (tok().is(IRToken::Kind::Integer)) {
        auto V = parseUInt(tok().Spelling);
        std::optional<int64_t> SV =
            V ? applySign(*V, Negative) : std::nullopt;
        if (!SV)
          return error(tok().Loc, "integer literal out of range");
        Expr->K = ConstraintExpr::Kind::IntLit;
        Expr->IntValue = *SV;
        lex();
      } else if (tok().is(IRToken::Kind::Float)) {
        Expr->K = ConstraintExpr::Kind::FloatLit;
        Expr->FloatValue = parseDouble(tok().Spelling);
        if (Negative)
          Expr->FloatValue = -Expr->FloatValue;
        lex();
      } else {
        return error(tok().Loc, "expected numeric literal after '-'");
      }
      // Optional kind annotation: `3 : int32_t`.
      if (consumeIf(IRToken::Kind::Colon))
        if (failed(parseDottedPath(Expr->KindRef, "literal kind")))
          return failure();
      Result = std::move(Expr);
      return success();
    }

    if (tok().is(IRToken::Kind::String)) {
      Expr->K = ConstraintExpr::Kind::StrLit;
      Expr->StrValue = tok().Spelling;
      lex();
      Result = std::move(Expr);
      return success();
    }

    // [pc1, ..., pcN]
    if (consumeIf(IRToken::Kind::LSquare)) {
      Expr->K = ConstraintExpr::Kind::ArrayExact;
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          ConstraintExprPtr Elem;
          if (failed(parseConstraintExpr(Elem)))
            return failure();
          Expr->Args.push_back(std::move(Elem));
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare,
                        "']' in array constraint")))
        return failure();
      Result = std::move(Expr);
      return success();
    }

    // [!|#] path [<args>]
    Expr->K = ConstraintExpr::Kind::Ref;
    if (consumeIf(IRToken::Kind::Bang))
      Expr->Sigil = '!';
    else if (consumeIf(IRToken::Kind::Hash))
      Expr->Sigil = '#';
    if (failed(parseDottedPath(Expr->Path, "constraint")))
      return failure();
    if (consumeIf(IRToken::Kind::Less)) {
      Expr->HasArgs = true;
      if (!tok().is(IRToken::Kind::Greater)) {
        do {
          ConstraintExprPtr Arg;
          if (failed(parseConstraintExpr(Arg)))
            return failure();
          Expr->Args.push_back(std::move(Arg));
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::Greater,
                        "'>' in constraint arguments")))
        return failure();
    }
    Result = std::move(Expr);
    return success();
  }

  /// Parses `(name: expr, ...)`; when \p AllowSigilNames, names may be
  /// prefixed with ! or # (ConstraintVar declarations).
  LogicalResult parseNamedConstraintList(std::vector<NamedConstraint> &Out,
                                         std::string_view What,
                                         bool AllowSigilNames = false) {
    if (failed(expect(IRToken::Kind::LParen,
                      "'(' after " + std::string(What))))
      return failure();
    if (consumeIf(IRToken::Kind::RParen))
      return success();
    do {
      NamedConstraint NC;
      NC.Loc = tok().Loc;
      if (AllowSigilNames)
        (void)(consumeIf(IRToken::Kind::Bang) ||
               consumeIf(IRToken::Kind::Hash));
      if (failed(parseIdent(NC.Name, "name in " + std::string(What))))
        return failure();
      if (failed(expect(IRToken::Kind::Colon, "':' after name")))
        return failure();
      if (failed(parseConstraintExpr(NC.Constr)))
        return failure();
      Out.push_back(std::move(NC));
    } while (consumeIf(IRToken::Kind::Comma));
    return expect(IRToken::Kind::RParen,
                  "')' after " + std::string(What));
  }

  //===------------------------------------------------------------------===//
  // Declarations
  //===------------------------------------------------------------------===//

  LogicalResult parseTypeOrAttr(TypeOrAttrDecl &Decl, bool IsAttr) {
    Decl.IsAttr = IsAttr;
    Decl.Loc = tok().Loc;
    lex(); // consume 'Type' / 'Attribute'
    if (failed(parseIdent(Decl.Name, IsAttr ? "attribute name"
                                            : "type name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin definition")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      if (tok().isIdent("Parameters")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.Params, "Parameters")))
          return failure();
      } else if (tok().isIdent("Summary")) {
        lex();
        if (failed(parseDirectiveString(Decl.Summary, "Summary")))
          return failure();
      } else if (tok().isIdent("CppConstraint")) {
        lex();
        Decl.HasCppConstraint = true;
        if (failed(parseDirectiveString(Decl.CppConstraint,
                                        "CppConstraint")))
          return failure();
      } else {
        return error(tok().Loc,
                     "expected Parameters, Summary, or CppConstraint");
      }
    }
    return success();
  }

  LogicalResult parseRegionDecl(RegionDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Region'
    if (failed(parseIdent(Decl.Name, "region name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin region")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      if (tok().isIdent("Arguments")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.Args, "Arguments")))
          return failure();
      } else if (tok().isIdent("Terminator")) {
        lex();
        if (failed(parseDottedPath(Decl.Terminator, "terminator op name")))
          return failure();
      } else {
        return error(tok().Loc, "expected Arguments or Terminator");
      }
    }
    return success();
  }

  LogicalResult parseOperation(OpDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Operation'
    if (failed(parseIdent(Decl.Name, "operation name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin operation")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      if (tok().isIdent("ConstraintVar") || tok().isIdent("ConstraintVars")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.ConstraintVars,
                                            "ConstraintVars",
                                            /*AllowSigilNames=*/true)))
          return failure();
      } else if (tok().isIdent("Operands")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.Operands, "Operands")))
          return failure();
      } else if (tok().isIdent("Results")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.Results, "Results")))
          return failure();
      } else if (tok().isIdent("Attributes")) {
        lex();
        if (failed(parseNamedConstraintList(Decl.Attributes, "Attributes")))
          return failure();
      } else if (tok().isIdent("Region")) {
        RegionDecl R;
        if (failed(parseRegionDecl(R)))
          return failure();
        Decl.Regions.push_back(std::move(R));
      } else if (tok().isIdent("Successors")) {
        lex();
        Decl.Successors.emplace();
        if (failed(expect(IRToken::Kind::LParen, "'(' after Successors")))
          return failure();
        if (!consumeIf(IRToken::Kind::RParen)) {
          do {
            std::string Name;
            if (failed(parseIdent(Name, "successor name")))
              return failure();
            Decl.Successors->push_back(std::move(Name));
          } while (consumeIf(IRToken::Kind::Comma));
          if (failed(expect(IRToken::Kind::RParen,
                            "')' after successors")))
            return failure();
        }
      } else if (tok().isIdent("Format")) {
        lex();
        Decl.HasFormat = true;
        if (failed(parseDirectiveString(Decl.Format, "Format")))
          return failure();
      } else if (tok().isIdent("Summary")) {
        lex();
        if (failed(parseDirectiveString(Decl.Summary, "Summary")))
          return failure();
      } else if (tok().isIdent("CppConstraint")) {
        lex();
        Decl.HasCppConstraint = true;
        if (failed(parseDirectiveString(Decl.CppConstraint,
                                        "CppConstraint")))
          return failure();
      } else {
        return error(tok().Loc, "unknown directive in operation body");
      }
    }
    return success();
  }

  LogicalResult parseAlias(AliasDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Alias'
    if (consumeIf(IRToken::Kind::Bang))
      Decl.Sigil = '!';
    else if (consumeIf(IRToken::Kind::Hash))
      Decl.Sigil = '#';
    if (failed(parseIdent(Decl.Name, "alias name")))
      return failure();
    if (consumeIf(IRToken::Kind::Less)) {
      do {
        std::string Param;
        // Parameters may themselves carry a sigil (ignored).
        (void)(consumeIf(IRToken::Kind::Bang) ||
               consumeIf(IRToken::Kind::Hash));
        if (failed(parseIdent(Param, "alias parameter")))
          return failure();
        Decl.Params.push_back(std::move(Param));
      } while (consumeIf(IRToken::Kind::Comma));
      if (failed(expect(IRToken::Kind::Greater,
                        "'>' after alias parameters")))
        return failure();
    }
    if (failed(expect(IRToken::Kind::Equal, "'=' in alias definition")))
      return failure();
    return parseConstraintExpr(Decl.Body);
  }

  LogicalResult parseEnum(EnumDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Enum'
    if (failed(parseIdent(Decl.Name, "enum name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin enum")))
      return failure();
    if (!consumeIf(IRToken::Kind::RBrace)) {
      do {
        std::string Case;
        if (failed(parseIdent(Case, "enum constructor")))
          return failure();
        Decl.Cases.push_back(std::move(Case));
      } while (consumeIf(IRToken::Kind::Comma));
      if (failed(expect(IRToken::Kind::RBrace, "'}' after enum cases")))
        return failure();
    }
    return success();
  }

  LogicalResult parseConstraintDecl(ConstraintDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Constraint'
    if (failed(parseIdent(Decl.Name, "constraint name")) ||
        failed(expect(IRToken::Kind::Colon,
                      "':' before base constraint")) ||
        failed(parseConstraintExpr(Decl.Base)) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin constraint")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      if (tok().isIdent("Summary")) {
        lex();
        if (failed(parseDirectiveString(Decl.Summary, "Summary")))
          return failure();
      } else if (tok().isIdent("CppConstraint")) {
        lex();
        Decl.HasCppConstraint = true;
        if (failed(parseDirectiveString(Decl.CppConstraint,
                                        "CppConstraint")))
          return failure();
      } else {
        return error(tok().Loc, "expected Summary or CppConstraint");
      }
    }
    return success();
  }

  LogicalResult parseTypeOrAttrParam(TypeOrAttrParamDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'TypeOrAttrParam'
    if (failed(parseIdent(Decl.Name, "parameter kind name")) ||
        failed(expect(IRToken::Kind::LBrace,
                      "'{' to begin parameter kind")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      std::string *Target = nullptr;
      if (tok().isIdent("Summary"))
        Target = &Decl.Summary;
      else if (tok().isIdent("CppClassName"))
        Target = &Decl.CppClassName;
      else if (tok().isIdent("CppParser"))
        Target = &Decl.CppParser;
      else if (tok().isIdent("CppPrinter"))
        Target = &Decl.CppPrinter;
      else
        return error(tok().Loc, "expected Summary, CppClassName, "
                                "CppParser, or CppPrinter");
      std::string_view Directive = tok().Spelling;
      lex();
      if (failed(parseDirectiveString(*Target, Directive)))
        return failure();
    }
    return success();
  }

  LogicalResult parseDialect(DialectDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Dialect'
    if (failed(parseIdent(Decl.Name, "dialect name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin dialect")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      if (tok().isIdent("Type") || tok().isIdent("Attribute")) {
        TypeOrAttrDecl D;
        if (failed(parseTypeOrAttr(D, tok().isIdent("Attribute"))))
          return failure();
        Decl.TypesAndAttrs.push_back(std::move(D));
      } else if (tok().isIdent("Operation")) {
        OpDecl D;
        if (failed(parseOperation(D)))
          return failure();
        Decl.Ops.push_back(std::move(D));
      } else if (tok().isIdent("Alias")) {
        AliasDecl D;
        if (failed(parseAlias(D)))
          return failure();
        Decl.Aliases.push_back(std::move(D));
      } else if (tok().isIdent("Enum")) {
        EnumDecl D;
        if (failed(parseEnum(D)))
          return failure();
        Decl.Enums.push_back(std::move(D));
      } else if (tok().isIdent("Constraint")) {
        ConstraintDecl D;
        if (failed(parseConstraintDecl(D)))
          return failure();
        Decl.Constraints.push_back(std::move(D));
      } else if (tok().isIdent("TypeOrAttrParam")) {
        TypeOrAttrParamDecl D;
        if (failed(parseTypeOrAttrParam(D)))
          return failure();
        Decl.ParamTypes.push_back(std::move(D));
      } else {
        return error(tok().Loc, "unknown directive in dialect body");
      }
    }
    return success();
  }

  DiagnosticEngine &Diags;
  IRLexer Lex;
};

} // namespace

std::vector<DialectDecl> irdl::parseIRDL(std::string_view Source,
                                         DiagnosticEngine &Diags) {
  return IRDLParserImpl(Source, Diags).parseTopLevel();
}
