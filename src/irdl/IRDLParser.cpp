//===- IRDLParser.cpp -----------------------------------------------===//
//
// The parser builds the view-based AST of IRDLAst.h without a heap
// allocation per token, node or list: nodes are placed in the
// ParsedIRDL's bump storage, each list is gathered on a scratch stack and
// copied out to the storage once complete (so nested lists never
// interleave), and diagnostic messages are built only on failure.
//
//===----------------------------------------------------------------------===//

#include "irdl/IRDLParser.h"

#include "ir/IRLexer.h"
#include "ir/IRParser.h"
#include "support/LogicalResult.h"
#include "support/StringExtras.h"

#include <type_traits>
#include <vector>

using namespace irdl;
using namespace irdl::ast;

namespace {

class IRDLParserImpl {
public:
  IRDLParserImpl(std::string_view Source, DiagnosticEngine &Diags)
      : Diags(Diags), Lex(Source, Diags), Source(Source) {
    // The tree of a typical spec takes a few times its text; larger
    // trees grow the storage geometrically.
    Result.Storage = std::make_unique<std::pmr::monotonic_buffer_resource>(
        std::max<size_t>(1024, Source.size() * 4));
  }

  ParsedIRDL parseTopLevel() {
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
      DialectStack.push_back(D);
    }
    Result.Dialects = keep(DialectStack, 0);
    return std::move(Result);
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

  /// Consumes a \p K token, or reports "expected <What><Suffix>".
  LogicalResult expect(IRToken::Kind K, std::string_view What,
                       std::string_view Suffix = {}) {
    if (consumeIf(K))
      return success();
    return error(tok().Loc,
                 "expected " + std::string(What) + std::string(Suffix));
  }

  LogicalResult error(SMLoc Loc, std::string Message) {
    Diags.emitError(Loc, std::move(Message));
    return failure();
  }

  //===------------------------------------------------------------------===//
  // Storage
  //===------------------------------------------------------------------===//

  template <typename T> T *make() {
    static_assert(std::is_trivially_destructible_v<T>);
    return new (Result.Storage->allocate(sizeof(T), alignof(T))) T();
  }

  /// Moves the entries of \p Stack above \p Base into the storage and pops
  /// them.
  template <typename T>
  std::span<const T> keep(std::vector<T> &Stack, size_t Base) {
    static_assert(std::is_trivially_destructible_v<T> &&
                  std::is_trivially_copyable_v<T>);
    size_t N = Stack.size() - Base;
    if (N == 0)
      return {};
    T *Out = static_cast<T *>(
        Result.Storage->allocate(N * sizeof(T), alignof(T)));
    std::uninitialized_copy(Stack.begin() + Base, Stack.end(), Out);
    Stack.erase(Stack.begin() + Base, Stack.end());
    return {Out, N};
  }

  /// The current string token's body, as a view that outlives the lexer:
  /// the source text, or a stored copy of an unescaped body.
  std::string_view stringBody() {
    std::string_view Body = tok().Spelling;
    if (Body.empty() || (Body.data() >= Source.data() &&
                         Body.data() < Source.data() + Source.size()))
      return Body;
    char *Copy = static_cast<char *>(Result.Storage->allocate(Body.size(), 1));
    std::copy(Body.begin(), Body.end(), Copy);
    return {Copy, Body.size()};
  }

  //===------------------------------------------------------------------===//
  // Names and strings
  //===------------------------------------------------------------------===//

  /// Parses a plain identifier; fails with a message naming \p What.
  LogicalResult parseIdent(std::string_view &Result, std::string_view What,
                           std::string_view Suffix = {}) {
    if (!tok().is(IRToken::Kind::Identifier))
      return error(tok().Loc,
                   "expected " + std::string(What) + std::string(Suffix));
    Result = tok().Spelling;
    lex();
    return success();
  }

  /// Parses `a.b.c`, appending its segments to \p Path.
  LogicalResult parseDottedPath(ast::Path &Path, std::string_view What) {
    size_t Base = Names.size();
    Names.insert(Names.end(), Path.begin(), Path.end());
    std::string_view Segment;
    if (failed(parseIdent(Segment, What)))
      return failure();
    Names.push_back(Segment);
    while (consumeIf(IRToken::Kind::Dot)) {
      if (failed(parseIdent(Segment, "identifier after '.'")))
        return failure();
      Names.push_back(Segment);
    }
    Path = keep(Names, Base);
    return success();
  }

  /// Parses a quoted string following a directive keyword.
  LogicalResult parseDirectiveString(std::string_view &Result,
                                     std::string_view Directive) {
    if (!tok().is(IRToken::Kind::String))
      return error(tok().Loc, "expected string literal after '" +
                                  std::string(Directive) + "'");
    Result = stringBody();
    lex();
    return success();
  }

  //===------------------------------------------------------------------===//
  // Constraint expressions
  //===------------------------------------------------------------------===//

  /// Parses the comma-separated expressions of \p Expr's argument or
  /// element list, up to (not including) \p Close.
  LogicalResult parseExprList(ConstraintExpr &Expr, IRToken::Kind Close,
                              unsigned Depth) {
    if (tok().is(Close))
      return success();
    size_t Base = Exprs.size();
    do {
      const ConstraintExpr *Elem;
      if (failed(parseConstraintExpr(Elem, Depth + 1)))
        return failure();
      Exprs.push_back(Elem);
    } while (consumeIf(IRToken::Kind::Comma));
    Expr.Args = keep(Exprs, Base);
    return success();
  }

  /// Parses one expression at nesting level \p Depth (1 at the top).
  LogicalResult parseConstraintExpr(const ConstraintExpr *&Result,
                                    unsigned Depth = 1) {
    if (Depth > MaxNestingDepth)
      return error(tok().Loc, "constraints nested deeper than " +
                                  std::to_string(MaxNestingDepth));
    ConstraintExpr *Expr = make<ConstraintExpr>();
    Expr->Loc = tok().Loc;
    Result = Expr;

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
      return success();
    }

    if (tok().is(IRToken::Kind::String)) {
      Expr->K = ConstraintExpr::Kind::StrLit;
      Expr->StrValue = stringBody();
      lex();
      return success();
    }

    // [pc1, ..., pcN]
    if (consumeIf(IRToken::Kind::LSquare)) {
      Expr->K = ConstraintExpr::Kind::ArrayExact;
      if (failed(parseExprList(*Expr, IRToken::Kind::RSquare, Depth)))
        return failure();
      return expect(IRToken::Kind::RSquare, "']' in array constraint");
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
      if (failed(parseExprList(*Expr, IRToken::Kind::Greater, Depth)))
        return failure();
      return expect(IRToken::Kind::Greater, "'>' in constraint arguments");
    }
    return success();
  }

  /// Parses `(name: expr, ...)`, appending to \p Out (a directive may be
  /// repeated); when \p AllowSigilNames, names may be prefixed with ! or
  /// # (ConstraintVar declarations).
  LogicalResult parseNamedConstraintList(NamedConstraintList &Out,
                                         std::string_view What,
                                         bool AllowSigilNames = false) {
    if (failed(expect(IRToken::Kind::LParen, "'(' after ", What)))
      return failure();
    if (consumeIf(IRToken::Kind::RParen))
      return success();
    size_t Base = Named.size();
    Named.insert(Named.end(), Out.begin(), Out.end());
    do {
      NamedConstraint NC;
      NC.Loc = tok().Loc;
      if (AllowSigilNames)
        (void)(consumeIf(IRToken::Kind::Bang) ||
               consumeIf(IRToken::Kind::Hash));
      if (failed(parseIdent(NC.Name, "name in ", What)))
        return failure();
      if (failed(expect(IRToken::Kind::Colon, "':' after name")))
        return failure();
      if (failed(parseConstraintExpr(NC.Constr)))
        return failure();
      Named.push_back(NC);
    } while (consumeIf(IRToken::Kind::Comma));
    Out = keep(Named, Base);
    return expect(IRToken::Kind::RParen, "')' after ", What);
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

  LogicalResult parseSuccessors(OpDecl &Decl) {
    if (failed(expect(IRToken::Kind::LParen, "'(' after Successors")))
      return failure();
    Decl.Successors.emplace();
    if (consumeIf(IRToken::Kind::RParen))
      return success();
    size_t Base = Names.size();
    do {
      std::string_view Name;
      if (failed(parseIdent(Name, "successor name")))
        return failure();
      Names.push_back(Name);
    } while (consumeIf(IRToken::Kind::Comma));
    *Decl.Successors = keep(Names, Base);
    return expect(IRToken::Kind::RParen, "')' after successors");
  }

  LogicalResult parseOperation(OpDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Operation'
    if (failed(parseIdent(Decl.Name, "operation name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin operation")))
      return failure();
    size_t RegionBase = Regions.size();
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
        Regions.push_back(R);
      } else if (tok().isIdent("Successors")) {
        lex();
        if (failed(parseSuccessors(Decl)))
          return failure();
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
    Decl.Regions = keep(Regions, RegionBase);
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
      size_t Base = Names.size();
      do {
        std::string_view Param;
        // Parameters may themselves carry a sigil (ignored).
        (void)(consumeIf(IRToken::Kind::Bang) ||
               consumeIf(IRToken::Kind::Hash));
        if (failed(parseIdent(Param, "alias parameter")))
          return failure();
        Names.push_back(Param);
      } while (consumeIf(IRToken::Kind::Comma));
      Decl.Params = keep(Names, Base);
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
      size_t Base = Names.size();
      do {
        std::string_view Case;
        if (failed(parseIdent(Case, "enum constructor")))
          return failure();
        Names.push_back(Case);
      } while (consumeIf(IRToken::Kind::Comma));
      Decl.Cases = keep(Names, Base);
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
      std::string_view *Target = nullptr;
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

  /// Parses one declaration of kind \p T with \p Parse onto \p Stack.
  template <typename T, typename ParseFn>
  LogicalResult parseInto(std::vector<T> &Stack, ParseFn Parse) {
    T D;
    if (failed(Parse(D)))
      return failure();
    Stack.push_back(D);
    return success();
  }

  LogicalResult parseDialect(DialectDecl &Decl) {
    Decl.Loc = tok().Loc;
    lex(); // consume 'Dialect'
    if (failed(parseIdent(Decl.Name, "dialect name")) ||
        failed(expect(IRToken::Kind::LBrace, "'{' to begin dialect")))
      return failure();
    while (!consumeIf(IRToken::Kind::RBrace)) {
      LogicalResult R = failure();
      if (tok().isIdent("Type") || tok().isIdent("Attribute")) {
        bool IsAttr = tok().isIdent("Attribute");
        R = parseInto(TypesAndAttrs, [&](TypeOrAttrDecl &D) {
          return parseTypeOrAttr(D, IsAttr);
        });
      } else if (tok().isIdent("Operation")) {
        R = parseInto(Ops, [&](OpDecl &D) { return parseOperation(D); });
      } else if (tok().isIdent("Alias")) {
        R = parseInto(Aliases, [&](AliasDecl &D) { return parseAlias(D); });
      } else if (tok().isIdent("Enum")) {
        R = parseInto(Enums, [&](EnumDecl &D) { return parseEnum(D); });
      } else if (tok().isIdent("Constraint")) {
        R = parseInto(Constraints, [&](ConstraintDecl &D) {
          return parseConstraintDecl(D);
        });
      } else if (tok().isIdent("TypeOrAttrParam")) {
        R = parseInto(ParamTypes, [&](TypeOrAttrParamDecl &D) {
          return parseTypeOrAttrParam(D);
        });
      } else {
        return error(tok().Loc, "unknown directive in dialect body");
      }
      if (failed(R))
        return failure();
    }
    Decl.TypesAndAttrs = keep(TypesAndAttrs, 0);
    Decl.Ops = keep(Ops, 0);
    Decl.Aliases = keep(Aliases, 0);
    Decl.Enums = keep(Enums, 0);
    Decl.Constraints = keep(Constraints, 0);
    Decl.ParamTypes = keep(ParamTypes, 0);
    return success();
  }

  DiagnosticEngine &Diags;
  IRLexer Lex;
  std::string_view Source;
  ParsedIRDL Result;

  // Scratch stacks: each list is gathered here and kept once complete.
  std::vector<const ConstraintExpr *> Exprs;
  std::vector<std::string_view> Names;
  std::vector<NamedConstraint> Named;
  std::vector<RegionDecl> Regions;
  std::vector<DialectDecl> DialectStack;
  std::vector<TypeOrAttrDecl> TypesAndAttrs;
  std::vector<OpDecl> Ops;
  std::vector<AliasDecl> Aliases;
  std::vector<EnumDecl> Enums;
  std::vector<ConstraintDecl> Constraints;
  std::vector<TypeOrAttrParamDecl> ParamTypes;
};

} // namespace

ParsedIRDL irdl::parseIRDL(std::string_view Source, DiagnosticEngine &Diags) {
  return IRDLParserImpl(Source, Diags).parseTopLevel();
}
