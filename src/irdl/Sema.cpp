//===- Sema.cpp - IRDL name resolution and constraint lowering --------===//

#include "irdl/Sema.h"

#include "ir/IRParser.h"
#include "support/StringExtras.h"

#include <algorithm>

using namespace irdl;
using namespace irdl::ast;

//===----------------------------------------------------------------------===//
// Pass 1: skeleton declarations
//===----------------------------------------------------------------------===//

Sema::DialectTables *Sema::lookupTables(std::string_view DialectName) {
  auto It = Tables.find(DialectName);
  return It == Tables.end() ? nullptr : &It->second;
}

LogicalResult Sema::declareDialect(const DialectDecl &Decl) {
  // A dialect may extend one already registered natively in the context
  // (component name clashes are diagnosed below), but declaring the same
  // dialect twice in one load is an error.
  if (Tables.count(Decl.Name)) {
    Diags.emitError(Decl.Loc, "redefinition of dialect '" +
                                  std::string(Decl.Name) + "'");
    return failure();
  }
  Dialect *D = Ctx.getOrCreateDialect(Decl.Name);
  DialectTables &T = Tables[Decl.Name];
  T.Decl = &Decl;
  T.D = D;

  for (const EnumDecl &E : Decl.Enums) {
    if (!D->addEnum(E.Name, E.Cases)) {
      Diags.emitError(E.Loc, "redefinition of enum '" + std::string(E.Name) +
                                 "'");
      return failure();
    }
  }
  for (const TypeOrAttrDecl &TA : Decl.TypesAndAttrs) {
    TypeOrAttrDefinitionBase *Def;
    if (TA.IsAttr)
      Def = D->addAttr(TA.Name);
    else
      Def = D->addType(TA.Name);
    if (!Def) {
      Diags.emitError(TA.Loc, std::string("redefinition of ") +
                                  (TA.IsAttr ? "attribute" : "type") +
                                  " '" + std::string(TA.Name) + "'");
      return failure();
    }
    NameScratch.clear();
    for (const NamedConstraint &P : TA.Params)
      NameScratch.push_back(P.Name);
    Def->setParamNames(NameScratch);
  }
  for (const OpDecl &Op : Decl.Ops) {
    if (!D->addOp(Op.Name)) {
      Diags.emitError(Op.Loc, "redefinition of operation '" +
                                  std::string(Op.Name) + "'");
      return failure();
    }
  }
  for (const AliasDecl &A : Decl.Aliases) {
    if (!T.Aliases.emplace(A.Name, &A).second) {
      Diags.emitError(A.Loc, "redefinition of alias '" +
                                 std::string(A.Name) + "'");
      return failure();
    }
  }
  for (const ConstraintDecl &C : Decl.Constraints) {
    if (!T.Constraints.emplace(C.Name, &C).second) {
      Diags.emitError(C.Loc, "redefinition of constraint '" +
                                 std::string(C.Name) + "'");
      return failure();
    }
  }
  for (const TypeOrAttrParamDecl &P : Decl.ParamTypes) {
    if (!T.ParamTypes.emplace(P.Name, &P).second) {
      Diags.emitError(P.Loc, "redefinition of parameter kind '" +
                                 std::string(P.Name) + "'");
      return failure();
    }
  }
  return success();
}

//===----------------------------------------------------------------------===//
// Constraint resolution
//===----------------------------------------------------------------------===//

namespace {

/// The kinds of Sema::LeafKey.
enum LeafKind : unsigned {
  LeafAnyType,
  LeafAnyAttr,
  LeafAnyParam,
  LeafStringKind,
  LeafIntKind,
  LeafFloatKind,
  LeafIntEq,
  LeafEnumKind,
  LeafEnumEq,
  LeafBaseType,
  LeafBaseAttr,
  LeafTypeSugar,
  LeafFloatAttrSugar,
};

std::string joinPath(ast::Path Path) {
  std::string Joined;
  for (size_t I = 0; I != Path.size(); ++I) {
    if (I)
      Joined += '.';
    Joined += Path[I];
  }
  return Joined;
}

} // namespace

namespace irdl {

/// Resolves constraint expressions within one lexical scope.
class ConstraintResolver {
public:
  ConstraintResolver(Sema &S, Sema::DialectTables &Current)
      : S(S), Current(Current) {}

  /// Variable names visible in the current operation, if any, and the
  /// operation's shared reference node for each (null until first use).
  std::span<const std::string_view> VarNames;
  std::vector<ConstraintPtr> *VarNodes = nullptr;
  /// Substitution environment during alias expansion, in parameter order.
  const std::vector<std::pair<std::string_view, ConstraintPtr>> *AliasEnv =
      nullptr;
  /// Alias expansion depth guard.
  unsigned Depth = 0;
  /// Level in the resolved tree of the expression being resolved, 1 at
  /// the root of a slot's constraint. Alias bodies resolve at the level
  /// of their use, so no resolved tree is deeper than MaxNestingDepth.
  unsigned Level = 1;

  ConstraintPtr resolve(const ConstraintExpr &E) {
    if (Level > MaxNestingDepth)
      return tooDeep(E.Loc);
    ConstraintPtr C = resolveExpr(E);
    // A subtree resolved elsewhere (an alias argument, a named
    // constraint, a builtin's expansion) may reach deeper than the text.
    if (C && Level - 1 + C->getHeight() > MaxNestingDepth)
      return tooDeep(E.Loc);
    return C;
  }

private:
  DiagnosticEngine &diags() { return S.Diags; }

  ConstraintPtr error(SMLoc Loc, std::string Message) {
    diags().emitError(Loc, std::move(Message));
    return nullptr;
  }

  ConstraintPtr tooDeep(SMLoc Loc) {
    return error(Loc, "constraints nested deeper than " +
                          std::to_string(MaxNestingDepth));
  }

  /// The load's shared leaf for \p Key, made by \p Make the first time.
  template <typename MakeFn>
  ConstraintPtr leaf(unsigned Kind, const void *Def, int64_t Value,
                     unsigned Bits, MakeFn Make) {
    auto [It, Inserted] = S.Leaves.try_emplace({Kind, Bits, Def, Value});
    if (Inserted)
      It->second = Make();
    return It->second;
  }

  ConstraintPtr resolveExpr(const ConstraintExpr &E) {
    switch (E.K) {
    case ConstraintExpr::Kind::IntLit:
      return resolveIntLit(E);
    case ConstraintExpr::Kind::FloatLit:
      return resolveFloatLit(E);
    case ConstraintExpr::Kind::StrLit:
      return Constraint::stringEq(S.Store, E.StrValue);
    case ConstraintExpr::Kind::ArrayExact: {
      size_t Base = S.ArgStack.size();
      if (!resolveArgs(E))
        return nullptr;
      return Constraint::arrayExact(S.Store, popArgs(Base));
    }
    case ConstraintExpr::Kind::Ref:
      return resolveRef(E);
    }
    return nullptr;
  }

  /// Resolves \p E one level below the current expression.
  ConstraintPtr resolveChild(const ConstraintExpr &E) {
    ++Level;
    ConstraintPtr C = resolve(E);
    --Level;
    return C;
  }

  /// Interprets `int32_t`-family names. Returns (width, sign) on match.
  static std::optional<std::pair<unsigned, Signedness>>
  matchIntKindName(std::string_view Name) {
    Signedness Sign = Signedness::Signed;
    std::string_view Rest = Name;
    if (startsWith(Rest, "uint")) {
      Sign = Signedness::Unsigned;
      Rest = Rest.substr(4);
    } else if (startsWith(Rest, "int")) {
      Rest = Rest.substr(3);
    } else {
      return std::nullopt;
    }
    if (Rest.size() < 3 || Rest.substr(Rest.size() - 2) != "_t")
      return std::nullopt;
    auto Width = parseUInt(Rest.substr(0, Rest.size() - 2));
    if (!Width || (*Width != 8 && *Width != 16 && *Width != 32 &&
                   *Width != 64))
      return std::nullopt;
    return std::make_pair(static_cast<unsigned>(*Width), Sign);
  }

  /// Interprets `float32_t` / `float64_t` / `float`.
  static std::optional<unsigned> matchFloatKindName(std::string_view Name) {
    if (Name == "float")
      return 0u;
    if (Name == "float16_t")
      return 16u;
    if (Name == "float32_t")
      return 32u;
    if (Name == "float64_t")
      return 64u;
    return std::nullopt;
  }

  ConstraintPtr resolveIntLit(const ConstraintExpr &E) {
    unsigned Width = 64;
    Signedness Sign = Signedness::Signed;
    if (!E.KindRef.empty()) {
      if (E.KindRef.size() != 1)
        return error(E.Loc, "invalid literal kind");
      if (auto IK = matchIntKindName(E.KindRef[0])) {
        Width = IK->first;
        Sign = IK->second;
      } else if (auto FK = matchFloatKindName(E.KindRef[0])) {
        return Constraint::floatEq(S.Store, FloatVal{
            static_cast<uint16_t>(*FK ? *FK : 64),
            static_cast<double>(E.IntValue)});
      } else {
        return error(E.Loc, "unknown literal kind '" +
                                std::string(E.KindRef[0]) + "'");
      }
    }
    IntVal V{static_cast<uint16_t>(Width), Sign, E.IntValue};
    return leaf(LeafIntEq, nullptr, V.Value,
                Width * 4 + static_cast<unsigned>(Sign),
                [&] { return Constraint::intEq(S.Store, V); });
  }

  ConstraintPtr resolveFloatLit(const ConstraintExpr &E) {
    unsigned Width = 64;
    if (!E.KindRef.empty()) {
      if (E.KindRef.size() != 1)
        return error(E.Loc, "invalid literal kind");
      auto FK = matchFloatKindName(E.KindRef[0]);
      if (!FK)
        return error(E.Loc, "unknown float kind '" +
                                std::string(E.KindRef[0]) + "'");
      if (*FK)
        Width = *FK;
    }
    return Constraint::floatEq(
        S.Store, FloatVal{static_cast<uint16_t>(Width), E.FloatValue});
  }

  /// Resolves each argument of \p E onto the Sema's argument stack,
  /// which the caller truncates again (popArgs). On failure the stack
  /// is restored.
  bool resolveArgs(const ConstraintExpr &E) {
    size_t Base = S.ArgStack.size();
    for (const ConstraintExpr *Arg : E.Args) {
      ConstraintPtr C = resolveChild(*Arg);
      if (!C) {
        S.ArgStack.resize(Base);
        return false;
      }
      S.ArgStack.push_back(std::move(C));
    }
    return true;
  }

  /// The arguments pushed since \p Base, valid until the next push; the
  /// ArgPopper returned here truncates the stack to \p Base when the
  /// full expression that built the node ends.
  struct ArgPopper {
    std::vector<ConstraintPtr> &Stack;
    size_t Base;
    ~ArgPopper() { Stack.resize(Base); }
    operator std::span<const ConstraintPtr>() const {
      return std::span<const ConstraintPtr>(Stack).subspan(Base);
    }
  };
  ArgPopper popArgs(size_t Base) { return ArgPopper{S.ArgStack, Base}; }

  /// Builds the constraint for builtin type sugar names (f32, i32, ...).
  ConstraintPtr resolveBuiltinTypeSugar(std::string_view Name) {
    IRContext &Ctx = S.Ctx;
    const TypeDefinition *Def = nullptr;
    if (Name == "f16" || Name == "f32" || Name == "f64") {
      unsigned Width = Name == "f16" ? 16 : Name == "f32" ? 32 : 64;
      Def = Ctx.getFloatTypeDef(Width);
    } else if (Name == "index") {
      Def = Ctx.getIndexTypeDef();
    }
    if (Def)
      return leaf(LeafTypeSugar, Def, 0, 0, [&] {
        return Constraint::typeConstraint(S.Store, Def, {}, /*BaseOnly=*/false);
      });
    Signedness Sign;
    std::string_view Digits;
    if (startsWith(Name, "si")) {
      Sign = Signedness::Signed;
      Digits = Name.substr(2);
    } else if (startsWith(Name, "ui")) {
      Sign = Signedness::Unsigned;
      Digits = Name.substr(2);
    } else if (startsWith(Name, "i")) {
      Sign = Signedness::Signless;
      Digits = Name.substr(1);
    } else {
      return nullptr;
    }
    auto Width = parseUInt(Digits);
    if (!Width || *Width < 1 || *Width > 128)
      return nullptr;
    return leaf(
        LeafTypeSugar, Ctx.getIntegerTypeDef(), static_cast<int64_t>(*Width),
        static_cast<unsigned>(Sign), [&] {
          return Constraint::typeConstraint(
              S.Store, Ctx.getIntegerTypeDef(),
              {Constraint::intEq(S.Store, IntVal{32, Signedness::Unsigned,
                                        static_cast<int64_t>(*Width)}),
               Constraint::enumEq(S.Store, EnumVal{Ctx.getSignednessEnum(),
                                          static_cast<unsigned>(Sign)})},
              /*BaseOnly=*/false);
        });
  }

  /// Resolves a type/attr definition reference with optional arguments.
  ConstraintPtr resolveDefRef(const ConstraintExpr &E,
                              TypeDefinition *TDef, AttrDefinition *ADef) {
    if (!E.HasArgs) {
      if (TDef)
        return leaf(LeafBaseType, TDef, 0, 0, [&] {
          return Constraint::typeConstraint(S.Store, TDef, {},
                                            /*BaseOnly=*/true);
        });
      return leaf(LeafBaseAttr, ADef, 0, 0, [&] {
        return Constraint::attrConstraint(S.Store, ADef, {}, /*BaseOnly=*/true);
      });
    }
    size_t Base = S.ArgStack.size();
    if (!resolveArgs(E))
      return nullptr;
    ArgPopper Args = popArgs(Base);
    size_t NumArgs = S.ArgStack.size() - Base;
    unsigned NumParams = TDef ? TDef->getNumParams() : ADef->getNumParams();
    if (NumArgs != NumParams)
      return error(E.Loc,
                   "'" + (TDef ? TDef->getFullName() : ADef->getFullName()) +
                       "' has " + std::to_string(NumParams) +
                       " parameters but " + std::to_string(NumArgs) +
                       " constraints were given");
    if (TDef)
      return Constraint::typeConstraint(S.Store, TDef, Args,
                                        /*BaseOnly=*/false);
    return Constraint::attrConstraint(S.Store, ADef, Args,
                                      /*BaseOnly=*/false);
  }

  /// Expands an alias with the given argument expressions.
  ConstraintPtr expandAlias(const ast::AliasDecl &Alias,
                            Sema::DialectTables &Owner,
                            const ConstraintExpr &E) {
    if (Depth > 32)
      return error(E.Loc, "alias expansion too deep (recursive alias?)");
    if (E.Args.size() != Alias.Params.size())
      return error(E.Loc, "alias '" + std::string(Alias.Name) +
                              "' expects " +
                              std::to_string(Alias.Params.size()) +
                              " arguments but got " +
                              std::to_string(E.Args.size()));
    std::vector<std::pair<std::string_view, ConstraintPtr>> Env;
    Env.reserve(Alias.Params.size());
    for (size_t I = 0, N = Alias.Params.size(); I != N; ++I) {
      ConstraintPtr Arg = resolveChild(*E.Args[I]);
      if (!Arg)
        return nullptr;
      Env.emplace_back(Alias.Params[I], std::move(Arg));
    }
    // The alias body resolves in the *owning* dialect's scope, with the
    // parameter environment layered on, and no access to the use-site's
    // constraint variables.
    ConstraintResolver BodyResolver(S, Owner);
    BodyResolver.AliasEnv = Env.empty() ? nullptr : &Env;
    BodyResolver.Depth = Depth + 1;
    BodyResolver.Level = Level;
    BodyResolver.VarNames = VarNames; // vars may flow via ConstraintVars
    BodyResolver.VarNodes = VarNodes;
    return BodyResolver.resolve(*Alias.Body);
  }

  /// Resolves a named IRDL-C++ Constraint declaration (with caching).
  ConstraintPtr resolveNamedConstraint(const ast::ConstraintDecl &Decl,
                                       Sema::DialectTables &Owner) {
    auto It = Owner.ResolvedConstraints.find(Decl.Name);
    if (It != Owner.ResolvedConstraints.end())
      return It->second;
    // Insert a tombstone to catch recursion.
    Owner.ResolvedConstraints.emplace(Decl.Name, nullptr);

    ConstraintResolver BaseResolver(S, Owner);
    BaseResolver.Depth = Depth + 1;
    ConstraintPtr Base = BaseResolver.resolve(*Decl.Base);
    if (!Base)
      return nullptr;
    ConstraintPtr Result = Base;
    if (Decl.HasCppConstraint) {
      if (startsWith(Decl.CppConstraint, "native:")) {
        std::string Name(Decl.CppConstraint.substr(7));
        auto NIt = S.Opts.NativeConstraints.find(Name);
        if (NIt == S.Opts.NativeConstraints.end())
          return error(Decl.Loc,
                       "no native constraint registered under '" + Name +
                           "'");
        Result = Constraint::native(S.Store, Base, NIt->second, Name);
      } else {
        std::string Source(Decl.CppConstraint);
        auto Expr = CppExpr::parse(Source, S.Diags, Decl.Loc);
        if (!Expr)
          return nullptr;
        Result = Constraint::cpp(
            S.Store, Base,
            [Expr](const ParamValue &V) {
              CppExpr::EvalContext Ctx;
              Ctx.Self = cppEvalFromParam(V);
              auto B = Expr->evaluateBool(Ctx);
              return B && *B;
            },
            Source);
      }
    }
    Result = Constraint::named(S.Store, Result, Owner.D->getNamespace() + "." +
                                           std::string(Decl.Name));
    Owner.ResolvedConstraints[Decl.Name] = Result;
    return Result;
  }

  /// Looks up \p Name inside \p T's dialect, trying the component kinds in
  /// sigil-appropriate order.
  ConstraintPtr lookupInDialect(const ConstraintExpr &E,
                                std::string_view Name,
                                Sema::DialectTables *T, Dialect *D) {
    // Aliases and named constraints only exist for IRDL-declared dialects.
    if (T) {
      if (auto It = T->Aliases.find(Name); It != T->Aliases.end())
        return expandAlias(*It->second, *T, E);
      if (auto It = T->Constraints.find(Name); It != T->Constraints.end()) {
        if (E.HasArgs)
          return error(E.Loc, "named constraints take no arguments");
        ConstraintPtr C = resolveNamedConstraint(*It->second, *T);
        if (!C)
          return error(E.Loc, "constraint '" + std::string(Name) +
                                  "' is recursive or invalid");
        return C;
      }
      if (auto It = T->ParamTypes.find(Name); It != T->ParamTypes.end()) {
        if (E.HasArgs)
          return error(E.Loc, "parameter kinds take no arguments");
        return Constraint::opaqueKind(S.Store, D->getNamespace() + "." +
                                      std::string(Name));
      }
    }
    if (!D)
      return nullptr;
    if (E.Sigil != '#')
      if (TypeDefinition *Def = D->lookupType(Name))
        return resolveDefRef(E, Def, nullptr);
    if (E.Sigil != '!')
      if (AttrDefinition *Def = D->lookupAttr(Name))
        return resolveDefRef(E, nullptr, Def);
    if (EnumDef *Def = D->lookupEnum(Name)) {
      if (E.HasArgs)
        return error(E.Loc, "enum constraints take no arguments");
      return leaf(LeafEnumKind, Def, 0, 0,
                  [&] { return Constraint::enumKind(S.Store, Def); });
    }
    // Cross-sigil fallback (lenient).
    if (E.Sigil == '#')
      if (TypeDefinition *Def = D->lookupType(Name))
        return resolveDefRef(E, Def, nullptr);
    if (E.Sigil == '!')
      if (AttrDefinition *Def = D->lookupAttr(Name))
        return resolveDefRef(E, nullptr, Def);
    return nullptr;
  }

  ConstraintPtr enumCase(const ConstraintExpr &E, EnumDef *Def,
                         std::string_view Case) {
    if (auto Index = Def->lookupCase(Case))
      return leaf(LeafEnumEq, Def, *Index, 0, [&] {
        return Constraint::enumEq(S.Store, EnumVal{Def, *Index});
      });
    return error(E.Loc, "'" + std::string(Case) +
                            "' is not a constructor of enum '" +
                            Def->getFullName() + "'");
  }

  ConstraintPtr resolveRef(const ConstraintExpr &E) {
    IRContext &Ctx = S.Ctx;

    if (E.Path.size() == 1) {
      std::string_view Name = E.Path[0];

      // 1. Alias-parameter environment.
      if (AliasEnv) {
        for (const auto &[Param, Arg] : *AliasEnv) {
          if (Param != Name)
            continue;
          if (E.HasArgs)
            return error(E.Loc, "alias parameters take no arguments");
          return Arg;
        }
      }

      // 2. Constraint variables.
      if (VarNodes) {
        for (unsigned I = 0, N = VarNames.size(); I != N; ++I) {
          if (VarNames[I] == Name) {
            if (E.HasArgs)
              return error(E.Loc,
                           "constraint variables take no arguments");
            ConstraintPtr &Node = (*VarNodes)[I];
            if (!Node)
              Node = Constraint::var(S.Store, I, Name);
            return Node;
          }
        }
      }

      // 3. Combinators and builtins.
      if (Name == "AnyOf" || Name == "And") {
        size_t Base = S.ArgStack.size();
        if (!resolveArgs(E))
          return nullptr;
        ArgPopper Args = popArgs(Base);
        if (S.ArgStack.size() == Base)
          return error(E.Loc, std::string(Name) +
                                  " requires at least one constraint");
        return Name == "AnyOf" ? Constraint::anyOf(S.Store, Args)
                               : Constraint::conjunction(S.Store, Args);
      }
      if (Name == "Not") {
        if (E.Args.size() != 1)
          return error(E.Loc, "Not takes exactly one constraint");
        ConstraintPtr Inner = resolveChild(*E.Args[0]);
        return Inner ? Constraint::negation(S.Store, std::move(Inner))
                     : nullptr;
      }
      if (Name == "Variadic" || Name == "Optional")
        return error(E.Loc, std::string(Name) +
                                " is only allowed at the top level of "
                                "operand, result, and region argument "
                                "definitions");
      if (Name == "array") {
        if (!E.HasArgs)
          return Constraint::anyArray(S.Store);
        if (E.Args.size() != 1)
          return error(E.Loc, "array takes at most one element constraint");
        ConstraintPtr Elem = resolveChild(*E.Args[0]);
        return Elem ? Constraint::arrayOf(S.Store, std::move(Elem)) : nullptr;
      }
      if (Name == "AnyType")
        return leaf(LeafAnyType, nullptr, 0, 0,
                    [&] { return Constraint::anyType(S.Store); });
      if (Name == "AnyAttr")
        return leaf(LeafAnyAttr, nullptr, 0, 0,
                    [&] { return Constraint::anyAttr(S.Store); });
      if (Name == "AnyParam")
        return leaf(LeafAnyParam, nullptr, 0, 0,
                    [&] { return Constraint::anyParam(S.Store); });
      if (auto IK = matchIntKindName(Name))
        return leaf(LeafIntKind, nullptr, IK->first,
                    static_cast<unsigned>(IK->second), [&] {
                      return Constraint::intKind(S.Store, IK->first,
                                                 IK->second);
                    });
      if (auto FK = matchFloatKindName(Name))
        return leaf(LeafFloatKind, nullptr, *FK, 0,
                    [&] { return Constraint::floatKind(S.Store, *FK); });
      if (Name == "string")
        return leaf(LeafStringKind, nullptr, 0, 0,
                    [&] { return Constraint::stringKind(S.Store); });
      if (Name == "location" || Name == "type_id")
        return Constraint::opaqueKind(S.Store, Name);
      // Builtin attribute sugar: #f32_attr / #f64_attr (Listing 5).
      if (Name == "f32_attr" || Name == "f64_attr") {
        unsigned Width = Name == "f32_attr" ? 32 : 64;
        return leaf(LeafFloatAttrSugar, nullptr, Width, 0, [&] {
          return Constraint::attrConstraint(
              S.Store, Ctx.getFloatAttrDef(),
              {Constraint::floatKind(S.Store, Width)}, /*BaseOnly=*/false);
        });
      }
      if (!E.HasArgs)
        if (ConstraintPtr Sugar = resolveBuiltinTypeSugar(Name))
          return Sugar;

      // 4. Current dialect, then builtin, then std (Section 4.2).
      unsigned ErrorsBefore = S.Diags.getNumErrors();
      if (ConstraintPtr C =
              lookupInDialect(E, Name, &Current, Current.D))
        return C;
      if (S.Diags.getNumErrors() != ErrorsBefore)
        return nullptr; // A nested resolution already reported.
      for (const char *Ns : {"builtin", "std"}) {
        Sema::DialectTables *T = S.lookupTables(Ns);
        Dialect *D = Ctx.lookupDialect(Ns);
        if (ConstraintPtr C = lookupInDialect(E, Name, T, D))
          return C;
        if (S.Diags.getNumErrors() != ErrorsBefore)
          return nullptr;
      }
      return error(E.Loc, "unknown constraint '" + std::string(Name) + "'");
    }

    // Multi-segment path.
    // (a) dialect-qualified component: d.name
    if (E.Path.size() == 2) {
      if (Dialect *D = Ctx.lookupDialect(E.Path[0])) {
        unsigned ErrorsBefore = S.Diags.getNumErrors();
        Sema::DialectTables *T = S.lookupTables(E.Path[0]);
        if (ConstraintPtr C = lookupInDialect(E, E.Path[1], T, D))
          return C;
        if (S.Diags.getNumErrors() != ErrorsBefore)
          return nullptr;
      }
      // (b) enum constructor: enum.Case
      if (EnumDef *Def = Ctx.resolveEnumDef(E.Path[0], Current.D))
        return enumCase(E, Def, E.Path[1]);
      return error(E.Loc, "unknown constraint '" + joinPath(E.Path) + "'");
    }

    // (c) dialect.enum.Case
    if (E.Path.size() == 3) {
      std::string EnumPath =
          std::string(E.Path[0]) + "." + std::string(E.Path[1]);
      if (EnumDef *Def = Ctx.resolveEnumDef(EnumPath, Current.D))
        return enumCase(E, Def, E.Path[2]);
    }
    return error(E.Loc, "unknown constraint '" + joinPath(E.Path) + "'");
  }

  Sema &S;
  Sema::DialectTables &Current;
};

} // namespace irdl

//===----------------------------------------------------------------------===//
// Pass 2: resolution into specs
//===----------------------------------------------------------------------===//

namespace {

/// Unwraps a top-level Variadic/Optional wrapper into a VariadicKind.
const ConstraintExpr *unwrapVariadic(const ConstraintExpr &E,
                                     VariadicKind &VK) {
  VK = VariadicKind::Single;
  if (E.K != ConstraintExpr::Kind::Ref || E.Path.size() != 1 ||
      !E.HasArgs)
    return &E;
  if (E.Path[0] == "Variadic")
    VK = VariadicKind::Variadic;
  else if (E.Path[0] == "Optional")
    VK = VariadicKind::Optional;
  else
    return &E;
  return E.Args.size() == 1 ? E.Args[0] : nullptr;
}

} // namespace

/// Copies of \p Names in \p Spec's storage.
static std::span<const std::string_view>
copyNames(DialectSpec &Spec, std::span<const std::string_view> Names) {
  std::span<std::string_view> Copy =
      Spec.allocate<std::string_view>(Names.size());
  for (size_t I = 0; I != Names.size(); ++I)
    Copy[I] = Spec.copy(Names[I]);
  return Copy;
}

/// The parsed IRDL-C++ expression of \p Source, kept alive by \p Spec's
/// storage; null (with a diagnostic) if it does not parse.
static const CppExpr *parseCpp(DialectSpec &Spec, std::string_view Source,
                               DiagnosticEngine &Diags, SMLoc Loc) {
  std::shared_ptr<const CppExpr> Expr = CppExpr::parse(Source, Diags, Loc);
  if (!Expr)
    return nullptr;
  return Spec.getStorage()
      .create<std::shared_ptr<const CppExpr>>(std::move(Expr))
      ->get();
}

LogicalResult Sema::resolveDialect(const DialectDecl &Decl,
                                   DialectSpec &Spec) {
  DialectTables &T = Tables.find(Decl.Name)->second;
  Spec.Name = Spec.copy(Decl.Name);
  Spec.D = T.D;
  // Every tree of this spec lives in its storage, so nothing resolved
  // for an earlier dialect of the load is shared with it.
  Store = Spec.shareStorage();
  Leaves.clear();
  for (auto &[Name, Other] : Tables)
    Other.ResolvedConstraints.clear();

  // Enums were registered in pass 1; mirror them in the spec.
  Spec.Enums = Spec.allocate<EnumSpec>(Decl.Enums.size());
  for (size_t I = 0; I != Decl.Enums.size(); ++I) {
    const EnumDecl &E = Decl.Enums[I];
    EnumSpec &ES = Spec.Enums[I];
    ES.Name = Spec.copy(E.Name);
    ES.Cases = copyNames(Spec, E.Cases);
    ES.Def = T.D->lookupEnum(E.Name);
  }

  // Opaque parameter kinds.
  Spec.ParamTypes = Spec.allocate<ParamTypeSpec>(Decl.ParamTypes.size());
  for (size_t I = 0; I != Decl.ParamTypes.size(); ++I) {
    const TypeOrAttrParamDecl &P = Decl.ParamTypes[I];
    ParamTypeSpec &PS = Spec.ParamTypes[I];
    PS.Name = Spec.copy(P.Name);
    PS.Summary = Spec.copy(P.Summary);
    PS.CppClassName = Spec.copy(P.CppClassName);
    PS.CppParserSrc = Spec.copy(P.CppParser);
    PS.CppPrinterSrc = Spec.copy(P.CppPrinter);
  }

  // Named constraints (also forces resolution/caching).
  Spec.Constraints =
      Spec.allocate<NamedConstraintSpec>(Decl.Constraints.size());
  for (size_t I = 0; I != Decl.Constraints.size(); ++I) {
    const ast::ConstraintDecl &C = Decl.Constraints[I];
    ConstraintResolver R(*this, T);
    ConstraintPtr Resolved = R.resolve(*C.Base);
    if (!Resolved)
      return failure();
    NamedConstraintSpec &NS = Spec.Constraints[I];
    NS.Name = Spec.copy(C.Name);
    NS.Summary = Spec.copy(C.Summary);
    NS.HasCpp = C.HasCppConstraint;
    // Resolve through the cache path so Cpp predicates attach.
    std::string_view RefPath[] = {C.Name};
    ConstraintExpr Ref;
    Ref.K = ConstraintExpr::Kind::Ref;
    Ref.Loc = C.Loc;
    Ref.Path = RefPath;
    ConstraintPtr Named = ConstraintResolver(*this, T).resolve(Ref);
    if (!Named)
      return failure();
    NS.Constr = Named.get();
  }

  // Aliases (non-parametric ones resolve for documentation).
  Spec.Aliases = Spec.allocate<AliasSpec>(Decl.Aliases.size());
  for (size_t I = 0; I != Decl.Aliases.size(); ++I) {
    const AliasDecl &A = Decl.Aliases[I];
    AliasSpec &AS = Spec.Aliases[I];
    AS.Sigil = A.Sigil;
    AS.Name = Spec.copy(A.Name);
    AS.Params = copyNames(Spec, A.Params);
    if (A.Params.empty()) {
      ConstraintResolver R(*this, T);
      ConstraintPtr Body = R.resolve(*A.Body);
      if (!Body)
        return failure();
      AS.Body = Body.get();
    }
  }

  // Types and attributes.
  size_t NumAttrs = std::count_if(
      Decl.TypesAndAttrs.begin(), Decl.TypesAndAttrs.end(),
      [](const TypeOrAttrDecl &TA) { return TA.IsAttr; });
  Spec.Attrs = Spec.allocate<TypeOrAttrSpec>(NumAttrs);
  Spec.Types =
      Spec.allocate<TypeOrAttrSpec>(Decl.TypesAndAttrs.size() - NumAttrs);
  size_t NextType = 0, NextAttr = 0;
  for (const TypeOrAttrDecl &TA : Decl.TypesAndAttrs) {
    TypeOrAttrSpec &TS =
        TA.IsAttr ? Spec.Attrs[NextAttr++] : Spec.Types[NextType++];
    TS.IsAttr = TA.IsAttr;
    TS.Name = Spec.copy(TA.Name);
    TS.Summary = Spec.copy(TA.Summary);
    TS.Params = Spec.allocate<ParamSpec>(TA.Params.size());
    for (size_t I = 0; I != TA.Params.size(); ++I) {
      const NamedConstraint &P = TA.Params[I];
      ConstraintResolver R(*this, T);
      ConstraintPtr C = R.resolve(*P.Constr);
      if (!C)
        return failure();
      TS.Params[I] = ParamSpec{Spec.copy(P.Name), C.get(), nullptr};
    }
    if (TA.HasCppConstraint) {
      TS.CppConstraintSrc = Spec.copy(TA.CppConstraint);
      if (startsWith(TA.CppConstraint, "native:")) {
        std::string NativeName(TA.CppConstraint.substr(7));
        auto It = Opts.NativeConstraints.find(NativeName);
        if (It == Opts.NativeConstraints.end()) {
          Diags.emitError(TA.Loc, "no native constraint registered under '" +
                                      NativeName + "'");
          return failure();
        }
        // Registration finds the callback again through the spec's
        // CppConstraintSrc prefix and keeps it in the definition verifier.
      } else {
        TS.CppConstraint = parseCpp(Spec, TA.CppConstraint, Diags, TA.Loc);
        if (!TS.CppConstraint)
          return failure();
      }
    }
    TS.Def = TA.IsAttr
                 ? static_cast<TypeOrAttrDefinitionBase *>(
                       T.D->lookupAttr(TA.Name))
                 : static_cast<TypeOrAttrDefinitionBase *>(
                       T.D->lookupType(TA.Name));
  }

  // Operations.
  Spec.Ops = Spec.allocate<OpSpec>(Decl.Ops.size());
  for (size_t OpI = 0; OpI != Decl.Ops.size(); ++OpI) {
    const OpDecl &Op = Decl.Ops[OpI];
    OpSpec &OS = Spec.Ops[OpI];
    OS.Name = Spec.copy(Op.Name);
    OS.Summary = Spec.copy(Op.Summary);
    OS.Def = T.D->lookupOp(Op.Name);

    std::span<std::string_view> VarNames =
        Spec.allocate<std::string_view>(Op.ConstraintVars.size());
    for (size_t I = 0; I != VarNames.size(); ++I)
      VarNames[I] = Spec.copy(Op.ConstraintVars[I].Name);
    OS.VarNames = VarNames;

    ConstraintResolver OpResolver(*this, T);
    OpVarNodes.assign(OS.VarNames.size(), nullptr);
    OpResolver.VarNames = OS.VarNames;
    OpResolver.VarNodes = &OpVarNodes;

    std::span<const Constraint *> VarConstraints =
        Spec.allocate<const Constraint *>(Op.ConstraintVars.size());
    for (size_t I = 0; I != VarConstraints.size(); ++I) {
      ConstraintPtr C = OpResolver.resolve(*Op.ConstraintVars[I].Constr);
      if (!C)
        return failure();
      VarConstraints[I] = C.get();
    }
    OS.VarConstraints = VarConstraints;
    if (auto V = findUnguardedVarCycle(OS.VarConstraints)) {
      Diags.emitError(Op.ConstraintVars[*V].Loc, OS.varCycleMessage(*V));
      return failure();
    }

    auto ResolveOperandList =
        [&](NamedConstraintList Decls,
            std::span<OperandSpec> &Out) -> LogicalResult {
      Out = Spec.allocate<OperandSpec>(Decls.size());
      for (size_t I = 0; I != Decls.size(); ++I) {
        const NamedConstraint &NC = Decls[I];
        VariadicKind VK;
        const ConstraintExpr *Inner = unwrapVariadic(*NC.Constr, VK);
        if (!Inner) {
          Diags.emitError(NC.Loc,
                          "Variadic/Optional take exactly one constraint");
          return failure();
        }
        ConstraintPtr C = OpResolver.resolve(*Inner);
        if (!C)
          return failure();
        Out[I] = OperandSpec{Spec.copy(NC.Name), C.get(), VK, nullptr};
      }
      return success();
    };

    if (failed(ResolveOperandList(Op.Operands, OS.Operands)) ||
        failed(ResolveOperandList(Op.Results, OS.Results)))
      return failure();

    OS.Attributes = Spec.allocate<ParamSpec>(Op.Attributes.size());
    for (size_t I = 0; I != Op.Attributes.size(); ++I) {
      const NamedConstraint &A = Op.Attributes[I];
      ConstraintPtr C = OpResolver.resolve(*A.Constr);
      if (!C)
        return failure();
      OS.Attributes[I] = ParamSpec{Spec.copy(A.Name), C.get(), nullptr};
    }

    OS.Regions = Spec.allocate<RegionSpec>(Op.Regions.size());
    for (size_t I = 0; I != Op.Regions.size(); ++I) {
      const RegionDecl &R = Op.Regions[I];
      RegionSpec &RS = OS.Regions[I];
      RS.Name = Spec.copy(R.Name);
      if (failed(ResolveOperandList(R.Args, RS.Args)))
        return failure();
      if (!R.Terminator.empty()) {
        std::string TermName = joinPath(R.Terminator);
        OpDefinition *TermDef = Ctx.resolveOpDef(TermName, T.D);
        if (!TermDef) {
          Diags.emitError(R.Loc, "unknown terminator operation '" +
                                     TermName + "'");
          return failure();
        }
        RS.TerminatorOpName = Spec.copy(TermDef->getFullName());
      }
    }

    if (Op.Successors)
      OS.Successors = copyNames(Spec, *Op.Successors);

    if (Op.HasFormat) {
      OS.HasFormat = true;
      OS.FormatSrc = Spec.copy(Op.Format);
    }

    if (Op.HasCppConstraint) {
      OS.CppConstraintSrc = Spec.copy(Op.CppConstraint);
      if (startsWith(Op.CppConstraint, "native:")) {
        OS.NativeVerifierName = OS.CppConstraintSrc.substr(7);
        if (!Opts.NativeOpVerifiers.count(
                std::string(OS.NativeVerifierName))) {
          Diags.emitError(Op.Loc, "no native op verifier registered under '" +
                                      std::string(OS.NativeVerifierName) +
                                      "'");
          return failure();
        }
      } else {
        OS.CppConstraint = parseCpp(Spec, Op.CppConstraint, Diags, Op.Loc);
        if (!OS.CppConstraint)
          return failure();
      }
    }
  }

  return success();
}
