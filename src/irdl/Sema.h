//===- Sema.h - IRDL semantic analysis ----------------------------*- C++ -*-===//
///
/// \file
/// Internal interface between the loader passes: name resolution and
/// constraint lowering from the AST (IRDLAst.h) to resolved specs
/// (Spec.h). Exposed for white-box testing.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IRDL_SEMA_H
#define IRDL_IRDL_SEMA_H

#include "irdl/IRDL.h"
#include "irdl/IRDLAst.h"

namespace irdl {

/// Shared state of one load: the AST-level symbol tables consulted during
/// resolution (aliases, named constraints, opaque parameter kinds) and
/// the leaf constraints shared by every use. Keys view the AST, which
/// outlives the Sema.
class Sema {
public:
  Sema(IRContext &Ctx, DiagnosticEngine &Diags,
       const IRDLLoadOptions &Opts)
      : Ctx(Ctx), Diags(Diags), Opts(Opts) {}

  /// Pass 1: creates the dialect and skeleton definitions (names and
  /// parameter names only), so that cross-references resolve in pass 2.
  /// Also indexes aliases / constraints / param kinds.
  LogicalResult declareDialect(const ast::DialectDecl &Decl);

  /// Pass 2: resolves every declaration of \p Decl into \p Spec (held by
  /// a shared_ptr), building its trees in the spec's storage.
  LogicalResult resolveDialect(const ast::DialectDecl &Decl,
                               DialectSpec &Spec);

  IRContext &getContext() { return Ctx; }
  DiagnosticEngine &getDiags() { return Diags; }
  const IRDLLoadOptions &getOptions() const { return Opts; }

private:
  friend class ConstraintResolver;

  struct DialectTables {
    const ast::DialectDecl *Decl = nullptr;
    Dialect *D = nullptr;
    std::map<std::string_view, const ast::AliasDecl *> Aliases;
    std::map<std::string_view, const ast::ConstraintDecl *> Constraints;
    std::map<std::string_view, const ast::TypeOrAttrParamDecl *> ParamTypes;
    /// Cache of resolved named constraints.
    std::map<std::string_view, ConstraintPtr> ResolvedConstraints;
  };

  /// Identifies a leaf constraint (one that depends on no name in scope)
  /// by its kind and its definition or value.
  struct LeafKey {
    unsigned Kind;
    unsigned Bits;
    const void *Def;
    int64_t Value;
    auto operator<=>(const LeafKey &) const = default;
  };

  DialectTables *lookupTables(std::string_view DialectName);

  IRContext &Ctx;
  DiagnosticEngine &Diags;
  const IRDLLoadOptions &Opts;
  std::map<std::string_view, DialectTables> Tables;
  /// The storage of the spec being resolved, which every tree is built in.
  SpecStoragePtr Store;
  /// Constraint trees are immutable, so each leaf is built once per spec.
  std::map<LeafKey, ConstraintPtr> Leaves;
  /// The variable reference nodes of the operation being resolved.
  std::vector<ConstraintPtr> OpVarNodes;
  /// The resolved arguments of the combinators being built, innermost
  /// last (ConstraintResolver::resolveArgs).
  std::vector<ConstraintPtr> ArgStack;
  /// Parameter names of the definition being declared.
  std::vector<std::string_view> NameScratch;
};

} // namespace irdl

#endif // IRDL_IRDL_SEMA_H
