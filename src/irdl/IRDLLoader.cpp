//===- IRDLLoader.cpp - loadIRDL orchestration -------------------------===//

#include "irdl/IRDL.h"

#include "irdl/IRDLParser.h"
#include "irdl/Registration.h"
#include "irdl/Sema.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <fstream>
#include <sstream>

using namespace irdl;

IRDL_STATISTIC(IRDLFrontend, NumBuffersLoaded,
               "irdl_frontend_buffers_loaded_total",
               "IRDL buffers run through the frontend");
IRDL_STATISTIC(IRDLFrontend, NumDialectsRegistered,
               "irdl_frontend_dialects_registered_total",
               "dialects registered from IRDL specs");
IRDL_STATISTIC(IRDLFrontend, NumOpsRegistered,
               "irdl_frontend_ops_registered_total",
               "operations registered from IRDL specs");

size_t IRDLModule::getNumOps() const {
  size_t N = 0;
  for (const auto &D : Dialects)
    N += D->Ops.size();
  return N;
}

size_t IRDLModule::getNumTypes() const {
  size_t N = 0;
  for (const auto &D : Dialects)
    N += D->Types.size();
  return N;
}

size_t IRDLModule::getNumAttrs() const {
  size_t N = 0;
  for (const auto &D : Dialects)
    N += D->Attrs.size();
  return N;
}

std::unique_ptr<IRDLModule>
irdl::loadIRDL(IRContext &Ctx, std::string_view Source, SourceMgr &SrcMgr,
               DiagnosticEngine &Diags, const IRDLLoadOptions &Opts,
               std::string BufferName) {
  IRDL_TIME_SCOPE("irdl-frontend");
  ++NumBuffersLoaded;
  unsigned Id = SrcMgr.addBuffer(std::string(Source), std::move(BufferName));
  if (!Diags.getSourceMgr())
    Diags.setSourceMgr(&SrcMgr);

  unsigned ErrorsBefore = Diags.getNumErrors();
  ast::ParsedIRDL Ast;
  {
    // The IRDL lexer runs on demand inside the parser, so one phase
    // covers both.
    IRDL_TIME_SCOPE("lex+parse");
    Ast = parseIRDL(SrcMgr.getBufferContents(Id), Diags);
  }
  if (Diags.getNumErrors() != ErrorsBefore)
    return nullptr;

  Sema S(Ctx, Diags, Opts);
  {
    IRDL_TIME_SCOPE("sema");
    for (const ast::DialectDecl &Decl : Ast.Dialects)
      if (failed(S.declareDialect(Decl)))
        return nullptr;
  }

  auto Module = std::make_unique<IRDLModule>();
  for (const ast::DialectDecl &Decl : Ast.Dialects) {
    auto Spec = std::make_shared<DialectSpec>();
    {
      IRDL_TIME_SCOPE("sema");
      if (failed(S.resolveDialect(Decl, *Spec)))
        return nullptr;
    }
    {
      IRDL_TIME_SCOPE("register");
      if (failed(registerDialectSpec(Spec, Ctx, Diags, Opts)))
        return nullptr;
    }
    ++NumDialectsRegistered;
    NumOpsRegistered += Spec->Ops.size();
    Module->Dialects.push_back(std::move(Spec));
  }
  return Module;
}

std::unique_ptr<IRDLModule>
irdl::loadIRDLFile(IRContext &Ctx, const std::string &Path,
                   SourceMgr &SrcMgr, DiagnosticEngine &Diags,
                   const IRDLLoadOptions &Opts) {
  std::ostringstream Contents;
  {
    IRDL_TIME_SCOPE("read-irdl-file");
    std::ifstream In(Path);
    if (!In) {
      Diags.emitError(SMLoc(), "cannot open IRDL file '" + Path + "'");
      return nullptr;
    }
    Contents << In.rdbuf();
  }
  return loadIRDL(Ctx, Contents.str(), SrcMgr, Diags, Opts, Path);
}
