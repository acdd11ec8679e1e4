//===- EpochRegistry.cpp ----------------------------------------------===//

#include "server/EpochRegistry.h"

#include "bytecode/Bytecode.h"
#include "bytecode/SpecCache.h"
#include "support/Metrics.h"

#include <algorithm>

using namespace irdl;
using namespace irdl::serve;

namespace {

/// Reload dedup accounting. Like the request counters in Server.cpp,
/// recorded unconditionally: the METRICS endpoint must show cache
/// behavior regardless of library instrumentation opt-in.
Counter &specCacheCounter(bool Hit) {
  return MetricsRegistry::instance().getCounter(
      Hit ? "irdl_serve_spec_cache_hits" : "irdl_serve_spec_cache_misses",
      Hit ? "dialect reloads skipped because the spec content hash matched "
            "an already loaded source"
          : "dialect loads/reloads that rebuilt the registry epoch");
}

} // namespace

EpochRegistry::EpochRegistry() {
  auto Boot = std::make_shared<Epoch>();
  Boot->Ctx = std::make_unique<IRContext>();
  Boot->SrcMgr = std::make_unique<SourceMgr>();
  Current = std::move(Boot);
}

std::shared_ptr<const Epoch> EpochRegistry::current() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Current;
}

uint64_t EpochRegistry::currentEpochNumber() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Current->Number;
}

LogicalResult EpochRegistry::loadInto(IRContext &Ctx, Epoch &E,
                                      const Source &S,
                                      std::vector<std::string> &DialectNames,
                                      std::string &DiagText) {
  DiagnosticEngine Diags(E.SrcMgr.get());
  std::unique_ptr<IRDLModule> Loaded;
  if (isBytecodeBuffer(S.Buffer)) {
    BytecodeReader Reader(Ctx, Diags);
    BytecodeReadResult Result;
    if (failed(Reader.read(S.Buffer, Result)) || !Result.Specs) {
      if (!Diags.hadError())
        Diags.emitError("bytecode buffer '" + S.Name +
                        "' contains no dialect specs");
      DiagText = Diags.renderAll();
      return failure();
    }
    Loaded = std::move(Result.Specs);
  } else {
    Loaded = loadIRDL(Ctx, S.Buffer, *E.SrcMgr, Diags, {}, S.Name);
    if (!Loaded) {
      DiagText = Diags.renderAll();
      return failure();
    }
  }
  for (const auto &D : Loaded->getDialects())
    DialectNames.push_back(D->Name);
  E.Modules.push_back(std::move(Loaded));
  return success();
}

LogicalResult EpochRegistry::rebuild(std::vector<Source> Sources,
                                     std::string &DiagText) {
  // Built before the epoch so that, on failure, it outlives the epoch's
  // modules (see Epoch::Ctx).
  auto Ctx = std::make_unique<IRContext>();
  auto Next = std::make_shared<Epoch>();
  Next->SrcMgr = std::make_unique<SourceMgr>();
  for (Source &S : Sources) {
    S.DialectNames.clear();
    if (failed(loadInto(*Ctx, *Next, S, S.DialectNames, DiagText)))
      return failure();
  }
  Next->Ctx = std::move(Ctx);
  Next->Number = NextNumber++;
  this->Sources = std::move(Sources);
  Current = std::move(Next);
  return success();
}

LogicalResult EpochRegistry::loadDialect(std::string Name,
                                         std::string Buffer,
                                         std::string &DiagText) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Discover the dialect names by loading into a scratch context first;
  // this also surfaces load errors without paying a full rebuild.
  auto ScratchCtx = std::make_unique<IRContext>();
  Epoch Scratch;
  Scratch.SrcMgr = std::make_unique<SourceMgr>();
  Source S{std::move(Name), std::move(Buffer), {}, 0};
  S.Hash = hashSpecBuffer(S.Buffer);
  std::vector<std::string> NewNames;
  if (failed(loadInto(*ScratchCtx, Scratch, S, NewNames, DiagText)))
    return failure();
  for (const Source &Existing : Sources)
    for (const std::string &N : NewNames)
      if (std::find(Existing.DialectNames.begin(),
                    Existing.DialectNames.end(),
                    N) != Existing.DialectNames.end()) {
        DiagText = "dialect '" + N + "' is already loaded (from '" +
                   Existing.Name + "'); use RELOAD_DIALECT to replace it";
        return failure();
      }
  specCacheCounter(/*Hit=*/false).inc();
  std::vector<Source> NewSources = Sources;
  NewSources.push_back(std::move(S));
  return rebuild(std::move(NewSources), DiagText);
}

LogicalResult EpochRegistry::reloadDialect(std::string Name,
                                           std::string Buffer,
                                           std::string &DiagText) {
  std::lock_guard<std::mutex> Lock(Mutex);
  // Dedup before any scratch work: a reload whose content hash (and, to
  // rule out collisions, bytes) matches an already loaded source cannot
  // change the registry — skip the rebuild and keep the epoch published.
  uint64_t Hash = hashSpecBuffer(Buffer);
  for (const Source &Existing : Sources)
    if (Existing.Hash == Hash && Existing.Buffer == Buffer) {
      specCacheCounter(/*Hit=*/true).inc();
      return success();
    }
  auto ScratchCtx = std::make_unique<IRContext>();
  Epoch Scratch;
  Scratch.SrcMgr = std::make_unique<SourceMgr>();
  Source S{std::move(Name), std::move(Buffer), {}, Hash};
  std::vector<std::string> NewNames;
  if (failed(loadInto(*ScratchCtx, Scratch, S, NewNames, DiagText)))
    return failure();
  std::vector<Source> NewSources;
  for (const Source &Existing : Sources) {
    bool Replaced = false;
    for (const std::string &N : NewNames)
      if (std::find(Existing.DialectNames.begin(),
                    Existing.DialectNames.end(),
                    N) != Existing.DialectNames.end())
        Replaced = true;
    if (!Replaced)
      NewSources.push_back(Existing);
  }
  specCacheCounter(/*Hit=*/false).inc();
  NewSources.push_back(std::move(S));
  return rebuild(std::move(NewSources), DiagText);
}
