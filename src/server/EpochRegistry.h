//===- EpochRegistry.h - Epoch-versioned dialect registry --------*- C++ -*-===//
///
/// \file
/// Hot dialect reload for the verification server, under IRContext's one
/// concurrency rule (Context.h): share a context only as `const`; a
/// context you write is yours alone. An Epoch is a fully built IRContext
/// (plus the SourceMgr its diagnostics render from) constructed from the
/// complete ordered list of loaded dialect sources and then never written
/// again. LOAD_DIALECT/RELOAD_DIALECT build a fresh epoch off to the side
/// and atomically publish it; requests pin the current epoch with a
/// shared_ptr for their whole lifetime and build their IR in a child
/// context of it, so in-flight verification keeps the epoch (and the
/// compiled constraint programs inside it) alive and untouched while
/// newer requests already see the new spec. No client type or attribute
/// is ever interned into an epoch. A build failure leaves the previous
/// epoch in place.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_SERVER_EPOCHREGISTRY_H
#define IRDL_SERVER_EPOCHREGISTRY_H

#include "ir/Context.h"
#include "irdl/IRDL.h"

#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace irdl {
namespace serve {

/// One immutable generation of the dialect registry.
struct Epoch {
  /// Monotonic generation number (1 = the empty boot epoch).
  uint64_t Number = 1;
  /// Declared before SrcMgr/Modules so it is destroyed last: registered
  /// verifier closures reference the spec objects owned by Modules.
  /// Read-only once published; requests build IR in child contexts.
  std::unique_ptr<const IRContext> Ctx;
  /// Owns the textual dialect buffers; request SourceMgrs do not alias it
  /// (dialect-load diagnostics happen at epoch build time only).
  std::unique_ptr<SourceMgr> SrcMgr;
  std::vector<std::unique_ptr<IRDLModule>> Modules;
};

class EpochRegistry {
public:
  /// Starts at epoch 1: an empty context with only builtins registered.
  EpochRegistry();

  /// The current epoch. Callers keep the returned shared_ptr for the full
  /// lifetime of a request ("pinning"); it stays valid across any number
  /// of concurrent reloads.
  std::shared_ptr<const Epoch> current() const;

  uint64_t currentEpochNumber() const;

  /// Registers the dialects of \p Buffer (textual `.irdl` or spec-bearing
  /// `.irbc`, sniffed by magic) under the client-supplied \p Name and
  /// publishes a new epoch. Fails — with rendered diagnostics in
  /// \p DiagText and the previous epoch left current — if the buffer does
  /// not load or redefines a dialect name that is already loaded (use
  /// reloadDialect for that).
  LogicalResult loadDialect(std::string Name, std::string Buffer,
                            std::string &DiagText);

  /// Like loadDialect, but first drops every previously loaded source
  /// that defines any dialect name \p Buffer defines. The replaced
  /// definitions exist only in the new epoch; requests pinned to older
  /// epochs still verify against the old spec.
  ///
  /// Reloads are deduplicated by content hash (bytecode/SpecCache.h): a
  /// buffer whose hash (and bytes) match an already loaded source is a
  /// no-op — the current epoch stays published, no rebuild runs, and the
  /// `irdl_serve_spec_cache_hits` counter ticks. Rebuilds tick
  /// `irdl_serve_spec_cache_misses`.
  LogicalResult reloadDialect(std::string Name, std::string Buffer,
                              std::string &DiagText);

private:
  struct Source {
    std::string Name;
    std::string Buffer;
    /// Dialect names the buffer defines, discovered at load time.
    std::vector<std::string> DialectNames;
    /// Content hash of Buffer (hashSpecBuffer), the reload dedup key.
    uint64_t Hash = 0;
  };

  /// Loads \p S into \p Ctx (the epoch \p E is building), appending the
  /// loaded module to \p E.Modules. Fills \p DialectNames.
  static LogicalResult loadInto(IRContext &Ctx, Epoch &E, const Source &S,
                                std::vector<std::string> &DialectNames,
                                std::string &DiagText);

  /// Builds a fresh epoch from \p Sources; on success publishes it.
  LogicalResult rebuild(std::vector<Source> Sources, std::string &DiagText);

  /// Guards Sources and the Current swap. Epoch builds run under the lock
  /// — dialect loads are rare control-plane operations and serializing
  /// them keeps "last reload wins" well-defined.
  mutable std::mutex Mutex;
  std::vector<Source> Sources;
  std::shared_ptr<const Epoch> Current;
  uint64_t NextNumber = 2;
};

} // namespace serve
} // namespace irdl

#endif // IRDL_SERVER_EPOCHREGISTRY_H
