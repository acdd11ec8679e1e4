//===- SpecCache.h - Content-hash dialect spec caching ------------*- C++ -*-===//
///
/// \file
/// Content-hash based caching of IRDL dialect specifications, keyed by a
/// 64-bit FNV-1a hash (support/Hashing.h). The cache is an on-disk
/// directory (`irdl_opt --spec-cache-dir=DIR`) where each entry is a
/// `.irbc` spec buffer named by the hex hash of its *source* text. A hit
/// replaces lexing, parsing and semantic analysis with a bytecode load of
/// the entry's constraint trees, which registration compiles exactly as
/// after a textual load. Entries embed the source hash in their
/// Meta section; an entry whose embedded hash does not match its
/// filename hash is stale (e.g. truncated or hand-edited) and is
/// invalidated.
///
/// The hash is computed by hashSpecBuffer(): textual buffers hash their
/// full contents; bytecode buffers hash the canonical spec sections
/// (Strings, Specs) only, so a buffer that merely gained a
/// Meta section or an IR payload still dedups against its spec-identical
/// sibling.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_BYTECODE_SPECCACHE_H
#define IRDL_BYTECODE_SPECCACHE_H

#include "bytecode/Bytecode.h"

#include <cstdint>
#include <string>
#include <string_view>

namespace irdl {

/// The 64-bit content hash of a spec buffer. Stable across processes and
/// suitable for on-disk cache keys. Bytecode buffers are canonicalized
/// to their Strings/Specs sections; anything else (including
/// malformed bytecode) hashes whole.
uint64_t hashSpecBuffer(std::string_view Buffer);

/// The on-disk cache file for \p Hash under \p Dir:
/// `DIR/<16-hex-digit hash>.irbc`.
std::string specCachePath(const std::string &Dir, uint64_t Hash);

/// Attempts to load the cached spec for \p Hash from \p Dir.
/// The entry is read into memory once, and the hash check and the load
/// both see those bytes. Returns failure — silently, with no
/// diagnostics — when the entry is absent; emits diagnostics and deletes
/// the entry when it exists but is stale (embedded Meta hash does not
/// match) or unreadable. On success the specs are registered into
/// \p Ctx and returned in \p Result.
LogicalResult loadCachedSpec(const std::string &Dir, uint64_t Hash,
                             IRContext &Ctx, DiagnosticEngine &Diags,
                             BytecodeReadResult &Result,
                             const IRDLLoadOptions &Opts = {});

/// Serializes \p Specs (with \p Hash embedded in the Meta section) into
/// the cache entry for \p Hash under \p Dir.
/// Writes to a temporary file first and renames into place, so
/// concurrent readers never observe a partial entry.
LogicalResult storeCachedSpec(const std::string &Dir, uint64_t Hash,
                              const IRDLModule &Specs,
                              DiagnosticEngine &Diags);

} // namespace irdl

#endif // IRDL_BYTECODE_SPECCACHE_H
