//===- SpecCache.cpp - Content-hash dialect spec caching -----------------===//

#include "bytecode/SpecCache.h"

#include "bytecode/Encoding.h"
#include "support/File.h"
#include "support/Hashing.h"

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sys/stat.h>
#include <unistd.h>

using namespace irdl;
using namespace irdl::bytecode;

//===----------------------------------------------------------------------===//
// Hashing
//===----------------------------------------------------------------------===//

uint64_t irdl::hashSpecBuffer(std::string_view Buffer) {
  if (!isBytecodeBuffer(Buffer))
    return fnv1a64(Buffer);

  // Canonicalize bytecode: hash the Strings and Specs section payloads
  // (id byte included, so an empty section and a missing one hash
  // differently) under a seed that names the format version, so no key
  // matches across versions. Meta, the type/attr pool, and IR do not
  // describe the dialects and are skipped. Buffers the walk cannot parse
  // hash whole — the full reader will reject them anyway.
  DiagnosticEngine Scratch;
  BytecodeCursor C(Buffer.substr(sizeof(Magic)), Scratch, sizeof(Magic));
  uint64_t Version;
  if (!C.readVarInt(Version) || Version != FormatVersion)
    return fnv1a64(Buffer);

  uint64_t H = fnv1a64("irbc-spec-v" + std::to_string(FormatVersion));
  while (!C.atEnd()) {
    uint8_t Id;
    if (!C.readByte(Id))
      return fnv1a64(Buffer);
    uint64_t Len;
    if (!C.readFixed64(Len))
      return fnv1a64(Buffer);
    std::string_view Payload;
    if (!C.readBytes(Len, Payload))
      return fnv1a64(Buffer);
    if (Id == static_cast<uint8_t>(SectionId::Strings) ||
        Id == static_cast<uint8_t>(SectionId::Specs)) {
      char IdByte = static_cast<char>(Id);
      H = fnv1a64(std::string_view(&IdByte, 1), H);
      H = fnv1a64(Payload, H);
    }
  }
  return H;
}

//===----------------------------------------------------------------------===//
// On-disk cache
//===----------------------------------------------------------------------===//

std::string irdl::specCachePath(const std::string &Dir, uint64_t Hash) {
  char Hex[17];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Hash));
  std::string Path = Dir;
  if (!Path.empty() && Path.back() != '/')
    Path += '/';
  Path += Hex;
  Path += ".irbc";
  return Path;
}

namespace {

/// The source hash embedded in a buffer's Meta section, or nullopt when
/// the buffer has none (or cannot be walked). A cheap pre-scan so stale
/// cache entries are rejected before any spec registers into the
/// destination context.
std::optional<uint64_t> embeddedSourceHash(std::string_view Buffer) {
  if (!isBytecodeBuffer(Buffer))
    return std::nullopt;
  DiagnosticEngine Scratch;
  BytecodeCursor C(Buffer.substr(sizeof(Magic)), Scratch, sizeof(Magic));
  uint64_t Version;
  if (!C.readVarInt(Version) || Version != FormatVersion)
    return std::nullopt;
  while (!C.atEnd()) {
    uint8_t Id;
    if (!C.readByte(Id))
      return std::nullopt;
    uint64_t Len;
    if (!C.readFixed64(Len))
      return std::nullopt;
    std::string_view Payload;
    if (!C.readBytes(Len, Payload))
      return std::nullopt;
    if (Id == static_cast<uint8_t>(SectionId::Meta)) {
      BytecodeCursor MC(Payload, Scratch);
      uint64_t Hash;
      if (!MC.readFixed64(Hash))
        return std::nullopt;
      return Hash;
    }
  }
  return std::nullopt;
}

} // namespace

LogicalResult irdl::loadCachedSpec(const std::string &Dir, uint64_t Hash,
                                   IRContext &Ctx, DiagnosticEngine &Diags,
                                   BytecodeReadResult &Result,
                                   const IRDLLoadOptions &Opts) {
  std::string Path = specCachePath(Dir, Hash);
  struct stat St;
  if (::stat(Path.c_str(), &St) != 0)
    return failure(); // Absent: a plain miss, no diagnostics.

  std::string Buffer, Error;
  if (failed(readFileToString(Path, Buffer, Error))) {
    Diags.emitWarning(SMLoc(), "discarding unreadable spec cache entry: " +
                                   Error);
    ::unlink(Path.c_str());
    return failure();
  }

  // Validate the embedded hash before registering anything: an entry
  // whose content does not re-declare the hash it is filed under is
  // stale or corrupt, and must not poison the destination context.
  std::optional<uint64_t> Embedded = embeddedSourceHash(Buffer);
  if (!Embedded || *Embedded != Hash) {
    Diags.emitWarning(SMLoc(), "discarding stale spec cache entry '" + Path +
                                   "' (embedded hash mismatch)");
    ::unlink(Path.c_str());
    return failure();
  }

  BytecodeReader Reader(Ctx, Diags, Opts);
  if (failed(Reader.read(Buffer, Result, Path))) {
    ::unlink(Path.c_str());
    return failure();
  }
  return success();
}

LogicalResult irdl::storeCachedSpec(const std::string &Dir, uint64_t Hash,
                                    const IRDLModule &Specs,
                                    DiagnosticEngine &Diags) {
  if (::mkdir(Dir.c_str(), 0755) != 0 && errno != EEXIST) {
    Diags.emitError(SMLoc(),
                    "cannot create spec cache directory '" + Dir + "'");
    return failure();
  }

  BytecodeWriter Writer;
  Writer.addModuleSpecs(Specs);
  Writer.setSourceHash(Hash);
  std::string Bytes = Writer.write();

  // Temp-and-rename: concurrent processes loading from the same cache
  // directory either see the complete entry or none at all.
  std::string Path = specCachePath(Dir, Hash);
  std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  {
    std::ofstream Out(Tmp, std::ios::binary | std::ios::trunc);
    if (!Out) {
      Diags.emitError(SMLoc(), "cannot open '" + Tmp + "' for writing");
      return failure();
    }
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
    Out.flush();
    if (!Out) {
      Diags.emitError(SMLoc(), "error writing '" + Tmp + "'");
      ::unlink(Tmp.c_str());
      return failure();
    }
  }
  if (std::rename(Tmp.c_str(), Path.c_str()) != 0) {
    Diags.emitError(SMLoc(), "cannot rename '" + Tmp + "' to '" + Path + "'");
    ::unlink(Tmp.c_str());
    return failure();
  }
  return success();
}
