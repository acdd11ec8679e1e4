//===- Encoding.h - .irbc low-level encoding primitives ----------*- C++ -*-===//
///
/// \file
/// The byte-level vocabulary of the `.irbc` bytecode format: LEB128
/// varints (zig-zag for signed values), raw little-endian doubles, and the
/// sectioned container layout. BytecodeOutput appends primitives to a byte
/// buffer; BytecodeCursor reads them back with bounds checks and reports
/// truncation/corruption through structured, caret-free diagnostics that
/// carry the absolute byte offset (docs/serialization.md).
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_BYTECODE_ENCODING_H
#define IRDL_BYTECODE_ENCODING_H

#include "support/Diagnostics.h"
#include "support/LogicalResult.h"

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>

namespace irdl {
namespace bytecode {

/// The 4-byte magic prefix of every `.irbc` buffer.
inline constexpr char Magic[4] = {'I', 'R', 'B', 'C'};

/// Bumped on any incompatible layout change. Readers hard-reject any other
/// version: bytecode is an exact-version artifact, not an archive format
/// (docs/serialization.md, "Versioning policy"). Version 2 switched every
/// section header to a fixed 8-byte length and added the Meta section;
/// version 3 dropped the serialized constraint programs (id 3), which
/// every load now compiles from the decoded constraint trees.
inline constexpr uint64_t FormatVersion = 3;

/// Section identifiers. Order in the file is fixed: Strings must precede
/// every section that interns into it; specs must be registered before
/// TypeAttrPool (pool entries resolve definitions that specs may
/// register); the pool must precede IR. Id 3 is retired (it held the
/// version-2 Programs section) and is rejected like any unknown id.
enum class SectionId : uint8_t {
  Strings = 1,
  Specs = 2,
  TypeAttrPool = 4,
  IR = 5,
  /// Trailing metadata: the 64-bit content hash of the source the buffer
  /// was generated from (on-disk spec-cache validation).
  Meta = 6,
};

/// Appends primitives to a growing byte buffer.
class BytecodeOutput {
public:
  void writeByte(uint8_t B) { Bytes.push_back(static_cast<char>(B)); }

  /// Unsigned LEB128.
  void writeVarInt(uint64_t V) {
    while (V >= 0x80) {
      writeByte(static_cast<uint8_t>(V) | 0x80);
      V >>= 7;
    }
    writeByte(static_cast<uint8_t>(V));
  }

  /// Zig-zag signed LEB128.
  void writeSignedVarInt(int64_t V) {
    writeVarInt((static_cast<uint64_t>(V) << 1) ^
                static_cast<uint64_t>(V >> 63));
  }

  /// Raw little-endian IEEE-754 double (8 bytes).
  void writeDouble(double V) {
    uint64_t Raw;
    static_assert(sizeof(Raw) == sizeof(V));
    std::memcpy(&Raw, &V, sizeof(Raw));
    for (unsigned I = 0; I != 8; ++I)
      writeByte(static_cast<uint8_t>(Raw >> (8 * I)));
  }

  /// Raw little-endian 64-bit integer. Section headers use a fixed
  /// 8-byte length (not a varint), so every pre-scan that walks the
  /// section list (spec-hash, Meta lookup, has-specs) reads a header
  /// the same way.
  void writeFixed64(uint64_t V) {
    for (unsigned I = 0; I != 8; ++I)
      writeByte(static_cast<uint8_t>(V >> (8 * I)));
  }

  void writeBytes(std::string_view Data) { Bytes.append(Data); }

  const std::string &str() const { return Bytes; }
  std::string take() { return std::move(Bytes); }
  size_t size() const { return Bytes.size(); }

private:
  std::string Bytes;
};

/// A bounds-checked reading position over a byte buffer. Every primitive
/// read reports failure through the DiagnosticEngine with the byte offset
/// where decoding stopped, and all subsequent reads fail fast — callers
/// can check hadError() once per structural unit instead of after every
/// primitive.
class BytecodeCursor {
public:
  BytecodeCursor(std::string_view Buffer, DiagnosticEngine &Diags,
                 size_t BaseOffset = 0)
      : Buffer(Buffer), Diags(Diags), BaseOffset(BaseOffset) {}

  /// Absolute offset in the enclosing file (sections get sub-cursors).
  size_t offset() const { return BaseOffset + Pos; }
  size_t remaining() const { return Buffer.size() - Pos; }
  bool atEnd() const { return Pos == Buffer.size(); }
  bool hadError() const { return Failed; }

  /// Emits a corruption diagnostic at the current offset and poisons the
  /// cursor.
  LogicalResult error(std::string Message) {
    if (!Failed)
      Diags.emitError(SMLoc(), "invalid bytecode at offset " +
                                   std::to_string(offset()) + ": " +
                                   std::move(Message));
    Failed = true;
    return failure();
  }

  bool readByte(uint8_t &B) {
    if (Failed)
      return false;
    if (Pos >= Buffer.size()) {
      error("truncated buffer (expected one more byte)");
      return false;
    }
    B = static_cast<uint8_t>(Buffer[Pos++]);
    return true;
  }

  bool readVarInt(uint64_t &V) {
    V = 0;
    unsigned Shift = 0;
    uint8_t B;
    do {
      if (Shift >= 64)
        return error("varint exceeds 64 bits"), false;
      if (!readByte(B))
        return false;
      V |= static_cast<uint64_t>(B & 0x7F) << Shift;
      Shift += 7;
    } while (B & 0x80);
    return true;
  }

  bool readSignedVarInt(int64_t &V) {
    uint64_t Raw;
    if (!readVarInt(Raw))
      return false;
    V = static_cast<int64_t>((Raw >> 1) ^ (~(Raw & 1) + 1));
    return true;
  }

  bool readFixed64(uint64_t &V) {
    V = 0;
    for (unsigned I = 0; I != 8; ++I) {
      uint8_t B;
      if (!readByte(B))
        return false;
      V |= static_cast<uint64_t>(B) << (8 * I);
    }
    return true;
  }

  bool readDouble(double &V) {
    uint64_t Raw = 0;
    for (unsigned I = 0; I != 8; ++I) {
      uint8_t B;
      if (!readByte(B))
        return false;
      Raw |= static_cast<uint64_t>(B) << (8 * I);
    }
    std::memcpy(&V, &Raw, sizeof(V));
    return true;
  }

  /// Reads \p N raw bytes into \p Out (a view into the buffer).
  bool readBytes(size_t N, std::string_view &Out) {
    if (Failed)
      return false;
    if (remaining() < N) {
      error("truncated buffer (need " + std::to_string(N) +
            " bytes, have " + std::to_string(remaining()) + ")");
      return false;
    }
    Out = Buffer.substr(Pos, N);
    Pos += N;
    return true;
  }

  /// Reads a varint and bounds-checks it against \p Limit (an element
  /// count or index upper bound), rejecting corrupt sizes before any
  /// allocation.
  bool readVarIntBelow(uint64_t Limit, std::string_view What,
                       uint64_t &V) {
    if (!readVarInt(V))
      return false;
    if (V >= Limit) {
      error(std::string(What) + " " + std::to_string(V) +
            " out of range (limit " + std::to_string(Limit) + ")");
      return false;
    }
    return true;
  }

private:
  std::string_view Buffer;
  DiagnosticEngine &Diags;
  size_t BaseOffset;
  size_t Pos = 0;
  bool Failed = false;
};

} // namespace bytecode
} // namespace irdl

#endif // IRDL_BYTECODE_ENCODING_H
