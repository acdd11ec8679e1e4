//===- Bytecode.h - Binary serialization of IR and IRDL specs ----*- C++ -*-===//
///
/// \file
/// The `.irbc` binary bytecode format: a sectioned, versioned container
/// holding IRDL dialect specifications and/or one IR module, designed so
/// that loading pays neither lexing nor parsing nor semantic analysis.
/// Dialect specs deserialize straight into the Spec.h object model and are
/// installed through the regular registration pass (reusing pass 3 of the
/// IRDL loader); IR reconstructs through OpBuilder against the context's
/// uniquer, with types and attributes decoded once into interned pools and
/// referenced by varint index everywhere else.
///
/// See docs/serialization.md for the byte-level layout and the versioning
/// policy.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_BYTECODE_BYTECODE_H
#define IRDL_BYTECODE_BYTECODE_H

#include "ir/IRParser.h"
#include "irdl/IRDL.h"

#include <string>
#include <string_view>

namespace irdl {

/// Returns true if \p Buffer starts with the `.irbc` magic — the sniff
/// used by drivers to dispatch between the textual parser and the
/// bytecode reader regardless of file extension.
bool isBytecodeBuffer(std::string_view Buffer);

/// Returns true if \p Buffer is a bytecode buffer whose top-level section
/// walk encounters a Specs section (even a truncated one). A cheap
/// pre-scan — no section payload is decoded — used by the verification
/// server to reject spec-bearing VERIFY payloads before BytecodeReader
/// would register their dialects into a context shared across requests.
/// Buffers the scan cannot walk (bad magic/version, truncated section
/// header) return false: the full reader fails on them at the same point,
/// before any spec registration, and produces the actual diagnostic.
bool bytecodeBufferHasSpecs(std::string_view Buffer);

//===----------------------------------------------------------------------===//
// BytecodeWriter
//===----------------------------------------------------------------------===//

/// Serializes IRDL dialect specs and (optionally) one IR module into a
/// `.irbc` buffer. Usage:
///
///   BytecodeWriter Writer;
///   Writer.addDialectSpec(*Spec);   // zero or more
///   Writer.setModule(M.get());      // optional
///   std::string Bytes = Writer.write();
///
/// The writer is single-shot: write() renders the sections collected so
/// far and may be called once.
class BytecodeWriter {
public:
  BytecodeWriter();
  ~BytecodeWriter();
  BytecodeWriter(const BytecodeWriter &) = delete;
  BytecodeWriter &operator=(const BytecodeWriter &) = delete;

  /// Schedules \p Spec for the Specs section. Specs are emitted in the
  /// order added; a spec whose constraints reference another dialect's
  /// definitions does not require that dialect to be in the same buffer
  /// (the reader resolves against the destination context).
  void addDialectSpec(const DialectSpec &Spec);

  /// Convenience: schedules every dialect of \p Module.
  void addModuleSpecs(const IRDLModule &Module);

  /// Schedules \p Root (typically a builtin.module) for the IR section.
  /// The operation is not modified; it must outlive write().
  void setModule(Operation *Root);

  /// Records the 64-bit content hash of the source this buffer is being
  /// generated from. Nonzero hashes are emitted into the Meta section,
  /// which the on-disk spec cache checks to invalidate stale entries
  /// (docs/serialization.md, "Spec cache").
  void setSourceHash(uint64_t Hash);

  /// Renders the full buffer: magic, version, and all sections.
  std::string write();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
};

//===----------------------------------------------------------------------===//
// BytecodeReader
//===----------------------------------------------------------------------===//

/// The result of reading a `.irbc` buffer: the dialects registered from
/// its Specs section (may be empty) and the IR module from its IR section
/// (may be null for spec-only buffers).
struct BytecodeReadResult {
  std::unique_ptr<IRDLModule> Specs;
  OwningOpRef Module;
  /// The source content hash from the Meta section, or 0 when the buffer
  /// carries none.
  uint64_t SourceHash = 0;
};

/// Deserializes `.irbc` buffers into an IRContext. Dialect specs are
/// registered into the context exactly as a textual IRDL load would
/// (constraint programs compiled from the decoded trees, verifiers
/// built, formats installed, terminators flagged); native
/// constraint references resolve through the same IRDLLoadOptions hooks.
/// All failures — version mismatch, truncation, corruption, unresolvable
/// names — are reported through the DiagnosticEngine as structured,
/// caret-free diagnostics carrying the byte offset.
class BytecodeReader {
public:
  BytecodeReader(IRContext &Ctx, DiagnosticEngine &Diags,
                 const IRDLLoadOptions &Opts = {});
  ~BytecodeReader();
  BytecodeReader(const BytecodeReader &) = delete;
  BytecodeReader &operator=(const BytecodeReader &) = delete;

  /// Reads \p Buffer. On failure returns failure() with diagnostics
  /// emitted; the context may then contain partially registered dialect
  /// skeletons (same contract as a failed textual loadIRDL).
  ///
  /// \p BufferName, when nonempty, labels diagnostics that concern the
  /// buffer as a whole (version mismatch, bad magic) so a failing
  /// `--dialect foo.irbc` names the offending file.
  ///
  /// Nothing read keeps a reference into \p Buffer: specs decode into
  /// owned trees and their programs are compiled from those trees, so
  /// the caller may overwrite or free the buffer as soon as read()
  /// returns.
  LogicalResult read(std::string_view Buffer, BytecodeReadResult &Result,
                     std::string BufferName = {});

private:
  struct Impl;
  IRContext &Ctx;
  DiagnosticEngine &Diags;
  IRDLLoadOptions Opts;
};

//===----------------------------------------------------------------------===//
// Convenience entry points
//===----------------------------------------------------------------------===//

/// Serializes \p Root plus the dialects of \p Specs (when given) and
/// writes the buffer to \p Path. Reports I/O failures through \p Diags.
LogicalResult writeBytecodeFile(const std::string &Path, Operation *Root,
                                const IRDLModule *Specs,
                                DiagnosticEngine &Diags);

/// Reads the `.irbc` file at \p Path into \p Ctx.
LogicalResult readBytecodeFile(const std::string &Path, IRContext &Ctx,
                               DiagnosticEngine &Diags,
                               BytecodeReadResult &Result,
                               const IRDLLoadOptions &Opts = {});

} // namespace irdl

#endif // IRDL_BYTECODE_BYTECODE_H
