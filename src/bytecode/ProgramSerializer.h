//===- ProgramSerializer.h - ConstraintProgram <-> .irbc ---------*- C++ -*-===//
///
/// \file
/// Serialization of compiled ConstraintPrograms into the `.irbc` Programs
/// section (format v2). The wire form mirrors the in-memory form: the
/// flat 12-byte CInstr array, the child-index array, and the dispatch-
/// table alternative array are written as raw little-endian bytes at
/// 8-byte-aligned offsets, and the reader copy-decodes them into storage
/// the program owns, so a program never aliases its input buffer.
/// Everything pointer-shaped (definition pools, dispatch-table keys, C++
/// predicates, native hooks) is written as qualified names / sources and
/// re-resolved per context at read time.
///
/// A decoded program is validated structurally before use (opcode range,
/// pool bounds, strictly-forward child edges), so corrupt or truncated
/// buffers are rejected cleanly instead of executing out-of-bounds.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_BYTECODE_PROGRAMSERIALIZER_H
#define IRDL_BYTECODE_PROGRAMSERIALIZER_H

#include "bytecode/Encoding.h"
#include "irdl/ConstraintProgram.h"
#include "irdl/IRDL.h"

#include <functional>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace irdl {

class IRContext;

namespace bytecode {

/// Encodes programs into a Programs-section body. Offsets are measured
/// relative to the start of the body output, which the section assembly
/// places at an 8-byte-aligned absolute offset — so body-relative
/// alignment is absolute alignment.
class ProgramWriter {
public:
  /// \p WriteString interns a string into the file's string table and
  /// writes its varint index to the given output.
  ProgramWriter(BytecodeOutput &Body,
                std::function<void(BytecodeOutput &, std::string_view)>
                    WriteString)
      : Body(Body), WriteString(std::move(WriteString)) {}

  /// Writes a presence byte, then (if \p P is non-null) the program.
  void writeOptional(const ConstraintProgram *P);

private:
  void writeProgram(const ConstraintProgram &P);

  BytecodeOutput &Body;
  std::function<void(BytecodeOutput &, std::string_view)> WriteString;
};

/// Decodes programs from a Programs-section body. Every decoded program
/// owns copies of its flat arrays, so the buffer may change or go away
/// as soon as the read returns.
class ProgramReader {
public:
  ProgramReader(IRContext &Ctx, DiagnosticEngine &Diags,
                const IRDLLoadOptions &Opts,
                const std::vector<std::string_view> &Strings)
      : Ctx(Ctx), Diags(Diags), Opts(Opts), Strings(Strings) {}

  /// Reads one optional program (presence byte first). Returns failure
  /// on corrupt input; a present, well-formed program lands in \p Out
  /// (null when absent). \p NumVars, the owning operation's variable
  /// count (0 outside operations), bounds Var opcode indices.
  LogicalResult readOptional(BytecodeCursor &C, uint64_t NumVars,
                             ConstraintProgramPtr &Out);

private:
  std::shared_ptr<ConstraintProgram> readProgram(BytecodeCursor &C,
                                                 uint64_t NumVars);
  bool readString(BytecodeCursor &C, std::string_view &Out);
  bool validate(BytecodeCursor &C, const ConstraintProgram &P,
                uint64_t NumVars);

  IRContext &Ctx;
  DiagnosticEngine &Diags;
  const IRDLLoadOptions &Opts;
  const std::vector<std::string_view> &Strings;

  /// Read-side memoization, shared by every program of one section: the
  /// same definition names, C++ predicate sources, and native hook names
  /// recur across the hundreds of small programs a dialect carries, so
  /// each is resolved/recompiled once per read instead of once per
  /// program. Keys are views into the file string table, which outlives
  /// the reader.
  std::unordered_map<std::string_view, TypeDefinition *> TypeDefCache;
  std::unordered_map<std::string_view, AttrDefinition *> AttrDefCache;
  std::unordered_map<std::string_view, EnumDef *> EnumDefCache;
  std::unordered_map<std::string_view, CppParamPredicate> CppPredCache;
  std::unordered_map<std::string_view, NativeConstraintFn> NativeFnCache;
};

} // namespace bytecode
} // namespace irdl

#endif // IRDL_BYTECODE_PROGRAMSERIALIZER_H
