//===- IRParser.h - Textual IR parsing ---------------------------*- C++ -*-===//
///
/// \file
/// Parsing of the MLIR-like textual IR format: generic operations, custom
/// op syntax via registered parse hooks (the target of IRDL `Format`
/// directives), nested regions with labeled blocks, forward value and
/// block references, and the full type/attribute/parameter grammar.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_IRPARSER_H
#define IRDL_IR_IRPARSER_H

#include "ir/IRLexer.h"
#include "ir/Operation.h"

#include <memory>
#include <typeindex>

namespace irdl {

class IRParserImpl;

/// Owning handle to a parsed (or built) top-level operation.
class OwningOpRef {
public:
  OwningOpRef() = default;
  explicit OwningOpRef(Operation *Op) : Op(Op) {}
  OwningOpRef(OwningOpRef &&Other) : Op(Other.release()) {}
  OwningOpRef &operator=(OwningOpRef &&Other) {
    reset();
    Op = Other.release();
    return *this;
  }
  OwningOpRef(const OwningOpRef &) = delete;
  OwningOpRef &operator=(const OwningOpRef &) = delete;
  ~OwningOpRef() { reset(); }

  explicit operator bool() const { return Op != nullptr; }
  Operation *get() const { return Op; }
  Operation *operator->() const { return Op; }
  Operation &operator*() const { return *Op; }

  Operation *release() {
    Operation *Result = Op;
    Op = nullptr;
    return Result;
  }

  void reset() {
    if (Op) {
      if (Op->getBlock())
        Op->removeFromBlock();
      Op->destroy();
    }
    Op = nullptr;
  }

private:
  Operation *Op = nullptr;
};

/// The deepest nesting the IR readers (text and `.irbc`) accept, so that
/// hostile input is diagnosed instead of overflowing the stack. Regions
/// are counted apart from values: at most this many regions nest inside
/// one another, and at most this many types, attributes and parameters
/// (each one level, so `[[1]]` is three deep).
inline constexpr unsigned MaxNestingDepth = 256;

/// Parses \p Source as a module body. The buffer is registered with
/// \p SrcMgr so diagnostics render carets. Returns a null ref on error.
/// When the source contains a single top-level `module` op, that op is
/// returned; otherwise the parsed ops are wrapped in a fresh module.
OwningOpRef parseSourceString(IRContext &Ctx, std::string_view Source,
                              SourceMgr &SrcMgr, DiagnosticEngine &Diags,
                              std::string BufferName = "<input>");

/// Parses a single type from \p Source (which must be fully consumed).
Type parseTypeString(IRContext &Ctx, std::string_view Source,
                     DiagnosticEngine &Diags);

/// Parses a single attribute from \p Source.
Attribute parseAttrString(IRContext &Ctx, std::string_view Source,
                          DiagnosticEngine &Diags);

/// The restricted parser interface handed to custom parse hooks (native
/// ones for builtin ops, generated ones for IRDL `Format` directives).
/// Hooks fill in the OperationState they are given; the driving parser
/// then creates the op and binds its results.
class CustomOpParser {
public:
  /// A not-yet-resolved SSA operand reference. Name views the source
  /// buffer, which outlives the parse.
  struct UnresolvedOperand {
    std::string_view Name;
    SMLoc Loc;
  };

  CustomOpParser(IRParserImpl &Impl) : Impl(Impl) {}

  IRContext *getContext();
  SMLoc getCurrentLoc();
  LogicalResult emitError(SMLoc Loc, std::string Message);

  /// Token helpers.
  bool consumeIf(IRToken::Kind K);
  LogicalResult expect(IRToken::Kind K, std::string_view What);
  bool consumeOptionalKeyword(std::string_view Keyword);
  LogicalResult parseKeyword(std::string_view Keyword);

  /// `%name`.
  LogicalResult parseOperand(UnresolvedOperand &Result);
  bool parseOptionalOperand(UnresolvedOperand &Result);

  /// Resolves a previously parsed operand against \p Ty, appending it to
  /// \p Operands (creating a forward reference if needed).
  LogicalResult resolveOperand(const UnresolvedOperand &Operand, Type Ty,
                               std::vector<Value> &Operands);

  LogicalResult parseType(Type &Result);
  LogicalResult parseAttribute(Attribute &Result);
  LogicalResult parseParam(ParamValue &Result);
  LogicalResult parseOptionalAttrDict(NamedAttrList &Attrs);

  /// `@symbol`.
  LogicalResult parseSymbolName(std::string &Result);

  /// `^block` successor reference.
  LogicalResult parseSuccessor(Block *&Result);

  /// Parses `{...}` into \p R. \p EntryArgs, if non-empty, declares the
  /// entry block arguments (name + type) bound inside the region.
  LogicalResult
  parseRegion(Region &R,
              const std::vector<std::pair<UnresolvedOperand, Type>>
                  &EntryArgs = {});

  /// A \p T that lives until the end of the parse, default-constructed on
  /// first use: a hook keeps its buffers here to reuse them from op to op
  /// instead of allocating them for every op. There is one per type, so a
  /// hook that parses regions (whose ops may run the same hook) must not
  /// hold it across parseRegion.
  template <typename T> T &getScratch() {
    std::shared_ptr<void> &Slot = scratchSlot(std::type_index(typeid(T)));
    if (!Slot)
      Slot = std::make_shared<T>();
    return *static_cast<T *>(Slot.get());
  }

private:
  std::shared_ptr<void> &scratchSlot(std::type_index Type);

  IRParserImpl &Impl;
};

} // namespace irdl

#endif // IRDL_IR_IRPARSER_H
