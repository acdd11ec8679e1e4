//===- Printer.h - Textual IR printing ---------------------------*- C++ -*-===//
///
/// \file
/// Printing of types, attributes, parameter values, and operations in the
/// MLIR-like textual syntax. Operations print in the generic form
/// (`%r = "d.op"(%a) : (T) -> T`) unless their definition installs a custom
/// print hook — which is what IRDL `Format` directives compile into.
///
/// Everything prints by appending to one caller-owned std::string, so a
/// print allocates only when that buffer (or the printer's name tables)
/// grows.
///
//===----------------------------------------------------------------------===//

#ifndef IRDL_IR_PRINTER_H
#define IRDL_IR_PRINTER_H

#include "ir/Operation.h"

#include <initializer_list>
#include <string>
#include <string_view>
#include <vector>

namespace irdl {

class Block;
class Region;

/// Appends \p T in type syntax (`f32`, `i32`, `!cmath.complex<f32>`, ...).
void printType(Type T, std::string &Out);
std::string printTypeToString(Type T);

/// Appends \p A in attribute syntax. With \p Sugar, builtin attributes use
/// their short forms (`3 : i32`, `"s"`, `unit`, `[..]`, a bare type);
/// without it, the canonical `#dialect.name<...>` form is used — which is
/// the form embedded inside type/attribute parameter lists.
void printAttr(Attribute A, std::string &Out, bool Sugar = true);
std::string printAttrToString(Attribute A);

/// Appends \p P in parameter syntax.
void printParam(const ParamValue &P, std::string &Out);
std::string printParamToString(const ParamValue &P);

/// Appends a float in a form that round-trips through parsing.
void printFloatLiteral(double Value, std::string &Out);

/// Options controlling operation printing.
struct PrintOptions {
  /// Forces the generic form even when a custom print hook exists.
  bool GenericForm = false;
};

/// Stateful printer for operations: assigns SSA value names (%0, %arg0 via
/// a single counter; multi-result ops use `%n:k` / `%n#i`) and block labels
/// (^bb0) scoped to the top-level print, and appends to \p Out.
class IRPrinter {
public:
  IRPrinter(std::string &Out, PrintOptions Opts = {}) : Out(Out), Opts(Opts) {}

  /// Prints \p Op (with nested regions), indented at the current level.
  void printOp(Operation *Op);

  /// Prints only the right-hand side of \p Op (no result list, no
  /// trailing newline); used when embedding ops.
  void printOpRHS(Operation *Op);

  void printValueName(Value V);
  void printBlockName(Block *B);
  void printRegion(Region &R, bool PrintEntryArgs = false);
  void printAttrDict(const NamedAttrList &Attrs,
                     std::initializer_list<std::string_view> Elided = {});

  PrintOptions &getOptions() { return Opts; }
  void indent();

private:
  /// Ids of pointers in first-sight order: an open-addressing table that
  /// allocates only when it grows.
  class IdTable {
  public:
    /// The id of \p Key; on first sight the next unused one.
    unsigned getOrAssign(const void *Key);

  private:
    struct Slot {
      const void *Key = nullptr;
      unsigned Id = 0;
    };
    size_t slotOf(const void *Key) const;
    void grow();

    std::vector<Slot> Slots;
    unsigned Shift = 0;
    unsigned NextId = 0;
  };

  void printGenericOp(Operation *Op);
  void printBlock(Block &B, bool PrintHeader);
  /// The id of \p V; the results of one operation share the id of its
  /// first result.
  unsigned valueId(Value V);

  std::string &Out;
  PrintOptions Opts;
  unsigned Indent = 0;
  IdTable ValueIds;
  IdTable BlockIds;

  friend class CustomOpPrinter;
};

/// The restricted printer interface handed to custom print hooks (native
/// ones for builtin ops, generated ones for IRDL `Format` directives).
class CustomOpPrinter {
public:
  explicit CustomOpPrinter(IRPrinter &P) : P(P) {}

  CustomOpPrinter &operator<<(std::string_view Str) {
    P.Out += Str;
    return *this;
  }

  void printOperand(Value V) { P.printValueName(V); }
  void printType(Type T) { irdl::printType(T, P.Out); }
  void printAttribute(Attribute A) { irdl::printAttr(A, P.Out); }
  void printParam(const ParamValue &PV) { irdl::printParam(PV, P.Out); }
  void printBlockName(Block *B) { P.printBlockName(B); }
  void printRegion(Region &R, bool PrintEntryArgs = false) {
    P.printRegion(R, PrintEntryArgs);
  }
  void printOptionalAttrDict(
      const NamedAttrList &Attrs,
      std::initializer_list<std::string_view> Elided = {}) {
    P.printAttrDict(Attrs, Elided);
  }

private:
  IRPrinter &P;
};

/// Convenience: prints \p Op to a string (custom form where available).
std::string printOpToString(Operation *Op, PrintOptions Opts = {});

} // namespace irdl

#endif // IRDL_IR_PRINTER_H
