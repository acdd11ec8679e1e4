//===- BytecodeReader.cpp - .irbc loading -------------------------------===//
///
/// Reading mirrors the loader's three passes for specs (skeleton
/// definitions first so constraints in the same buffer can resolve them,
/// then constraint decoding, then the regular registration pass) and uses
/// a two-phase scheme for IR: every op is created with zero operands while
/// its results and block arguments are assigned dense value ids in
/// creation order, and operand references are resolved in one fixup pass
/// at the end — forward references in graph regions and CFG back-edges
/// need no special casing.

#include "bytecode/Bytecode.h"

#include "bytecode/Encoding.h"
#include "bytecode/ProgramSerializer.h"
#include "ir/Block.h"
#include "ir/Region.h"
#include "irdl/CppExpr.h"
#include "irdl/Registration.h"
#include "support/File.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <fstream>

using namespace irdl;
using namespace irdl::bytecode;

IRDL_STATISTIC(Bytecode, NumOpsRead, "operations deserialized from bytecode");
IRDL_STATISTIC(Bytecode, NumPoolEntriesRead,
               "type/attr pool entries deserialized");
IRDL_STATISTIC(Bytecode, NumSpecsRead, "dialect specs deserialized");
IRDL_STATISTIC(Bytecode, NumBytesRead, "bytecode bytes consumed");

namespace {

// Wire tags; must match BytecodeWriter.cpp (docs/serialization.md).
enum class ParamTag : uint8_t {
  Empty = 0,
  Type = 1,
  Attr = 2,
  Int = 3,
  Float = 4,
  String = 5,
  Enum = 6,
  Array = 7,
  Opaque = 8,
};

enum class ConstraintTag : uint8_t {
  AnyType = 0,
  AnyAttr = 1,
  AnyParam = 2,
  TypeParams = 3,
  AttrParams = 4,
  IntKind = 5,
  IntEq = 6,
  FloatKind = 7,
  FloatEq = 8,
  StringKind = 9,
  StringEq = 10,
  EnumKind = 11,
  EnumEq = 12,
  ArrayOf = 13,
  ArrayExact = 14,
  OpaqueKind = 15,
  AnyOf = 16,
  And = 17,
  Not = 18,
  Var = 19,
  Cpp = 20,
  Native = 21,
  Named = 22,
  MaxTag = Named,
};

} // namespace

struct BytecodeReader::Impl {
  IRContext &Ctx;
  DiagnosticEngine &Diags;
  const IRDLLoadOptions &Opts;

  std::vector<std::string_view> Strings;
  bool StringsRead = false;
  /// Names whole-buffer diagnostics (bad magic, version mismatch) after
  /// the file the buffer came from; empty for anonymous buffers.
  std::string BufferName;

  /// Specs decoded from the Specs section but not yet registered:
  /// registration (which compiles any constraint slot lacking a program)
  /// is deferred until after the Programs section has had a chance to
  /// install serialized programs into these slots.
  std::vector<std::shared_ptr<DialectSpec>> PendingSpecs;
  bool HaveSpecs = false;
  bool SpecsRegistered = false;
  /// Combined type/attribute pool; every entry is a Type or Attr
  /// ParamValue.
  std::vector<ParamValue> Pool;

  /// Value-id table and deferred operand references for the IR section:
  /// every op's operand ids back to back in OperandIds, and per op with
  /// operands the slice it owns.
  std::vector<Value> Values;
  std::vector<uint64_t> OperandIds;
  struct OperandFixup {
    Operation *Op;
    size_t Begin;
    size_t Count;
  };
  std::vector<OperandFixup> Fixups;

  /// Op definitions by string-table index, each resolved on the first op
  /// that names it. Sized by the string table when the IR section starts,
  /// after every spec section has been registered.
  struct CachedOpDef {
    const OpDefinition *Def = nullptr;
    bool Resolved = false;
  };
  std::vector<CachedOpDef> OpDefs;

  /// Filled by every readOp and consumed by its Operation::create, which
  /// happens before the op's regions (and the ops nested in them) are
  /// read, so one state serves the whole section without reallocating.
  OperationState State;

  Impl(IRContext &Ctx, DiagnosticEngine &Diags, const IRDLLoadOptions &Opts)
      : Ctx(Ctx), Diags(Diags), Opts(Opts), State(Ctx, OperationName()) {}

  //===------------------------------------------------------------------===//
  // Shared decoding helpers
  //===------------------------------------------------------------------===//

  bool readString(BytecodeCursor &C, std::string_view &S) {
    uint64_t Id;
    if (!C.readVarIntBelow(Strings.size(), "string index", Id))
      return false;
    S = Strings[Id];
    return true;
  }

  /// Reads an element count; every encoded element occupies at least one
  /// byte, so any count above the remaining section size is corrupt —
  /// rejected here before any allocation sized by it.
  bool readCount(BytecodeCursor &C, std::string_view What, uint64_t &N) {
    return C.readVarIntBelow(C.remaining() + 1, What, N);
  }

  bool readPoolType(BytecodeCursor &C, Type &T) {
    uint64_t Id;
    if (!C.readVarIntBelow(Pool.size(), "type pool index", Id))
      return false;
    if (!Pool[Id].isType()) {
      C.error("pool entry " + std::to_string(Id) + " is not a type");
      return false;
    }
    T = Pool[Id].getType();
    return true;
  }

  bool readPoolAttr(BytecodeCursor &C, Attribute &A) {
    uint64_t Id;
    if (!C.readVarIntBelow(Pool.size(), "attribute pool index", Id))
      return false;
    if (!Pool[Id].isAttr()) {
      C.error("pool entry " + std::to_string(Id) + " is not an attribute");
      return false;
    }
    A = Pool[Id].getAttr();
    return true;
  }

  bool readIntVal(BytecodeCursor &C, IntVal &V) {
    uint64_t Width;
    uint8_t Sign;
    if (!C.readVarIntBelow(0x10000, "integer width", Width) ||
        !C.readByte(Sign))
      return false;
    if (Sign > static_cast<uint8_t>(Signedness::Unsigned)) {
      C.error("invalid signedness " + std::to_string(Sign));
      return false;
    }
    V.Width = static_cast<uint16_t>(Width);
    V.Sign = static_cast<Signedness>(Sign);
    return C.readSignedVarInt(V.Value);
  }

  bool readFloatVal(BytecodeCursor &C, FloatVal &V) {
    uint64_t Width;
    if (!C.readVarIntBelow(0x10000, "float width", Width))
      return false;
    // The only widths the text parser makes (f16/f32/f64).
    if (Width != 16 && Width != 32 && Width != 64) {
      C.error("invalid float width " + std::to_string(Width));
      return false;
    }
    V.Width = static_cast<uint16_t>(Width);
    return C.readDouble(V.Value);
  }

  bool readEnumVal(BytecodeCursor &C, EnumVal &V) {
    std::string_view Name;
    uint64_t Index;
    if (!readString(C, Name))
      return false;
    EnumDef *Def = Ctx.resolveEnumDef(Name);
    if (!Def) {
      C.error("unknown enum '" + std::string(Name) + "'");
      return false;
    }
    if (!C.readVarIntBelow(Def->getCases().size(), "enum case index", Index))
      return false;
    V.Def = Def;
    V.Index = static_cast<unsigned>(Index);
    return true;
  }

  bool readParamValue(BytecodeCursor &C, ParamValue &P) {
    uint8_t Tag;
    if (!C.readByte(Tag))
      return false;
    switch (static_cast<ParamTag>(Tag)) {
    case ParamTag::Empty:
      P = ParamValue();
      return true;
    case ParamTag::Type: {
      Type T;
      if (!readPoolType(C, T))
        return false;
      P = T;
      return true;
    }
    case ParamTag::Attr: {
      Attribute A;
      if (!readPoolAttr(C, A))
        return false;
      P = A;
      return true;
    }
    case ParamTag::Int: {
      IntVal V;
      if (!readIntVal(C, V))
        return false;
      P = V;
      return true;
    }
    case ParamTag::Float: {
      FloatVal V;
      if (!readFloatVal(C, V))
        return false;
      P = V;
      return true;
    }
    case ParamTag::String: {
      std::string_view S;
      if (!readString(C, S))
        return false;
      P = std::string(S);
      return true;
    }
    case ParamTag::Enum: {
      EnumVal V;
      if (!readEnumVal(C, V))
        return false;
      P = V;
      return true;
    }
    case ParamTag::Array: {
      uint64_t N;
      if (!readCount(C, "array length", N))
        return false;
      std::vector<ParamValue> Elems(N);
      for (ParamValue &E : Elems)
        if (!readParamValue(C, E))
          return false;
      P = std::move(Elems);
      return true;
    }
    case ParamTag::Opaque: {
      std::string_view Kind, Payload;
      if (!readString(C, Kind) || !readString(C, Payload))
        return false;
      P = OpaqueVal{std::string(Kind), std::string(Payload)};
      return true;
    }
    }
    C.error("unknown parameter tag " + std::to_string(Tag));
    return false;
  }

  //===------------------------------------------------------------------===//
  // Sections
  //===------------------------------------------------------------------===//

  LogicalResult readStringsSection(BytecodeCursor &C) {
    uint64_t N;
    if (!readCount(C, "string count", N))
      return failure();
    Strings.reserve(N);
    for (uint64_t I = 0; I != N; ++I) {
      uint64_t Len;
      std::string_view S;
      if (!C.readVarInt(Len) || !C.readBytes(Len, S))
        return failure();
      Strings.push_back(S);
    }
    StringsRead = true;
    return success();
  }

  LogicalResult readPoolSection(BytecodeCursor &C) {
    IRDL_TIME_SCOPE("read-pool");
    uint64_t N;
    if (!readCount(C, "pool entry count", N))
      return failure();
    Pool.reserve(N);
    for (uint64_t I = 0; I != N; ++I) {
      uint8_t Tag;
      std::string_view Name;
      uint64_t NumParams;
      if (!C.readByte(Tag) || !readString(C, Name) ||
          !readCount(C, "parameter count", NumParams))
        return failure();
      std::vector<ParamValue> Params(NumParams);
      for (ParamValue &P : Params)
        if (!readParamValue(C, P))
          return failure();
      if (Tag == 0) {
        TypeDefinition *Def = Ctx.resolveTypeDef(Name);
        if (!Def)
          return C.error("unknown type definition '" + std::string(Name) +
                         "'");
        Type T = Ctx.getTypeChecked(Def, std::move(Params), Diags);
        if (!T)
          return failure();
        Pool.push_back(T);
      } else if (Tag == 1) {
        AttrDefinition *Def = Ctx.resolveAttrDef(Name);
        if (!Def)
          return C.error("unknown attribute definition '" +
                         std::string(Name) + "'");
        Attribute A = Ctx.getAttrChecked(Def, std::move(Params), Diags);
        if (!A)
          return failure();
        Pool.push_back(A);
      } else {
        return C.error("unknown pool entry tag " + std::to_string(Tag));
      }
      ++NumPoolEntriesRead;
    }
    return success();
  }

  //===------------------------------------------------------------------===//
  // Specs section
  //===------------------------------------------------------------------===//

  ConstraintPtr readConstraint(BytecodeCursor &C, uint64_t NumVars) {
    uint8_t Tag;
    if (!C.readByte(Tag))
      return nullptr;
    if (Tag > static_cast<uint8_t>(ConstraintTag::MaxTag)) {
      C.error("unknown constraint tag " + std::to_string(Tag));
      return nullptr;
    }
    auto ReadChildren = [&](std::vector<ConstraintPtr> &Out) {
      uint64_t N;
      if (!readCount(C, "constraint child count", N))
        return false;
      Out.reserve(N);
      for (uint64_t I = 0; I != N; ++I) {
        ConstraintPtr Child = readConstraint(C, NumVars);
        if (!Child)
          return false;
        Out.push_back(std::move(Child));
      }
      return true;
    };
    auto ReadOneChild = [&](std::string_view What) -> ConstraintPtr {
      std::vector<ConstraintPtr> Children;
      if (!ReadChildren(Children))
        return nullptr;
      if (Children.size() != 1) {
        C.error(std::string(What) + " constraint requires exactly one "
                                    "child, got " +
                std::to_string(Children.size()));
        return nullptr;
      }
      return std::move(Children.front());
    };

    switch (static_cast<ConstraintTag>(Tag)) {
    case ConstraintTag::AnyType:
      return Constraint::anyType();
    case ConstraintTag::AnyAttr:
      return Constraint::anyAttr();
    case ConstraintTag::AnyParam:
      return Constraint::anyParam();
    case ConstraintTag::TypeParams:
    case ConstraintTag::AttrParams: {
      std::string_view Name;
      uint8_t BaseOnly;
      std::vector<ConstraintPtr> Children;
      if (!readString(C, Name) || !C.readByte(BaseOnly) ||
          !ReadChildren(Children))
        return nullptr;
      if (static_cast<ConstraintTag>(Tag) == ConstraintTag::TypeParams) {
        TypeDefinition *Def = Ctx.resolveTypeDef(Name);
        if (!Def) {
          C.error("unknown type definition '" + std::string(Name) + "'");
          return nullptr;
        }
        if (!BaseOnly && Children.size() != Def->getNumParams()) {
          C.error("constraint on '" + std::string(Name) + "' has " +
                  std::to_string(Children.size()) + " parameters, expected " +
                  std::to_string(Def->getNumParams()));
          return nullptr;
        }
        return Constraint::typeConstraint(Def, std::move(Children),
                                          BaseOnly != 0);
      }
      AttrDefinition *Def = Ctx.resolveAttrDef(Name);
      if (!Def) {
        C.error("unknown attribute definition '" + std::string(Name) + "'");
        return nullptr;
      }
      if (!BaseOnly && Children.size() != Def->getNumParams()) {
        C.error("constraint on '" + std::string(Name) + "' has " +
                std::to_string(Children.size()) + " parameters, expected " +
                std::to_string(Def->getNumParams()));
        return nullptr;
      }
      return Constraint::attrConstraint(Def, std::move(Children),
                                        BaseOnly != 0);
    }
    case ConstraintTag::IntKind: {
      uint64_t Width;
      uint8_t Sign;
      if (!C.readVarIntBelow(0x10000, "integer width", Width) ||
          !C.readByte(Sign))
        return nullptr;
      if (Sign > static_cast<uint8_t>(Signedness::Unsigned)) {
        C.error("invalid signedness " + std::to_string(Sign));
        return nullptr;
      }
      return Constraint::intKind(static_cast<unsigned>(Width),
                                 static_cast<Signedness>(Sign));
    }
    case ConstraintTag::IntEq: {
      IntVal V;
      if (!readIntVal(C, V))
        return nullptr;
      return Constraint::intEq(V);
    }
    case ConstraintTag::FloatKind: {
      uint64_t Width;
      if (!C.readVarIntBelow(0x10000, "float width", Width))
        return nullptr;
      return Constraint::floatKind(static_cast<unsigned>(Width));
    }
    case ConstraintTag::FloatEq: {
      FloatVal V;
      if (!readFloatVal(C, V))
        return nullptr;
      return Constraint::floatEq(V);
    }
    case ConstraintTag::StringKind:
      return Constraint::stringKind();
    case ConstraintTag::StringEq: {
      std::string_view S;
      if (!readString(C, S))
        return nullptr;
      return Constraint::stringEq(std::string(S));
    }
    case ConstraintTag::EnumKind: {
      std::string_view Name;
      if (!readString(C, Name))
        return nullptr;
      EnumDef *Def = Ctx.resolveEnumDef(Name);
      if (!Def) {
        C.error("unknown enum '" + std::string(Name) + "'");
        return nullptr;
      }
      return Constraint::enumKind(Def);
    }
    case ConstraintTag::EnumEq: {
      EnumVal V;
      if (!readEnumVal(C, V))
        return nullptr;
      return Constraint::enumEq(V);
    }
    case ConstraintTag::ArrayOf: {
      std::vector<ConstraintPtr> Children;
      if (!ReadChildren(Children))
        return nullptr;
      if (Children.empty())
        return Constraint::anyArray();
      if (Children.size() == 1)
        return Constraint::arrayOf(std::move(Children.front()));
      C.error("array-of constraint with " +
              std::to_string(Children.size()) + " children");
      return nullptr;
    }
    case ConstraintTag::ArrayExact: {
      std::vector<ConstraintPtr> Children;
      if (!ReadChildren(Children))
        return nullptr;
      return Constraint::arrayExact(std::move(Children));
    }
    case ConstraintTag::OpaqueKind: {
      std::string_view Name;
      if (!readString(C, Name))
        return nullptr;
      return Constraint::opaqueKind(std::string(Name));
    }
    case ConstraintTag::AnyOf: {
      std::vector<ConstraintPtr> Children;
      if (!ReadChildren(Children))
        return nullptr;
      return Constraint::anyOf(std::move(Children));
    }
    case ConstraintTag::And: {
      std::vector<ConstraintPtr> Children;
      if (!ReadChildren(Children))
        return nullptr;
      return Constraint::conjunction(std::move(Children));
    }
    case ConstraintTag::Not: {
      ConstraintPtr Inner = ReadOneChild("negation");
      return Inner ? Constraint::negation(std::move(Inner)) : nullptr;
    }
    case ConstraintTag::Var: {
      uint64_t Index;
      std::string_view Name;
      if (!C.readVarIntBelow(NumVars, "constraint variable index", Index) ||
          !readString(C, Name))
        return nullptr;
      return Constraint::var(static_cast<unsigned>(Index),
                             std::string(Name));
    }
    case ConstraintTag::Cpp: {
      std::string_view Src;
      if (!readString(C, Src))
        return nullptr;
      ConstraintPtr Base = ReadOneChild("IRDL-C++");
      if (!Base)
        return nullptr;
      // Recompile the interpreted predicate from its source, exactly as
      // the textual frontend does.
      auto Expr = CppExpr::parse(Src, Diags);
      if (!Expr) {
        C.error("failed to recompile IRDL-C++ constraint '" +
                std::string(Src) + "'");
        return nullptr;
      }
      return Constraint::cpp(
          std::move(Base),
          [Expr](const ParamValue &V) {
            CppExpr::EvalContext EC;
            EC.Self = cppEvalFromParam(V);
            auto B = Expr->evaluateBool(EC);
            return B && *B;
          },
          std::string(Src));
    }
    case ConstraintTag::Native: {
      std::string_view Name;
      if (!readString(C, Name))
        return nullptr;
      ConstraintPtr Base = ReadOneChild("native");
      if (!Base)
        return nullptr;
      auto It = Opts.NativeConstraints.find(std::string(Name));
      if (It == Opts.NativeConstraints.end()) {
        C.error("no native constraint registered under '" +
                std::string(Name) + "'");
        return nullptr;
      }
      return Constraint::native(std::move(Base), It->second,
                                std::string(Name));
    }
    case ConstraintTag::Named: {
      std::string_view Name;
      if (!readString(C, Name))
        return nullptr;
      ConstraintPtr Inner = ReadOneChild("named");
      return Inner ? Constraint::named(std::move(Inner), std::string(Name))
                   : nullptr;
    }
    }
    return nullptr;
  }

  bool readParamSpecs(BytecodeCursor &C, std::vector<ParamSpec> &Out,
                      uint64_t NumVars) {
    uint64_t N;
    if (!readCount(C, "parameter spec count", N))
      return false;
    Out.reserve(N);
    for (uint64_t I = 0; I != N; ++I) {
      std::string_view Name;
      if (!readString(C, Name))
        return false;
      ConstraintPtr Constr = readConstraint(C, NumVars);
      if (!Constr)
        return false;
      Out.push_back(ParamSpec{std::string(Name), std::move(Constr)});
    }
    return true;
  }

  bool readOperandSpecs(BytecodeCursor &C, std::vector<OperandSpec> &Out,
                        uint64_t NumVars) {
    uint64_t N;
    if (!readCount(C, "operand spec count", N))
      return false;
    Out.reserve(N);
    for (uint64_t I = 0; I != N; ++I) {
      std::string_view Name;
      uint8_t VK;
      if (!readString(C, Name) || !C.readByte(VK))
        return false;
      if (VK > static_cast<uint8_t>(VariadicKind::Variadic)) {
        C.error("invalid variadicity " + std::to_string(VK));
        return false;
      }
      ConstraintPtr Constr = readConstraint(C, NumVars);
      if (!Constr)
        return false;
      Out.push_back(OperandSpec{std::string(Name), std::move(Constr),
                                static_cast<VariadicKind>(VK)});
    }
    return true;
  }

  /// Pass 1: creates the dialect and skeleton definitions for every
  /// component, so that constraints anywhere in the buffer can resolve
  /// them by name (mirrors Sema::declareDialect).
  LogicalResult readSkeleton(BytecodeCursor &C, DialectSpec &Spec) {
    std::string_view Name;
    if (!readString(C, Name))
      return failure();
    Spec.Name = std::string(Name);
    Dialect *D = Ctx.getOrCreateDialect(Spec.Name);
    Spec.D = D;

    uint64_t NumEnums;
    if (!readCount(C, "enum count", NumEnums))
      return failure();
    for (uint64_t I = 0; I != NumEnums; ++I) {
      std::string_view EnumName;
      uint64_t NumCases;
      if (!readString(C, EnumName) || !readCount(C, "case count", NumCases))
        return failure();
      std::vector<std::string> Cases;
      Cases.reserve(NumCases);
      for (uint64_t J = 0; J != NumCases; ++J) {
        std::string_view Case;
        if (!readString(C, Case))
          return failure();
        Cases.push_back(std::string(Case));
      }
      EnumDef *Def = D->addEnum(std::string(EnumName), Cases);
      if (!Def)
        return C.error("redefinition of enum '" + std::string(EnumName) +
                       "'");
      Spec.Enums.push_back(EnumSpec{std::string(EnumName), std::move(Cases),
                                    Def});
    }

    auto ReadTypeOrAttrSkeletons =
        [&](bool IsAttr, std::vector<TypeOrAttrSpec> &Out) -> LogicalResult {
      uint64_t N;
      if (!readCount(C, "definition count", N))
        return failure();
      for (uint64_t I = 0; I != N; ++I) {
        std::string_view DefName, Summary;
        uint64_t NumParams;
        if (!readString(C, DefName) || !readString(C, Summary) ||
            !readCount(C, "parameter count", NumParams))
          return failure();
        std::vector<std::string> ParamNames;
        ParamNames.reserve(NumParams);
        for (uint64_t J = 0; J != NumParams; ++J) {
          std::string_view P;
          if (!readString(C, P))
            return failure();
          ParamNames.push_back(std::string(P));
        }
        TypeOrAttrSpec TS;
        TS.IsAttr = IsAttr;
        TS.Name = std::string(DefName);
        TS.Summary = std::string(Summary);
        TypeOrAttrDefinitionBase *Def =
            IsAttr ? static_cast<TypeOrAttrDefinitionBase *>(
                         D->addAttr(TS.Name))
                   : static_cast<TypeOrAttrDefinitionBase *>(
                         D->addType(TS.Name));
        if (!Def)
          return C.error("redefinition of " +
                         std::string(IsAttr ? "attribute" : "type") + " '" +
                         TS.Name + "'");
        Def->setParamNames(std::move(ParamNames));
        Def->setSummary(TS.Summary);
        TS.Def = Def;
        Out.push_back(std::move(TS));
      }
      return success();
    };
    if (failed(ReadTypeOrAttrSkeletons(/*IsAttr=*/false, Spec.Types)) ||
        failed(ReadTypeOrAttrSkeletons(/*IsAttr=*/true, Spec.Attrs)))
      return failure();

    uint64_t NumOps;
    if (!readCount(C, "op count", NumOps))
      return failure();
    for (uint64_t I = 0; I != NumOps; ++I) {
      std::string_view OpName, Summary;
      if (!readString(C, OpName) || !readString(C, Summary))
        return failure();
      OpSpec OS;
      OS.Name = std::string(OpName);
      OS.Summary = std::string(Summary);
      OS.Def = D->addOp(OS.Name);
      if (!OS.Def)
        return C.error("redefinition of operation '" + OS.Name + "'");
      OS.Def->setSummary(OS.Summary);
      Spec.Ops.push_back(std::move(OS));
    }
    return success();
  }

  /// Pass 2: decodes constraints and everything else into the spec whose
  /// skeletons pass 1 created.
  LogicalResult readSpecBody(BytecodeCursor &C, DialectSpec &Spec) {
    uint64_t N;
    if (!readCount(C, "parameter type count", N))
      return failure();
    for (uint64_t I = 0; I != N; ++I) {
      ParamTypeSpec P;
      std::string_view Name, Summary, CppClass, ParserSrc, PrinterSrc;
      if (!readString(C, Name) || !readString(C, Summary) ||
          !readString(C, CppClass) || !readString(C, ParserSrc) ||
          !readString(C, PrinterSrc))
        return failure();
      P.Name = std::string(Name);
      P.Summary = std::string(Summary);
      P.CppClassName = std::string(CppClass);
      P.CppParserSrc = std::string(ParserSrc);
      P.CppPrinterSrc = std::string(PrinterSrc);
      Spec.ParamTypes.push_back(std::move(P));
    }

    if (!readCount(C, "named constraint count", N))
      return failure();
    for (uint64_t I = 0; I != N; ++I) {
      NamedConstraintSpec NC;
      std::string_view Name, Summary;
      uint8_t HasCpp;
      if (!readString(C, Name) || !readString(C, Summary) ||
          !C.readByte(HasCpp))
        return failure();
      NC.Name = std::string(Name);
      NC.Summary = std::string(Summary);
      NC.HasCpp = HasCpp != 0;
      NC.Constr = readConstraint(C, /*NumVars=*/0);
      if (!NC.Constr)
        return failure();
      Spec.Constraints.push_back(std::move(NC));
    }

    if (!readCount(C, "alias count", N))
      return failure();
    for (uint64_t I = 0; I != N; ++I) {
      AliasSpec A;
      uint8_t Sigil, HasBody;
      std::string_view Name;
      uint64_t NumParams;
      if (!C.readByte(Sigil) || !readString(C, Name) ||
          !readCount(C, "alias parameter count", NumParams))
        return failure();
      A.Sigil = static_cast<char>(Sigil);
      A.Name = std::string(Name);
      for (uint64_t J = 0; J != NumParams; ++J) {
        std::string_view P;
        if (!readString(C, P))
          return failure();
        A.Params.push_back(std::string(P));
      }
      if (!C.readByte(HasBody))
        return failure();
      if (HasBody) {
        A.Body = readConstraint(C, /*NumVars=*/0);
        if (!A.Body)
          return failure();
      }
      Spec.Aliases.push_back(std::move(A));
    }

    auto ReadTypeOrAttrBodies =
        [&](std::vector<TypeOrAttrSpec> &TAs) -> LogicalResult {
      uint64_t Count;
      if (!C.readVarInt(Count))
        return failure();
      if (Count != TAs.size())
        return C.error("definition count differs between skeleton and body");
      for (TypeOrAttrSpec &TS : TAs) {
        std::string_view Name;
        if (!readString(C, Name))
          return failure();
        if (Name != TS.Name)
          return C.error("dialect body out of sync with skeleton at '" +
                         std::string(Name) + "'");
        if (!readParamSpecs(C, TS.Params, /*NumVars=*/0))
          return failure();
        uint8_t HasCpp;
        if (!C.readByte(HasCpp))
          return failure();
        if (HasCpp) {
          std::string_view Src;
          if (!readString(C, Src))
            return failure();
          TS.CppConstraintSrc = std::string(Src);
          if (TS.CppConstraintSrc.starts_with("native:")) {
            std::string NativeName = TS.CppConstraintSrc.substr(7);
            if (!Opts.NativeConstraints.count(NativeName))
              return C.error("no native constraint registered under '" +
                             NativeName + "'");
          } else {
            TS.CppConstraint = CppExpr::parse(Src, Diags);
            if (!TS.CppConstraint)
              return failure();
          }
        }
      }
      return success();
    };
    if (failed(ReadTypeOrAttrBodies(Spec.Types)) ||
        failed(ReadTypeOrAttrBodies(Spec.Attrs)))
      return failure();

    uint64_t NumOps;
    if (!C.readVarInt(NumOps))
      return failure();
    if (NumOps != Spec.Ops.size())
      return C.error("op count differs between skeleton and body");
    for (OpSpec &OS : Spec.Ops) {
      std::string_view Name;
      if (!readString(C, Name))
        return failure();
      if (Name != OS.Name)
        return C.error("dialect body out of sync with skeleton at '" +
                       std::string(Name) + "'");
      uint64_t NumVars;
      if (!readCount(C, "constraint variable count", NumVars))
        return failure();
      for (uint64_t I = 0; I != NumVars; ++I) {
        std::string_view V;
        if (!readString(C, V))
          return failure();
        OS.VarNames.push_back(std::string(V));
      }
      for (uint64_t I = 0; I != NumVars; ++I) {
        ConstraintPtr VC = readConstraint(C, NumVars);
        if (!VC)
          return failure();
        OS.VarConstraints.push_back(std::move(VC));
      }
      if (auto V = findUnguardedVarCycle(OS.VarConstraints))
        return C.error(OS.varCycleMessage(*V));
      if (!readOperandSpecs(C, OS.Operands, NumVars) ||
          !readOperandSpecs(C, OS.Results, NumVars) ||
          !readParamSpecs(C, OS.Attributes, NumVars))
        return failure();
      uint64_t NumRegions;
      if (!readCount(C, "region spec count", NumRegions))
        return failure();
      for (uint64_t I = 0; I != NumRegions; ++I) {
        RegionSpec RS;
        std::string_view RName, Term;
        if (!readString(C, RName))
          return failure();
        RS.Name = std::string(RName);
        if (!readOperandSpecs(C, RS.Args, NumVars))
          return failure();
        if (!readString(C, Term))
          return failure();
        if (!Term.empty() && !Ctx.resolveOpDef(Term))
          return C.error("unknown terminator op '" + std::string(Term) +
                         "'");
        RS.TerminatorOpName = std::string(Term);
        OS.Regions.push_back(std::move(RS));
      }
      uint8_t HasSuccessors, HasFormat, HasCpp;
      if (!C.readByte(HasSuccessors))
        return failure();
      if (HasSuccessors) {
        uint64_t NumSucc;
        if (!readCount(C, "successor count", NumSucc))
          return failure();
        std::vector<std::string> Succs;
        for (uint64_t I = 0; I != NumSucc; ++I) {
          std::string_view S;
          if (!readString(C, S))
            return failure();
          Succs.push_back(std::string(S));
        }
        OS.Successors = std::move(Succs);
      }
      if (!C.readByte(HasFormat))
        return failure();
      if (HasFormat) {
        std::string_view Src;
        if (!readString(C, Src))
          return failure();
        OS.HasFormat = true;
        OS.FormatSrc = std::string(Src);
      }
      if (!C.readByte(HasCpp))
        return failure();
      if (HasCpp) {
        std::string_view Src;
        if (!readString(C, Src))
          return failure();
        OS.CppConstraintSrc = std::string(Src);
        if (OS.CppConstraintSrc.starts_with("native:")) {
          OS.NativeVerifierName = OS.CppConstraintSrc.substr(7);
          if (!Opts.NativeOpVerifiers.count(OS.NativeVerifierName))
            return C.error("no native op verifier registered under '" +
                           OS.NativeVerifierName + "'");
        } else {
          OS.CppConstraint = CppExpr::parse(Src, Diags);
          if (!OS.CppConstraint)
            return failure();
        }
      }
    }
    return success();
  }

  LogicalResult readSpecsSection(BytecodeCursor &C) {
    IRDL_TIME_SCOPE("read-specs");
    uint64_t NumDialects;
    if (!readCount(C, "dialect count", NumDialects))
      return failure();

    struct PendingDialect {
      std::shared_ptr<DialectSpec> Spec;
      std::string_view Body;
      size_t BodyBase;
    };
    std::vector<PendingDialect> Pending;
    Pending.reserve(NumDialects);

    // Pass 1: skeletons for every dialect in the buffer, so bodies can
    // cross-reference freely.
    for (uint64_t I = 0; I != NumDialects; ++I) {
      uint64_t SkelLen, BodyLen;
      std::string_view Skel, Body;
      if (!C.readVarInt(SkelLen))
        return failure();
      size_t SkelBase = C.offset();
      if (!C.readBytes(SkelLen, Skel) || !C.readVarInt(BodyLen))
        return failure();
      size_t BodyBase = C.offset();
      if (!C.readBytes(BodyLen, Body))
        return failure();

      auto Spec = std::make_shared<DialectSpec>();
      BytecodeCursor SK(Skel, Diags, SkelBase);
      if (failed(readSkeleton(SK, *Spec)))
        return failure();
      if (!SK.atEnd())
        return SK.error("trailing bytes in dialect skeleton");
      Pending.push_back(PendingDialect{std::move(Spec), Body, BodyBase});
    }

    // Pass 2: decode constraints and full component bodies.
    for (PendingDialect &P : Pending) {
      BytecodeCursor BC(P.Body, Diags, P.BodyBase);
      if (failed(readSpecBody(BC, *P.Spec)))
        return failure();
      if (!BC.atEnd())
        return BC.error("trailing bytes in dialect body");
    }

    // Pass 3 — registration — is deferred to ensureSpecsRegistered(): a
    // Programs section, when present, installs serialized constraint
    // programs into the spec slots first, so registration skips
    // recompiling them.
    HaveSpecs = true;
    for (PendingDialect &P : Pending)
      PendingSpecs.push_back(std::move(P.Spec));
    return success();
  }

  /// Runs the regular registration pass — verifiers, terminator flags,
  /// format hooks, and compilation of any constraint slot that did not
  /// arrive with a serialized program — over the decoded specs. Called
  /// once, after the Programs section (if any) and before any section
  /// that needs the dialects registered.
  LogicalResult ensureSpecsRegistered(BytecodeReadResult &Result) {
    if (SpecsRegistered || !HaveSpecs)
      return success();
    SpecsRegistered = true;
    auto Module = std::make_unique<IRDLModule>();
    for (std::shared_ptr<DialectSpec> &Spec : PendingSpecs) {
      if (failed(registerDialectSpec(Spec, Ctx, Diags, Opts)))
        return failure();
      Module->Dialects.push_back(std::move(Spec));
      ++NumSpecsRead;
    }
    PendingSpecs.clear();
    Result.Specs = std::move(Module);
    return success();
  }

  //===------------------------------------------------------------------===//
  // Programs section
  //===------------------------------------------------------------------===//

  /// Decodes the compiled-program section into the pending specs'
  /// constraint slots. Slot order and counts are implied by the Specs
  /// section (already decoded); the section carries only a per-dialect
  /// presence byte plus the programs themselves.
  LogicalResult readProgramsSection(BytecodeCursor &C) {
    IRDL_TIME_SCOPE("read-programs");
    uint8_t PadCount;
    if (!C.readByte(PadCount))
      return failure();
    if (PadCount >= ProgramSectionAlign)
      return C.error("program section pad count " +
                     std::to_string(PadCount) + " exceeds alignment");
    std::string_view Pad;
    if (!C.readBytes(PadCount, Pad))
      return failure();
    if (C.offset() % ProgramSectionAlign != 0)
      return C.error("program section body is misaligned (offset " +
                     std::to_string(C.offset()) + " mod " +
                     std::to_string(ProgramSectionAlign) + " != 0)");

    uint64_t NumDialects;
    if (!readCount(C, "program dialect count", NumDialects))
      return failure();
    if (NumDialects != PendingSpecs.size())
      return C.error("program section covers " + std::to_string(NumDialects) +
                     " dialects but the spec section has " +
                     std::to_string(PendingSpecs.size()));

    ProgramReader PR(Ctx, Diags, Opts, Strings);
    auto ReadParams = [&](std::vector<ParamSpec> &Params, uint64_t NumVars) {
      for (ParamSpec &P : Params)
        if (failed(PR.readOptional(C, NumVars, P.Prog)))
          return failure();
      return success();
    };
    auto ReadOperands = [&](std::vector<OperandSpec> &Specs,
                            uint64_t NumVars) {
      for (OperandSpec &S : Specs)
        if (failed(PR.readOptional(C, NumVars, S.Prog)))
          return failure();
      return success();
    };

    for (std::shared_ptr<DialectSpec> &Spec : PendingSpecs) {
      uint8_t HasPrograms;
      if (!C.readByte(HasPrograms))
        return failure();
      if (HasPrograms > 1)
        return C.error("invalid program presence byte " +
                       std::to_string(HasPrograms));
      if (!HasPrograms)
        continue;
      for (TypeOrAttrSpec &TA : Spec->Types)
        if (failed(ReadParams(TA.Params, 0)))
          return failure();
      for (TypeOrAttrSpec &TA : Spec->Attrs)
        if (failed(ReadParams(TA.Params, 0)))
          return failure();
      for (OpSpec &Op : Spec->Ops) {
        uint64_t NumVars;
        if (!readCount(C, "variable program count", NumVars))
          return failure();
        if (NumVars != Op.VarConstraints.size())
          return C.error("operation '" + Op.Name + "' has " +
                         std::to_string(Op.VarConstraints.size()) +
                         " constraint variables but the program section "
                         "carries " +
                         std::to_string(NumVars));
        // Variable programs may reference each other, so they are read
        // with the op's variable count like every other slot.
        Op.VarPrograms.resize(NumVars);
        for (ConstraintProgramPtr &VP : Op.VarPrograms)
          if (failed(PR.readOptional(C, NumVars, VP)))
            return failure();
        if (failed(ReadOperands(Op.Operands, NumVars)) ||
            failed(ReadOperands(Op.Results, NumVars)) ||
            failed(ReadParams(Op.Attributes, NumVars)))
          return failure();
        for (RegionSpec &R : Op.Regions)
          if (failed(ReadOperands(R.Args, NumVars)))
            return failure();
      }
    }
    return success();
  }

  //===------------------------------------------------------------------===//
  // Meta section
  //===------------------------------------------------------------------===//

  LogicalResult readMetaSection(BytecodeCursor &C,
                                BytecodeReadResult &Result) {
    uint64_t Hash;
    if (!C.readFixed64(Hash))
      return failure();
    Result.SourceHash = Hash;
    return success();
  }

  //===------------------------------------------------------------------===//
  // IR section
  //===------------------------------------------------------------------===//

  Operation *readOp(BytecodeCursor &C,
                    const std::vector<Block *> *EnclosingBlocks) {
    uint64_t NameId;
    if (!C.readVarIntBelow(Strings.size(), "string index", NameId))
      return nullptr;
    CachedOpDef &Cached = OpDefs[NameId];
    if (!Cached.Resolved) {
      Cached.Def = Ctx.resolveOpDef(Strings[NameId]);
      Cached.Resolved = true;
    }
    if (Cached.Def)
      State.Name = OperationName(Cached.Def);
    else if (Ctx.allowsUnregisteredOps())
      State.Name = OperationName(std::string(Strings[NameId]));
    else {
      C.error("operation '" + std::string(Strings[NameId]) +
              "' has no registered definition");
      return nullptr;
    }
    State.ResultTypes.clear();
    State.Operands.clear();
    State.Attributes.clear();
    State.Successors.clear();
    State.Regions.clear();

    uint64_t NumResults;
    if (!readCount(C, "result count", NumResults))
      return nullptr;
    for (uint64_t I = 0; I != NumResults; ++I) {
      Type T;
      if (!readPoolType(C, T))
        return nullptr;
      State.ResultTypes.push_back(T);
    }

    uint64_t NumOperands;
    if (!readCount(C, "operand count", NumOperands))
      return nullptr;
    // Operand ids may point at values not created yet (graph regions, CFG
    // back-edges); they are bounds-checked and resolved in the final
    // fixup pass.
    size_t IdsBegin = OperandIds.size();
    for (uint64_t I = 0; I != NumOperands; ++I) {
      uint64_t Id;
      if (!C.readVarInt(Id))
        return nullptr;
      OperandIds.push_back(Id);
    }
    // Create the op with null operands so the fixup pass fills slots in
    // place — keeping the operand array inside the op's single allocation
    // instead of growing it afterwards.
    State.Operands.assign(NumOperands, Value());

    uint64_t NumAttrs;
    if (!readCount(C, "attribute count", NumAttrs))
      return nullptr;
    for (uint64_t I = 0; I != NumAttrs; ++I) {
      std::string_view AttrName;
      Attribute A;
      if (!readString(C, AttrName) || !readPoolAttr(C, A))
        return nullptr;
      State.addAttribute(AttrName, A);
    }

    uint64_t NumSuccessors;
    if (!readCount(C, "successor count", NumSuccessors))
      return nullptr;
    if (NumSuccessors && !EnclosingBlocks) {
      C.error("top-level operation cannot have successors");
      return nullptr;
    }
    for (uint64_t I = 0; I != NumSuccessors; ++I) {
      uint64_t BlockId;
      if (!C.readVarIntBelow(EnclosingBlocks->size(), "successor block index",
                             BlockId))
        return nullptr;
      State.addSuccessor((*EnclosingBlocks)[BlockId]);
    }

    uint64_t NumRegions;
    if (!readCount(C, "region count", NumRegions))
      return nullptr;
    for (uint64_t I = 0; I != NumRegions; ++I)
      State.addRegion();

    Operation *Op = Operation::create(State);
    ++NumOpsRead;
    for (uint64_t I = 0; I != NumResults; ++I)
      Values.push_back(Op->getResult(static_cast<unsigned>(I)));
    if (NumOperands)
      Fixups.push_back(OperandFixup{Op, IdsBegin, NumOperands});

    for (uint64_t I = 0; I != NumRegions; ++I) {
      if (failed(readRegion(C, Op->getRegion(static_cast<unsigned>(I))))) {
        Op->destroy();
        return nullptr;
      }
    }
    return Op;
  }

  LogicalResult readRegion(BytecodeCursor &C, Region &R) {
    uint64_t NumBlocks;
    if (!readCount(C, "block count", NumBlocks))
      return failure();
    // All blocks (with their arguments) exist before any op is read, so
    // successor references resolve at op-creation time.
    std::vector<Block *> Blocks;
    Blocks.reserve(NumBlocks);
    for (uint64_t I = 0; I != NumBlocks; ++I) {
      uint64_t NumArgs;
      if (!readCount(C, "block argument count", NumArgs))
        return failure();
      std::vector<Type> ArgTypes;
      for (uint64_t J = 0; J != NumArgs; ++J) {
        Type T;
        if (!readPoolType(C, T))
          return failure();
        ArgTypes.push_back(T);
      }
      Block *B = Block::create(Ctx, ArgTypes);
      R.push_back(B);
      Blocks.push_back(B);
      for (Value Arg : B->getArguments())
        Values.push_back(Arg);
    }
    for (Block *B : Blocks) {
      uint64_t NumOps;
      if (!readCount(C, "op count", NumOps))
        return failure();
      for (uint64_t I = 0; I != NumOps; ++I) {
        Operation *Op = readOp(C, &Blocks);
        if (!Op)
          return failure();
        B->push_back(Op);
      }
    }
    return success();
  }

  LogicalResult readIRSection(BytecodeCursor &C,
                              BytecodeReadResult &Result) {
    IRDL_TIME_SCOPE("read-ir");
    OpDefs.assign(Strings.size(), CachedOpDef());
    Operation *Root = readOp(C, /*EnclosingBlocks=*/nullptr);
    if (!Root)
      return failure();
    Result.Module = OwningOpRef(Root);
    for (const OperandFixup &F : Fixups) {
      for (size_t I = 0; I != F.Count; ++I) {
        uint64_t Id = OperandIds[F.Begin + I];
        if (Id >= Values.size()) {
          Result.Module.reset();
          return C.error("operand value index " + std::to_string(Id) +
                         " out of range (limit " +
                         std::to_string(Values.size()) + ")");
        }
        F.Op->setOperand(static_cast<unsigned>(I), Values[Id]);
      }
    }
    return success();
  }

  //===------------------------------------------------------------------===//
  // Top level
  //===------------------------------------------------------------------===//

  /// Prefixes whole-buffer diagnostics with the buffer's name, when one
  /// was supplied — a failing `--dialect foo.irbc` then names the file.
  std::string named(std::string Msg) const {
    return BufferName.empty() ? Msg : BufferName + ": " + std::move(Msg);
  }

  LogicalResult read(std::string_view Buffer, BytecodeReadResult &Result) {
    IRDL_TIME_SCOPE("bytecode-read");
    if (!isBytecodeBuffer(Buffer)) {
      Diags.emitError(SMLoc(), named("not an .irbc buffer (bad magic)"));
      return failure();
    }
    NumBytesRead += Buffer.size();
    BytecodeCursor C(Buffer.substr(sizeof(Magic)), Diags, sizeof(Magic));
    uint64_t Version;
    if (!C.readVarInt(Version))
      return failure();
    if (Version != FormatVersion) {
      Diags.emitError(SMLoc(),
                      named("unsupported bytecode version " +
                            std::to_string(Version) + " (expected " +
                            std::to_string(FormatVersion) + ")"));
      return failure();
    }

    uint8_t LastId = 0;
    while (!C.atEnd()) {
      uint8_t Id;
      if (!C.readByte(Id))
        return failure();
      if (Id <= LastId || Id > static_cast<uint8_t>(SectionId::Meta))
        return C.error("unknown, duplicate, or out-of-order section id " +
                       std::to_string(Id));
      LastId = Id;
      uint64_t Len;
      if (!C.readFixed64(Len))
        return failure();
      size_t PayloadBase = C.offset();
      std::string_view Payload;
      if (!C.readBytes(Len, Payload))
        return failure();
      if (static_cast<SectionId>(Id) != SectionId::Strings && !StringsRead)
        return C.error("section " + std::to_string(Id) +
                       " precedes the string table");

      // Spec registration waits for the Programs section (which installs
      // serialized programs); any later section needs it done.
      if (Id > static_cast<uint8_t>(SectionId::Programs) &&
          failed(ensureSpecsRegistered(Result)))
        return failure();

      BytecodeCursor SC(Payload, Diags, PayloadBase);
      LogicalResult SectionResult = success();
      switch (static_cast<SectionId>(Id)) {
      case SectionId::Strings:
        SectionResult = readStringsSection(SC);
        break;
      case SectionId::Specs:
        SectionResult = readSpecsSection(SC);
        break;
      case SectionId::Programs:
        SectionResult = readProgramsSection(SC);
        break;
      case SectionId::TypeAttrPool:
        SectionResult = readPoolSection(SC);
        break;
      case SectionId::IR:
        SectionResult = readIRSection(SC, Result);
        break;
      case SectionId::Meta:
        SectionResult = readMetaSection(SC, Result);
        break;
      }
      if (failed(SectionResult))
        return failure();
      if (!SC.atEnd())
        return SC.error("trailing bytes in section " + std::to_string(Id));
    }
    return ensureSpecsRegistered(Result);
  }
};

BytecodeReader::BytecodeReader(IRContext &Ctx, DiagnosticEngine &Diags,
                               const IRDLLoadOptions &Opts)
    : Ctx(Ctx), Diags(Diags), Opts(Opts) {}

BytecodeReader::~BytecodeReader() = default;

bool irdl::bytecodeBufferHasSpecs(std::string_view Buffer) {
  if (!isBytecodeBuffer(Buffer))
    return false;
  DiagnosticEngine Scratch;
  BytecodeCursor C(Buffer.substr(sizeof(Magic)), Scratch, sizeof(Magic));
  uint64_t Version;
  if (!C.readVarInt(Version) || Version != FormatVersion)
    return false;
  while (!C.atEnd()) {
    uint8_t Id;
    if (!C.readByte(Id))
      return false;
    // Report the Specs id as soon as it appears: even if its payload is
    // truncated, the full reader would decode (and register) spec
    // skeletons up to the truncation point.
    if (Id == static_cast<uint8_t>(SectionId::Specs))
      return true;
    uint64_t Len;
    if (!C.readFixed64(Len))
      return false;
    std::string_view Skipped;
    if (!C.readBytes(Len, Skipped))
      return false;
  }
  return false;
}

LogicalResult BytecodeReader::read(std::string_view Buffer,
                                   BytecodeReadResult &Result,
                                   std::string BufferName) {
  Impl I(Ctx, Diags, Opts);
  I.BufferName = std::move(BufferName);
  if (!metricsEnabled())
    return I.read(Buffer, Result);

  // Reader throughput, comparable with the text parser through the
  // shared format label.
  MetricLabels BcLabel{{"format", "bytecode"}};
  static Counter &Bytes = MetricsRegistry::instance().getCounter(
      "irdl_reader_bytes_total", "input bytes consumed by IR readers",
      BcLabel);
  static Counter &Ops = MetricsRegistry::instance().getCounter(
      "irdl_reader_ops_total", "operations materialized by IR readers",
      BcLabel);
  static Histogram &Duration = MetricsRegistry::instance().getHistogram(
      "irdl_reader_duration_ns", "wall time of one IR reader invocation",
      BcLabel);
  uint64_t Begin = steadyNowNs();
  LogicalResult R = I.read(Buffer, Result);
  Duration.record(steadyNowNs() - Begin);
  Bytes.inc(Buffer.size());
  if (succeeded(R) && Result.Module) {
    uint64_t NumOps = 0;
    Result.Module->walk([&NumOps](Operation *) { ++NumOps; });
    Ops.inc(NumOps);
  }
  return R;
}

//===----------------------------------------------------------------------===//
// File convenience entry points
//===----------------------------------------------------------------------===//

LogicalResult irdl::writeBytecodeFile(const std::string &Path,
                                      Operation *Root,
                                      const IRDLModule *Specs,
                                      DiagnosticEngine &Diags) {
  BytecodeWriter Writer;
  if (Specs)
    Writer.addModuleSpecs(*Specs);
  if (Root)
    Writer.setModule(Root);
  std::string Bytes = Writer.write();

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out) {
    Diags.emitError(SMLoc(), "cannot open '" + Path + "' for writing");
    return failure();
  }
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  Out.flush();
  if (!Out) {
    Diags.emitError(SMLoc(), "error writing '" + Path + "'");
    return failure();
  }
  return success();
}

LogicalResult irdl::readBytecodeFile(const std::string &Path, IRContext &Ctx,
                                     DiagnosticEngine &Diags,
                                     BytecodeReadResult &Result,
                                     const IRDLLoadOptions &Opts) {
  std::string Buffer, Error;
  if (failed(readFileToString(Path, Buffer, Error))) {
    Diags.emitError(SMLoc(), Error);
    return failure();
  }
  BytecodeReader Reader(Ctx, Diags, Opts);
  return Reader.read(Buffer, Result, Path);
}
