//===- BytecodeWriter.cpp - .irbc emission ------------------------------===//
///
/// Section emission order inside write(): specs first, then the IR walk
/// (which populates the type/attribute pool as a side effect), and the
/// string table last — it is only complete once every other section has
/// interned its strings. The file itself leads with the string table so
/// the reader can decode sections in file order.

#include "bytecode/Bytecode.h"

#include "bytecode/Encoding.h"
#include "ir/Block.h"
#include "ir/Region.h"
#include "support/Statistic.h"
#include "support/Timing.h"

#include <unordered_map>

using namespace irdl;
using namespace irdl::bytecode;

IRDL_STATISTIC(Bytecode, NumOpsWritten, "irdl_bytecode_ops_written_total",
               "operations serialized to bytecode");
IRDL_STATISTIC(Bytecode, NumPoolEntriesWritten,
               "irdl_bytecode_pool_entries_written_total",
               "type/attr pool entries serialized");
IRDL_STATISTIC(Bytecode, NumSpecsWritten, "irdl_bytecode_specs_written_total",
               "dialect specs serialized");
IRDL_STATISTIC(Bytecode, NumBytesWritten, "irdl_bytecode_bytes_written_total",
               "bytecode bytes produced");

namespace {

/// Wire tags for ParamValue kinds (decoupled from the in-memory enum).
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

/// Wire tags for Constraint kinds.
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
};

} // namespace

struct BytecodeWriter::Impl {
  std::vector<const DialectSpec *> Specs;
  Operation *Root = nullptr;
  uint64_t SourceHash = 0;
  bool Written = false;

  //===------------------------------------------------------------------===//
  // String table
  //===------------------------------------------------------------------===//

  std::unordered_map<std::string, uint64_t> StringIds;
  std::vector<const std::string *> Strings;

  uint64_t internString(std::string_view S) {
    auto [It, Inserted] = StringIds.try_emplace(std::string(S), 0);
    if (Inserted) {
      It->second = Strings.size();
      Strings.push_back(&It->first);
    }
    return It->second;
  }

  void writeString(BytecodeOutput &Out, std::string_view S) {
    Out.writeVarInt(internString(S));
  }

  //===------------------------------------------------------------------===//
  // Type/attribute pool
  //===------------------------------------------------------------------===//

  // Keyed by the uniqued storage pointer; entries are appended to PoolOut
  // children-first, so every back-reference has a smaller index.
  std::unordered_map<const void *, uint64_t> PoolIds;
  BytecodeOutput PoolOut;
  uint64_t NumPoolEntries = 0;

  uint64_t internType(Type T) {
    auto It = PoolIds.find(T.getImpl());
    if (It != PoolIds.end())
      return It->second;
    BytecodeOutput Entry;
    Entry.writeByte(0); // type tag
    writeString(Entry, T.getDef()->getFullName());
    encodeParams(Entry, T.getParams());
    uint64_t Id = NumPoolEntries++;
    PoolIds.emplace(T.getImpl(), Id);
    PoolOut.writeBytes(Entry.str());
    ++NumPoolEntriesWritten;
    return Id;
  }

  uint64_t internAttr(Attribute A) {
    auto It = PoolIds.find(A.getImpl());
    if (It != PoolIds.end())
      return It->second;
    BytecodeOutput Entry;
    Entry.writeByte(1); // attr tag
    writeString(Entry, A.getDef()->getFullName());
    encodeParams(Entry, A.getParams());
    uint64_t Id = NumPoolEntries++;
    PoolIds.emplace(A.getImpl(), Id);
    PoolOut.writeBytes(Entry.str());
    ++NumPoolEntriesWritten;
    return Id;
  }

  void encodeParams(BytecodeOutput &Out,
                    const std::vector<ParamValue> &Params) {
    Out.writeVarInt(Params.size());
    for (const ParamValue &P : Params)
      encodeParamValue(Out, P);
  }

  void encodeParamValue(BytecodeOutput &Out, const ParamValue &P) {
    switch (P.getKind()) {
    case ParamValue::Kind::Empty:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Empty));
      break;
    case ParamValue::Kind::Type:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Type));
      Out.writeVarInt(internType(P.getType()));
      break;
    case ParamValue::Kind::Attr:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Attr));
      Out.writeVarInt(internAttr(P.getAttr()));
      break;
    case ParamValue::Kind::Int:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Int));
      encodeIntVal(Out, P.getInt());
      break;
    case ParamValue::Kind::Float:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Float));
      encodeFloatVal(Out, P.getFloat());
      break;
    case ParamValue::Kind::String:
      Out.writeByte(static_cast<uint8_t>(ParamTag::String));
      writeString(Out, P.getString());
      break;
    case ParamValue::Kind::Enum:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Enum));
      writeString(Out, P.getEnum().Def->getFullName());
      Out.writeVarInt(P.getEnum().Index);
      break;
    case ParamValue::Kind::Array: {
      Out.writeByte(static_cast<uint8_t>(ParamTag::Array));
      const auto &Elems = P.getArray();
      Out.writeVarInt(Elems.size());
      for (const ParamValue &E : Elems)
        encodeParamValue(Out, E);
      break;
    }
    case ParamValue::Kind::Opaque:
      Out.writeByte(static_cast<uint8_t>(ParamTag::Opaque));
      writeString(Out, P.getOpaque().ParamTypeName);
      writeString(Out, P.getOpaque().Payload);
      break;
    }
  }

  void encodeIntVal(BytecodeOutput &Out, const IntVal &V) {
    Out.writeVarInt(V.Width);
    Out.writeByte(static_cast<uint8_t>(V.Sign));
    Out.writeSignedVarInt(V.Value);
  }

  void encodeFloatVal(BytecodeOutput &Out, const FloatVal &V) {
    Out.writeVarInt(V.Width);
    Out.writeDouble(V.Value);
  }

  //===------------------------------------------------------------------===//
  // IR section
  //===------------------------------------------------------------------===//

  std::unordered_map<const detail::ValueImpl *, uint64_t> ValueIds;
  std::unordered_map<const Block *, uint64_t> BlockIds; // index in region
  uint64_t NumValues = 0;

  /// Pre-pass mirroring the reader's creation order: results first, then
  /// per region all block arguments, then nested ops. Operand references
  /// may then point forward (graph regions, CFG back-edges) and still
  /// have an assigned id.
  void numberOp(Operation *Op) {
    for (unsigned I = 0, N = Op->getNumResults(); I != N; ++I)
      ValueIds.emplace(Op->getResult(I).getImpl(), NumValues++);
    for (Region &R : Op->getRegions()) {
      uint64_t BlockIndex = 0;
      for (Block &B : R) {
        BlockIds.emplace(&B, BlockIndex++);
        for (unsigned I = 0, N = B.getNumArguments(); I != N; ++I)
          ValueIds.emplace(B.getArgument(I).getImpl(), NumValues++);
      }
      for (Block &B : R)
        for (Operation &Nested : B)
          numberOp(&Nested);
    }
  }

  void writeOp(BytecodeOutput &Out, Operation *Op) {
    ++NumOpsWritten;
    writeString(Out, Op->getName().str());
    Out.writeVarInt(Op->getNumResults());
    for (unsigned I = 0, N = Op->getNumResults(); I != N; ++I)
      Out.writeVarInt(internType(Op->getResult(I).getType()));
    Out.writeVarInt(Op->getNumOperands());
    for (unsigned I = 0, N = Op->getNumOperands(); I != N; ++I)
      Out.writeVarInt(ValueIds.at(Op->getOperand(I).getImpl()));
    const NamedAttrList &Attrs = Op->getAttrs();
    Out.writeVarInt(Attrs.size());
    for (const NamedAttribute &NA : Attrs) {
      writeString(Out, NA.Name);
      Out.writeVarInt(internAttr(NA.Attr));
    }
    Out.writeVarInt(Op->getNumSuccessors());
    for (Block *Succ : Op->getSuccessors())
      Out.writeVarInt(BlockIds.at(Succ));
    Out.writeVarInt(Op->getNumRegions());
    for (Region &R : Op->getRegions())
      writeRegion(Out, R);
  }

  void writeRegion(BytecodeOutput &Out, Region &R) {
    Out.writeVarInt(R.getNumBlocks());
    for (Block &B : R) {
      Out.writeVarInt(B.getNumArguments());
      for (unsigned I = 0, N = B.getNumArguments(); I != N; ++I)
        Out.writeVarInt(internType(B.getArgument(I).getType()));
    }
    for (Block &B : R) {
      Out.writeVarInt(B.getNumOps());
      for (Operation &Op : B)
        writeOp(Out, &Op);
    }
  }

  //===------------------------------------------------------------------===//
  // Specs section
  //===------------------------------------------------------------------===//

  void encodeConstraint(BytecodeOutput &Out, const Constraint &C) {
    auto Tag = [&](ConstraintTag T) {
      Out.writeByte(static_cast<uint8_t>(T));
    };
    auto Children = [&]() {
      Out.writeVarInt(C.getChildren().size());
      for (const Constraint *Child : C.getChildren())
        encodeConstraint(Out, *Child);
    };
    switch (C.getKind()) {
    case Constraint::Kind::AnyType:
      return Tag(ConstraintTag::AnyType);
    case Constraint::Kind::AnyAttr:
      return Tag(ConstraintTag::AnyAttr);
    case Constraint::Kind::AnyParam:
      return Tag(ConstraintTag::AnyParam);
    case Constraint::Kind::TypeParams:
      Tag(ConstraintTag::TypeParams);
      writeString(Out, C.getTypeDef()->getFullName());
      Out.writeByte(C.isBaseOnly() ? 1 : 0);
      return Children();
    case Constraint::Kind::AttrParams:
      Tag(ConstraintTag::AttrParams);
      writeString(Out, C.getAttrDef()->getFullName());
      Out.writeByte(C.isBaseOnly() ? 1 : 0);
      return Children();
    case Constraint::Kind::IntKind:
      Tag(ConstraintTag::IntKind);
      Out.writeVarInt(C.getIntWidth());
      return Out.writeByte(static_cast<uint8_t>(C.getIntSign()));
    case Constraint::Kind::IntEq:
      Tag(ConstraintTag::IntEq);
      return encodeIntVal(Out, C.getIntVal());
    case Constraint::Kind::FloatKind:
      Tag(ConstraintTag::FloatKind);
      return Out.writeVarInt(C.getFloatVal().Width);
    case Constraint::Kind::FloatEq:
      Tag(ConstraintTag::FloatEq);
      return encodeFloatVal(Out, C.getFloatVal());
    case Constraint::Kind::StringKind:
      return Tag(ConstraintTag::StringKind);
    case Constraint::Kind::StringEq:
      Tag(ConstraintTag::StringEq);
      return writeString(Out, C.getString());
    case Constraint::Kind::EnumKind:
      Tag(ConstraintTag::EnumKind);
      return writeString(Out, C.getEnumDef()->getFullName());
    case Constraint::Kind::EnumEq:
      Tag(ConstraintTag::EnumEq);
      writeString(Out, C.getEnumVal().Def->getFullName());
      return Out.writeVarInt(C.getEnumVal().Index);
    case Constraint::Kind::ArrayOf:
      Tag(ConstraintTag::ArrayOf);
      return Children();
    case Constraint::Kind::ArrayExact:
      Tag(ConstraintTag::ArrayExact);
      return Children();
    case Constraint::Kind::OpaqueKind:
      Tag(ConstraintTag::OpaqueKind);
      return writeString(Out, C.getString());
    case Constraint::Kind::AnyOf:
      Tag(ConstraintTag::AnyOf);
      return Children();
    case Constraint::Kind::And:
      Tag(ConstraintTag::And);
      return Children();
    case Constraint::Kind::Not:
      Tag(ConstraintTag::Not);
      return Children();
    case Constraint::Kind::Var:
      Tag(ConstraintTag::Var);
      Out.writeVarInt(C.getVarIndex());
      return writeString(Out, C.getString());
    case Constraint::Kind::Cpp:
      // The interpreted predicate recompiles from its source on read.
      Tag(ConstraintTag::Cpp);
      writeString(Out, C.getString());
      return Children();
    case Constraint::Kind::Native:
      // Native callbacks re-resolve by name through IRDLLoadOptions.
      Tag(ConstraintTag::Native);
      writeString(Out, C.getString());
      return Children();
    case Constraint::Kind::Named:
      Tag(ConstraintTag::Named);
      writeString(Out, C.getString());
      return Children();
    }
  }

  void encodeOperandSpecs(BytecodeOutput &Out,
                          std::span<const OperandSpec> Specs) {
    Out.writeVarInt(Specs.size());
    for (const OperandSpec &S : Specs) {
      writeString(Out, S.Name);
      Out.writeByte(static_cast<uint8_t>(S.VK));
      encodeConstraint(Out, *S.Constr);
    }
  }

  void encodeParamSpecs(BytecodeOutput &Out,
                        std::span<const ParamSpec> Specs) {
    Out.writeVarInt(Specs.size());
    for (const ParamSpec &S : Specs) {
      writeString(Out, S.Name);
      encodeConstraint(Out, *S.Constr);
    }
  }

  /// The name/shape tables pass 1 of the reader needs to create skeleton
  /// definitions before any constraint in the buffer is decoded.
  void encodeSpecSkeleton(BytecodeOutput &Out, const DialectSpec &Spec) {
    writeString(Out, Spec.Name);
    Out.writeVarInt(Spec.Enums.size());
    for (const EnumSpec &E : Spec.Enums) {
      writeString(Out, E.Name);
      Out.writeVarInt(E.Cases.size());
      for (std::string_view Case : E.Cases)
        writeString(Out, Case);
    }
    auto TypeOrAttrSkeleton = [&](std::span<const TypeOrAttrSpec> TAs) {
      Out.writeVarInt(TAs.size());
      for (const TypeOrAttrSpec &TA : TAs) {
        writeString(Out, TA.Name);
        writeString(Out, TA.Summary);
        Out.writeVarInt(TA.Params.size());
        for (const ParamSpec &P : TA.Params)
          writeString(Out, P.Name);
      }
    };
    TypeOrAttrSkeleton(Spec.Types);
    TypeOrAttrSkeleton(Spec.Attrs);
    Out.writeVarInt(Spec.Ops.size());
    for (const OpSpec &Op : Spec.Ops) {
      writeString(Out, Op.Name);
      writeString(Out, Op.Summary);
    }
  }

  void encodeSpecBody(BytecodeOutput &Out, const DialectSpec &Spec) {
    ++NumSpecsWritten;
    Out.writeVarInt(Spec.ParamTypes.size());
    for (const ParamTypeSpec &P : Spec.ParamTypes) {
      writeString(Out, P.Name);
      writeString(Out, P.Summary);
      writeString(Out, P.CppClassName);
      writeString(Out, P.CppParserSrc);
      writeString(Out, P.CppPrinterSrc);
    }

    Out.writeVarInt(Spec.Constraints.size());
    for (const NamedConstraintSpec &C : Spec.Constraints) {
      writeString(Out, C.Name);
      writeString(Out, C.Summary);
      Out.writeByte(C.HasCpp ? 1 : 0);
      encodeConstraint(Out, *C.Constr);
    }

    Out.writeVarInt(Spec.Aliases.size());
    for (const AliasSpec &A : Spec.Aliases) {
      Out.writeByte(static_cast<uint8_t>(A.Sigil));
      writeString(Out, A.Name);
      Out.writeVarInt(A.Params.size());
      for (std::string_view P : A.Params)
        writeString(Out, P);
      Out.writeByte(A.Body ? 1 : 0);
      if (A.Body)
        encodeConstraint(Out, *A.Body);
    }

    auto TypeOrAttrBody = [&](std::span<const TypeOrAttrSpec> TAs) {
      Out.writeVarInt(TAs.size());
      for (const TypeOrAttrSpec &TA : TAs) {
        writeString(Out, TA.Name);
        encodeParamSpecs(Out, TA.Params);
        Out.writeByte(TA.CppConstraintSrc.empty() ? 0 : 1);
        if (!TA.CppConstraintSrc.empty())
          writeString(Out, TA.CppConstraintSrc);
      }
    };
    TypeOrAttrBody(Spec.Types);
    TypeOrAttrBody(Spec.Attrs);

    Out.writeVarInt(Spec.Ops.size());
    for (const OpSpec &Op : Spec.Ops) {
      writeString(Out, Op.Name);
      Out.writeVarInt(Op.VarNames.size());
      for (std::string_view V : Op.VarNames)
        writeString(Out, V);
      for (const Constraint *C : Op.VarConstraints)
        encodeConstraint(Out, *C);
      encodeOperandSpecs(Out, Op.Operands);
      encodeOperandSpecs(Out, Op.Results);
      encodeParamSpecs(Out, Op.Attributes);
      Out.writeVarInt(Op.Regions.size());
      for (const RegionSpec &R : Op.Regions) {
        writeString(Out, R.Name);
        encodeOperandSpecs(Out, R.Args);
        writeString(Out, R.TerminatorOpName);
      }
      Out.writeByte(Op.Successors ? 1 : 0);
      if (Op.Successors) {
        Out.writeVarInt(Op.Successors->size());
        for (std::string_view S : *Op.Successors)
          writeString(Out, S);
      }
      Out.writeByte(Op.HasFormat ? 1 : 0);
      if (Op.HasFormat)
        writeString(Out, Op.FormatSrc);
      Out.writeByte(Op.CppConstraintSrc.empty() ? 0 : 1);
      if (!Op.CppConstraintSrc.empty())
        writeString(Out, Op.CppConstraintSrc);
    }
  }

  //===------------------------------------------------------------------===//
  // Assembly
  //===------------------------------------------------------------------===//

  /// Section header: id byte + fixed 8-byte little-endian payload
  /// length (docs/serialization.md, "Container").
  static void writeSection(BytecodeOutput &File, SectionId Id,
                           const std::string &Payload) {
    File.writeByte(static_cast<uint8_t>(Id));
    File.writeFixed64(Payload.size());
    File.writeBytes(Payload);
  }

  std::string render() {
    IRDL_TIME_SCOPE("bytecode-write");

    BytecodeOutput SpecsOut;
    if (!Specs.empty()) {
      IRDL_TIME_SCOPE("write-specs");
      SpecsOut.writeVarInt(Specs.size());
      for (const DialectSpec *Spec : Specs) {
        BytecodeOutput Skeleton, Body;
        encodeSpecSkeleton(Skeleton, *Spec);
        encodeSpecBody(Body, *Spec);
        SpecsOut.writeVarInt(Skeleton.size());
        SpecsOut.writeBytes(Skeleton.str());
        SpecsOut.writeVarInt(Body.size());
        SpecsOut.writeBytes(Body.str());
      }
    }

    BytecodeOutput IROut;
    if (Root) {
      IRDL_TIME_SCOPE("write-ir");
      numberOp(Root);
      writeOp(IROut, Root);
    }

    // The string table is complete only now.
    BytecodeOutput StringsOut;
    StringsOut.writeVarInt(Strings.size());
    for (const std::string *S : Strings) {
      StringsOut.writeVarInt(S->size());
      StringsOut.writeBytes(*S);
    }

    BytecodeOutput File;
    File.writeBytes(std::string_view(Magic, sizeof(Magic)));
    File.writeVarInt(FormatVersion);
    writeSection(File, SectionId::Strings, StringsOut.str());
    if (!Specs.empty())
      writeSection(File, SectionId::Specs, SpecsOut.str());
    if (Root) {
      BytecodeOutput PoolSection;
      PoolSection.writeVarInt(NumPoolEntries);
      PoolSection.writeBytes(PoolOut.str());
      writeSection(File, SectionId::TypeAttrPool, PoolSection.str());
      writeSection(File, SectionId::IR, IROut.str());
    }
    if (SourceHash != 0) {
      BytecodeOutput MetaOut;
      MetaOut.writeFixed64(SourceHash);
      writeSection(File, SectionId::Meta, MetaOut.str());
    }
    NumBytesWritten += File.size();
    return File.take();
  }
};

BytecodeWriter::BytecodeWriter() : I(std::make_unique<Impl>()) {}
BytecodeWriter::~BytecodeWriter() = default;

void BytecodeWriter::addDialectSpec(const DialectSpec &Spec) {
  I->Specs.push_back(&Spec);
}

void BytecodeWriter::addModuleSpecs(const IRDLModule &Module) {
  for (const auto &Spec : Module.getDialects())
    I->Specs.push_back(Spec.get());
}

void BytecodeWriter::setModule(Operation *Root) { I->Root = Root; }

void BytecodeWriter::setSourceHash(uint64_t Hash) { I->SourceHash = Hash; }

std::string BytecodeWriter::write() {
  assert(!I->Written && "BytecodeWriter::write() is single-shot");
  I->Written = true;
  return I->render();
}

bool irdl::isBytecodeBuffer(std::string_view Buffer) {
  return Buffer.size() >= sizeof(Magic) &&
         Buffer.compare(0, sizeof(Magic),
                        std::string_view(Magic, sizeof(Magic))) == 0;
}
