//===- ProgramSerializer.cpp - ConstraintProgram <-> .irbc ----------------===//

#include "bytecode/ProgramSerializer.h"

#include "ir/Context.h"
#include "irdl/CppExpr.h"

#include <algorithm>
#include <cstddef>
#include <tuple>

using namespace irdl;
using namespace irdl::bytecode;

/// Bytes per instruction on the wire: Op, Flags, NumChildren (u16), A
/// (u32), ChildrenBegin (u32), little-endian. Any change is a bytecode
/// format break (bump FormatVersion).
static constexpr size_t InstrWireSize = 12;

/// Bit 1 once marked memoizable subprograms for a verdict cache that no
/// longer exists. `.irbc` files and spec-cache entries written before its
/// removal set it, so the reader still accepts it and execution ignores
/// it; the writer never emits it.
static constexpr uint8_t RetiredMemoFlag = 1u << 1;

/// Known CInstr flag bits; anything else in a decoded buffer is corrupt.
static constexpr uint8_t KnownFlags = CInstr::FlagBaseOnly | RetiredMemoFlag;

namespace {
/// Dispatch-table key kinds on the wire.
enum class TableKeyKind : uint8_t { Type = 0, Attr = 1 };
} // namespace

//===----------------------------------------------------------------------===//
// Writing
//===----------------------------------------------------------------------===//

void ProgramWriter::writeOptional(const ConstraintProgram *P) {
  Body.writeByte(P ? 1 : 0);
  if (P)
    writeProgram(*P);
}

void ProgramWriter::writeProgram(const ConstraintProgram &P) {
  Body.writeVarInt(P.Instrs.size());
  Body.writeVarInt(P.Children.size());
  Body.writeVarInt(P.TableAlts.size());

  // The three flat arrays, raw little-endian at 8-aligned (body-relative
  // == absolute) offsets. Field-wise emission keeps the file identical
  // regardless of host endianness.
  Body.alignTo(ProgramSectionAlign);
  for (const CInstr &Ins : P.Instrs) {
    Body.writeByte(static_cast<uint8_t>(Ins.Op));
    Body.writeByte(static_cast<uint8_t>(Ins.Flags & ~RetiredMemoFlag));
    Body.writeByte(static_cast<uint8_t>(Ins.NumChildren));
    Body.writeByte(static_cast<uint8_t>(Ins.NumChildren >> 8));
    Body.writeFixed32(Ins.A);
    Body.writeFixed32(Ins.ChildrenBegin);
  }
  Body.alignTo(ProgramSectionAlign);
  for (uint32_t Child : P.Children)
    Body.writeFixed32(Child);
  Body.alignTo(ProgramSectionAlign);
  for (uint32_t Alt : P.TableAlts)
    Body.writeFixed32(Alt);

  // Pools. Uniqued definition pointers travel as qualified names and are
  // re-resolved against the destination context.
  Body.writeVarInt(P.TypeDefs.size());
  for (const TypeDefinition *Def : P.TypeDefs)
    WriteString(Body, Def->getFullName());
  Body.writeVarInt(P.AttrDefs.size());
  for (const AttrDefinition *Def : P.AttrDefs)
    WriteString(Body, Def->getFullName());
  Body.writeVarInt(P.Ints.size());
  for (const IntVal &V : P.Ints) {
    Body.writeVarInt(V.Width);
    Body.writeByte(static_cast<uint8_t>(V.Sign));
    Body.writeSignedVarInt(V.Value);
  }
  Body.writeVarInt(P.Floats.size());
  for (const FloatVal &V : P.Floats) {
    Body.writeVarInt(V.Width);
    Body.writeDouble(V.Value);
  }
  Body.writeVarInt(P.Strings.size());
  for (const std::string &S : P.Strings)
    WriteString(Body, S);
  Body.writeVarInt(P.EnumDefs.size());
  for (const EnumDef *Def : P.EnumDefs)
    WriteString(Body, Def->getFullName());
  Body.writeVarInt(P.EnumVals.size());
  for (const EnumVal &V : P.EnumVals) {
    WriteString(Body, V.Def->getFullName());
    Body.writeVarInt(V.Index);
  }
  // std::function slots travel as the sources/names they were built
  // from; the reader recompiles / re-resolves them.
  Body.writeVarInt(P.CppSrcs.size());
  for (const std::string &Src : P.CppSrcs)
    WriteString(Body, Src);
  Body.writeVarInt(P.NativeNames.size());
  for (const std::string &Name : P.NativeNames)
    WriteString(Body, Name);

  // Dispatch tables: (key kind, key pool index, alt slice) triples. The
  // slices index the TableAlts array written above; entries are sorted
  // for byte-deterministic output (unordered_map iteration is not).
  Body.writeVarInt(P.Tables.size());
  for (const ConstraintProgram::DispatchTable &Table : P.Tables) {
    struct Entry {
      TableKeyKind Kind;
      uint32_t PoolIdx;
      uint32_t Begin;
      uint32_t Count;
    };
    std::vector<Entry> Entries;
    Entries.reserve(Table.Map.size());
    for (const auto &[Key, Slice] : Table.Map) {
      Entry E{TableKeyKind::Type, 0, Slice.first, Slice.second};
      bool Found = false;
      for (uint32_t I = 0; I != P.TypeDefs.size() && !Found; ++I)
        if (P.TypeDefs[I] == Key) {
          E.Kind = TableKeyKind::Type;
          E.PoolIdx = I;
          Found = true;
        }
      for (uint32_t I = 0; I != P.AttrDefs.size() && !Found; ++I)
        if (P.AttrDefs[I] == Key) {
          E.Kind = TableKeyKind::Attr;
          E.PoolIdx = I;
          Found = true;
        }
      assert(Found && "dispatch key missing from definition pools");
      Entries.push_back(E);
    }
    std::sort(Entries.begin(), Entries.end(),
              [](const Entry &A, const Entry &B) {
                return std::tie(A.Kind, A.PoolIdx) <
                       std::tie(B.Kind, B.PoolIdx);
              });
    Body.writeVarInt(Entries.size());
    for (const Entry &E : Entries) {
      Body.writeByte(static_cast<uint8_t>(E.Kind));
      Body.writeVarInt(E.PoolIdx);
      Body.writeVarInt(E.Begin);
      Body.writeVarInt(E.Count);
    }
  }
}

//===----------------------------------------------------------------------===//
// Reading
//===----------------------------------------------------------------------===//

bool ProgramReader::readString(BytecodeCursor &C, std::string_view &Out) {
  uint64_t Id;
  if (!C.readVarIntBelow(Strings.size(), "string index", Id))
    return false;
  Out = Strings[Id];
  return true;
}

LogicalResult
ProgramReader::readOptional(BytecodeCursor &C, uint64_t NumVars,
                            ConstraintProgramPtr &Out) {
  Out = nullptr;
  uint8_t Present;
  if (!C.readByte(Present))
    return failure();
  if (Present > 1) {
    C.error("invalid program presence byte " + std::to_string(Present));
    return failure();
  }
  if (!Present)
    return success();
  Out = readProgram(C, NumVars);
  return Out ? success() : failure();
}

std::shared_ptr<ConstraintProgram>
ProgramReader::readProgram(BytecodeCursor &C, uint64_t NumVars) {
  auto P = std::make_shared<ConstraintProgram>();

  uint64_t NumInstrs, NumChildren, NumTableAlts;
  // Each instruction/index occupies a fixed byte count, so the remaining
  // payload bounds the plausible element counts — corrupt sizes are
  // rejected before any allocation.
  if (!C.readVarIntBelow(C.remaining() / InstrWireSize + 1,
                         "program instruction count", NumInstrs) ||
      !C.readVarIntBelow(C.remaining() / sizeof(uint32_t) + 1,
                         "program child count", NumChildren) ||
      !C.readVarIntBelow(C.remaining() / sizeof(uint32_t) + 1,
                         "program table-alt count", NumTableAlts))
    return nullptr;
  if (NumInstrs == 0) {
    C.error("empty constraint program");
    return nullptr;
  }

  // The flat arrays, copy-decoded field by field from their
  // little-endian wire form into storage the program owns.
  auto ReadArray = [&](size_t ElemSize, uint64_t Count,
                       std::string_view &Raw) {
    if (!C.skipAlignment(ProgramSectionAlign))
      return false;
    return C.readBytes(Count * ElemSize, Raw);
  };
  std::string_view RawInstrs, RawChildren, RawAlts;
  if (!ReadArray(InstrWireSize, NumInstrs, RawInstrs) ||
      !ReadArray(sizeof(uint32_t), NumChildren, RawChildren) ||
      !ReadArray(sizeof(uint32_t), NumTableAlts, RawAlts))
    return nullptr;

  auto U32At = [](const char *Raw) {
    const auto *B = reinterpret_cast<const unsigned char *>(Raw);
    return static_cast<uint32_t>(B[0]) | (static_cast<uint32_t>(B[1]) << 8) |
           (static_cast<uint32_t>(B[2]) << 16) |
           (static_cast<uint32_t>(B[3]) << 24);
  };
  P->Instrs.resize(NumInstrs);
  for (uint64_t I = 0; I != NumInstrs; ++I) {
    const char *Raw = RawInstrs.data() + I * InstrWireSize;
    const auto *B = reinterpret_cast<const unsigned char *>(Raw);
    CInstr &Ins = P->Instrs[I];
    Ins.Op = static_cast<COpcode>(B[0]);
    Ins.Flags = B[1];
    Ins.NumChildren = static_cast<uint16_t>(B[2] | (B[3] << 8));
    Ins.A = U32At(Raw + 4);
    Ins.ChildrenBegin = U32At(Raw + 8);
  }
  auto DecodeU32Array = [&](std::string_view Raw, uint64_t Count,
                            std::vector<uint32_t> &Out) {
    Out.resize(Count);
    for (uint64_t I = 0; I != Count; ++I)
      Out[I] = U32At(Raw.data() + I * sizeof(uint32_t));
  };
  DecodeU32Array(RawChildren, NumChildren, P->Children);
  DecodeU32Array(RawAlts, NumTableAlts, P->TableAlts);

  // Pools.
  auto ReadCount = [&](std::string_view What, uint64_t &N) {
    return C.readVarIntBelow(C.remaining() + 1, What, N);
  };
  uint64_t N;
  if (!ReadCount("type-def pool size", N))
    return nullptr;
  P->TypeDefs.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Name;
    if (!readString(C, Name))
      return nullptr;
    auto [It, Inserted] = TypeDefCache.try_emplace(Name, nullptr);
    if (Inserted)
      It->second = Ctx.resolveTypeDef(Name);
    if (!It->second) {
      C.error("unknown type definition '" + std::string(Name) +
              "' in program pool");
      return nullptr;
    }
    P->TypeDefs.push_back(It->second);
  }
  if (!ReadCount("attr-def pool size", N))
    return nullptr;
  P->AttrDefs.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Name;
    if (!readString(C, Name))
      return nullptr;
    auto [It, Inserted] = AttrDefCache.try_emplace(Name, nullptr);
    if (Inserted)
      It->second = Ctx.resolveAttrDef(Name);
    if (!It->second) {
      C.error("unknown attribute definition '" + std::string(Name) +
              "' in program pool");
      return nullptr;
    }
    P->AttrDefs.push_back(It->second);
  }
  if (!ReadCount("int pool size", N))
    return nullptr;
  P->Ints.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Width;
    uint8_t Sign;
    if (!C.readVarIntBelow(0x10000, "integer width", Width) ||
        !C.readByte(Sign))
      return nullptr;
    if (Sign > static_cast<uint8_t>(Signedness::Unsigned)) {
      C.error("invalid signedness " + std::to_string(Sign));
      return nullptr;
    }
    P->Ints[I].Width = static_cast<uint16_t>(Width);
    P->Ints[I].Sign = static_cast<Signedness>(Sign);
    if (!C.readSignedVarInt(P->Ints[I].Value))
      return nullptr;
  }
  if (!ReadCount("float pool size", N))
    return nullptr;
  P->Floats.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    uint64_t Width;
    if (!C.readVarIntBelow(0x10000, "float width", Width))
      return nullptr;
    P->Floats[I].Width = static_cast<uint16_t>(Width);
    if (!C.readDouble(P->Floats[I].Value))
      return nullptr;
  }
  if (!ReadCount("string pool size", N))
    return nullptr;
  P->Strings.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view S;
    if (!readString(C, S))
      return nullptr;
    P->Strings.emplace_back(S);
  }
  if (!ReadCount("enum-def pool size", N))
    return nullptr;
  P->EnumDefs.reserve(N);
  auto ResolveEnum = [&](std::string_view Name) -> EnumDef * {
    auto [It, Inserted] = EnumDefCache.try_emplace(Name, nullptr);
    if (Inserted)
      It->second = Ctx.resolveEnumDef(Name);
    return It->second;
  };
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Name;
    if (!readString(C, Name))
      return nullptr;
    EnumDef *Def = ResolveEnum(Name);
    if (!Def) {
      C.error("unknown enum '" + std::string(Name) + "' in program pool");
      return nullptr;
    }
    P->EnumDefs.push_back(Def);
  }
  if (!ReadCount("enum-value pool size", N))
    return nullptr;
  P->EnumVals.resize(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Name;
    uint64_t Index;
    if (!readString(C, Name))
      return nullptr;
    EnumDef *Def = ResolveEnum(Name);
    if (!Def) {
      C.error("unknown enum '" + std::string(Name) + "' in program pool");
      return nullptr;
    }
    if (!C.readVarIntBelow(Def->getCases().size(), "enum case index",
                           Index))
      return nullptr;
    P->EnumVals[I].Def = Def;
    P->EnumVals[I].Index = static_cast<unsigned>(Index);
  }
  if (!ReadCount("C++ predicate pool size", N))
    return nullptr;
  P->CppPreds.reserve(N);
  P->CppSrcs.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Src;
    if (!readString(C, Src))
      return nullptr;
    auto [It, Inserted] = CppPredCache.try_emplace(Src);
    if (Inserted) {
      auto Expr = CppExpr::parse(Src, Diags);
      if (!Expr) {
        CppPredCache.erase(It);
        C.error("failed to recompile IRDL-C++ constraint '" +
                std::string(Src) + "'");
        return nullptr;
      }
      It->second = [Expr](const ParamValue &V) {
        CppExpr::EvalContext EC;
        EC.Self = cppEvalFromParam(V);
        auto B = Expr->evaluateBool(EC);
        return B && *B;
      };
    }
    P->CppPreds.push_back(It->second);
    P->CppSrcs.emplace_back(Src);
  }
  if (!ReadCount("native hook pool size", N))
    return nullptr;
  P->NativeFns.reserve(N);
  P->NativeNames.reserve(N);
  for (uint64_t I = 0; I != N; ++I) {
    std::string_view Name;
    if (!readString(C, Name))
      return nullptr;
    auto [CacheIt, Inserted] = NativeFnCache.try_emplace(Name);
    if (Inserted) {
      auto It = Opts.NativeConstraints.find(std::string(Name));
      if (It == Opts.NativeConstraints.end()) {
        NativeFnCache.erase(CacheIt);
        C.error("no native constraint registered under '" +
                std::string(Name) + "'");
        return nullptr;
      }
      CacheIt->second = It->second;
    }
    P->NativeFns.push_back(CacheIt->second);
    P->NativeNames.emplace_back(Name);
  }

  // Dispatch tables: rebuilt per context from pool indices — the map
  // keys are this context's uniqued definition pointers.
  if (!ReadCount("dispatch table count", N))
    return nullptr;
  P->Tables.resize(N);
  for (uint64_t T = 0; T != N; ++T) {
    uint64_t NumEntries;
    if (!ReadCount("dispatch table entry count", NumEntries))
      return nullptr;
    for (uint64_t E = 0; E != NumEntries; ++E) {
      uint8_t Kind;
      uint64_t PoolIdx, Begin, Count;
      if (!C.readByte(Kind))
        return nullptr;
      const void *Key = nullptr;
      if (Kind == static_cast<uint8_t>(TableKeyKind::Type)) {
        if (!C.readVarIntBelow(P->TypeDefs.size(),
                               "dispatch key type-pool index", PoolIdx))
          return nullptr;
        Key = P->TypeDefs[PoolIdx];
      } else if (Kind == static_cast<uint8_t>(TableKeyKind::Attr)) {
        if (!C.readVarIntBelow(P->AttrDefs.size(),
                               "dispatch key attr-pool index", PoolIdx))
          return nullptr;
        Key = P->AttrDefs[PoolIdx];
      } else {
        C.error("invalid dispatch key kind " + std::to_string(Kind));
        return nullptr;
      }
      if (!C.readVarIntBelow(P->TableAlts.size() + 1, "dispatch slice begin",
                             Begin) ||
          !C.readVarIntBelow(P->TableAlts.size() + 1, "dispatch slice count",
                             Count))
        return nullptr;
      if (Begin + Count > P->TableAlts.size()) {
        C.error("dispatch slice [" + std::to_string(Begin) + ", +" +
                std::to_string(Count) + ") exceeds table-alt array of " +
                std::to_string(P->TableAlts.size()));
        return nullptr;
      }
      if (!P->Tables[T]
               .Map
               .emplace(Key, std::make_pair(static_cast<uint32_t>(Begin),
                                            static_cast<uint32_t>(Count)))
               .second) {
        C.error("duplicate dispatch key in table " + std::to_string(T));
        return nullptr;
      }
    }
  }

  if (!validate(C, *P, NumVars))
    return nullptr;
  return P;
}

/// Structural validation of a decoded program: every index in bounds and
/// every child/alternative edge strictly forward (the compiler emits
/// pre-order programs, so this holds for all well-formed buffers and
/// means no program loops within itself). Registration rejects unguarded
/// cycles through the Var edges between an operation's programs
/// (findUnguardedVarCycle); together, exec() terminates on anything we
/// accept.
bool ProgramReader::validate(BytecodeCursor &C, const ConstraintProgram &P,
                             uint64_t NumVars) {
  auto Reject = [&](uint32_t Pc, const std::string &Why) {
    C.error("malformed program instruction " + std::to_string(Pc) + ": " +
            Why);
    return false;
  };
  const uint32_t NumInstrs = static_cast<uint32_t>(P.Instrs.size());
  for (uint32_t Pc = 0; Pc != NumInstrs; ++Pc) {
    const CInstr &I = P.Instrs[Pc];
    if (static_cast<uint8_t>(I.Op) > static_cast<uint8_t>(COpcode::Native))
      return Reject(Pc, "unknown opcode " +
                            std::to_string(static_cast<uint8_t>(I.Op)));
    if (I.Flags & ~KnownFlags)
      return Reject(Pc, "unknown flag bits");
    if (static_cast<uint64_t>(I.ChildrenBegin) + I.NumChildren >
        P.Children.size())
      return Reject(Pc, "child slice out of bounds");
    for (uint16_t Ch = 0; Ch != I.NumChildren; ++Ch) {
      uint32_t Child = P.Children[I.ChildrenBegin + Ch];
      if (Child <= Pc || Child >= NumInstrs)
        return Reject(Pc, "child edge to instruction " +
                              std::to_string(Child) + " is not forward");
    }
    auto CheckPool = [&](size_t PoolSize, std::string_view PoolName) {
      if (I.A < PoolSize)
        return true;
      return Reject(Pc, "index " + std::to_string(I.A) + " exceeds " +
                            std::string(PoolName) + " pool");
    };
    switch (I.Op) {
    case COpcode::TypeParams:
      if (!CheckPool(P.TypeDefs.size(), "type-def"))
        return false;
      break;
    case COpcode::AttrParams:
      if (!CheckPool(P.AttrDefs.size(), "attr-def"))
        return false;
      break;
    case COpcode::IntKind:
    case COpcode::IntEq:
      if (!CheckPool(P.Ints.size(), "int"))
        return false;
      break;
    case COpcode::FloatKind:
    case COpcode::FloatEq:
      if (!CheckPool(P.Floats.size(), "float"))
        return false;
      break;
    case COpcode::StringEq:
    case COpcode::OpaqueKind:
      if (!CheckPool(P.Strings.size(), "string"))
        return false;
      break;
    case COpcode::EnumKind:
      if (!CheckPool(P.EnumDefs.size(), "enum-def"))
        return false;
      break;
    case COpcode::EnumEq:
      if (!CheckPool(P.EnumVals.size(), "enum-value"))
        return false;
      break;
    case COpcode::Var:
      if (I.A >= NumVars)
        return Reject(Pc, "variable index " + std::to_string(I.A) +
                              " exceeds declared variable count " +
                              std::to_string(NumVars));
      break;
    case COpcode::Cpp:
      if (!CheckPool(P.CppPreds.size(), "C++ predicate"))
        return false;
      if (I.NumChildren != 1)
        return Reject(Pc, "C++ constraint needs exactly one child");
      break;
    case COpcode::Native:
      if (!CheckPool(P.NativeFns.size(), "native hook"))
        return false;
      if (I.NumChildren != 1)
        return Reject(Pc, "native constraint needs exactly one child");
      break;
    case COpcode::Not:
      if (I.NumChildren != 1)
        return Reject(Pc, "negation needs exactly one child");
      break;
    case COpcode::ArrayOf:
      if (I.NumChildren > 1)
        return Reject(Pc, "array-of takes at most one child");
      break;
    case COpcode::AnyOfTable: {
      if (!CheckPool(P.Tables.size(), "dispatch table"))
        return false;
      for (const auto &[Key, Slice] : P.Tables[I.A].Map)
        for (uint32_t A = 0; A != Slice.second; ++A) {
          uint32_t Alt = P.TableAlts[Slice.first + A];
          if (Alt <= Pc || Alt >= NumInstrs)
            return Reject(Pc, "dispatch edge to instruction " +
                                  std::to_string(Alt) + " is not forward");
        }
      break;
    }
    default:
      break;
    }
  }
  return true;
}
