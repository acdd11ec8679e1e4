//===- BytecodeErrorTest.cpp - Corrupt/truncated bytecode handling ------===//
///
/// The reader's failure contract: every malformed buffer — wrong magic,
/// unsupported version, truncation at any offset, out-of-range indices,
/// trailing garbage — produces a structured diagnostic and failure(),
/// never a crash or a silently wrong module.

#include "bytecode/Bytecode.h"
#include "bytecode/Encoding.h"

#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Printer.h"
#include "ir/Region.h"

#include <gtest/gtest.h>

#include <functional>

using namespace irdl;

namespace {

/// A valid buffer holding the cmath dialect spec plus a small module.
std::string makeValidBuffer() {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                 "/cmath.irdl",
                        SrcMgr, Diags);
  EXPECT_NE(M, nullptr) << Diags.renderAll();
  OwningOpRef IR = parseSourceString(Ctx, R"(
    std.func @f(%p: !cmath.complex<f32>, %q: !cmath.complex<f32>)
        -> f32 {
      %m = cmath.mul %p, %q : f32
      %n = cmath.norm %m : f32
      std.return %n : f32
    }
  )",
                                     SrcMgr, Diags);
  EXPECT_TRUE(IR) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*M);
  Writer.setModule(IR.get());
  return Writer.write();
}

/// Reads \p Buffer into a fresh context; returns true iff read succeeded.
bool tryRead(const std::string &Buffer, std::string *RenderedDiags,
             BytecodeReadResult *Out = nullptr) {
  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReader Reader(Ctx, Diags);
  BytecodeReadResult Result;
  bool Ok = succeeded(Reader.read(Buffer, Result));
  if (RenderedDiags)
    *RenderedDiags = Diags.renderAll();
  if (Out)
    *Out = std::move(Result);
  return Ok;
}

TEST(BytecodeError, MagicSniffing) {
  EXPECT_TRUE(isBytecodeBuffer(makeValidBuffer()));
  EXPECT_FALSE(isBytecodeBuffer(""));
  EXPECT_FALSE(isBytecodeBuffer("IRB"));
  EXPECT_FALSE(isBytecodeBuffer("builtin.module {}"));
  EXPECT_FALSE(isBytecodeBuffer("JRBC junk"));
}

TEST(BytecodeError, EmptyBuffer) {
  std::string Rendered;
  EXPECT_FALSE(tryRead("", &Rendered));
  EXPECT_NE(Rendered.find("bad magic"), std::string::npos) << Rendered;
}

TEST(BytecodeError, WrongMagic) {
  std::string Buffer = makeValidBuffer();
  Buffer[0] = 'X';
  std::string Rendered;
  EXPECT_FALSE(tryRead(Buffer, &Rendered));
  EXPECT_NE(Rendered.find("magic"), std::string::npos) << Rendered;
}

TEST(BytecodeError, UnsupportedVersion) {
  // "IRBC" + varint version 99: versioning policy is exact-match reject.
  std::string Buffer = "IRBC";
  Buffer.push_back(99);
  std::string Rendered;
  EXPECT_FALSE(tryRead(Buffer, &Rendered));
  EXPECT_NE(Rendered.find("unsupported bytecode version 99"),
            std::string::npos)
      << Rendered;
}

TEST(BytecodeError, TruncationAtEveryOffsetIsHandled) {
  std::string Buffer = makeValidBuffer();
  for (size_t Len = 0; Len < Buffer.size(); ++Len) {
    std::string Rendered;
    BytecodeReadResult Result;
    bool Ok = tryRead(Buffer.substr(0, Len), &Rendered, &Result);
    if (Ok) {
      // A prefix ending exactly on a section boundary is a structurally
      // valid (smaller) file; it must then hold strictly less content.
      EXPECT_FALSE(Result.Module) << "truncated to " << Len;
    } else {
      // Truncation inside the magic reports "bad magic"; past it, every
      // failure carries the byte offset.
      bool HasDiagnostic =
          Rendered.find("invalid bytecode") != std::string::npos ||
          Rendered.find("bad magic") != std::string::npos;
      EXPECT_TRUE(HasDiagnostic)
          << "truncated to " << Len << ": " << Rendered;
    }
  }
}

/// Byte offsets of every structural seam in the section container: end of
/// the header, each section's id byte, payload start, and payload end —
/// the boundaries a socket read is most likely to chop at.
std::vector<size_t> sectionBoundaries(const std::string &Buffer) {
  std::vector<size_t> Bounds;
  size_t Pos = 4; // magic
  while (Pos < Buffer.size() &&
         (static_cast<uint8_t>(Buffer[Pos]) & 0x80))
    ++Pos;
  ++Pos; // last version-varint byte
  Bounds.push_back(Pos);
  while (Pos < Buffer.size()) {
    Bounds.push_back(Pos); // section id
    ++Pos;
    // Headers carry a fixed 8-byte little-endian payload length.
    uint64_t Len = 0;
    for (unsigned I = 0; I != 8 && Pos < Buffer.size(); ++I)
      Len |= static_cast<uint64_t>(static_cast<uint8_t>(Buffer[Pos++]))
             << (8 * I);
    Bounds.push_back(Pos); // payload start
    Pos += Len;
    Bounds.push_back(Pos); // payload end
  }
  return Bounds;
}

TEST(BytecodeError, TruncationSweepAtSectionBoundaries) {
  std::string Buffer = makeValidBuffer();
  std::vector<size_t> Bounds = sectionBoundaries(Buffer);
  // Strings + Specs + TypeAttrPool + IR: four sections, three seams
  // each, plus the header end.
  ASSERT_GE(Bounds.size(), 13u);
  EXPECT_EQ(Bounds.back(), Buffer.size());
  for (size_t Boundary : Bounds)
    for (size_t Len : {Boundary - 1, Boundary, Boundary + 1}) {
      // The full-length "chop" is the valid file itself; strict prefixes
      // only.
      if (Len >= Buffer.size())
        continue;
      std::string Rendered;
      BytecodeReadResult Result;
      bool Ok = tryRead(Buffer.substr(0, Len), &Rendered, &Result);
      if (Ok) {
        // Ending exactly after a completed section is a structurally
        // valid smaller file — but never yields the full module.
        EXPECT_FALSE(Result.Module) << "chopped at " << Len;
      } else {
        EXPECT_NE(Rendered.find("invalid bytecode"), std::string::npos)
            << "chopped at " << Len << ": " << Rendered;
      }
    }
}

TEST(BytecodeError, RetiredProgramsSectionIdIsRejected) {
  // Id 3 held the version-2 Programs section. Inserted where that
  // section sat, right after Specs, it is an unknown id whether its
  // payload is empty or not.
  std::string Buffer = makeValidBuffer();
  std::vector<size_t> Bounds = sectionBoundaries(Buffer);
  ASSERT_GE(Bounds.size(), 7u);
  ASSERT_EQ(Buffer[Bounds[4]], 2) << "the second section is not Specs";
  size_t AfterSpecs = Bounds[6];
  for (const std::string &Payload : {std::string(), std::string(9, '\0')}) {
    std::string Section(1, '\x03');
    for (unsigned I = 0; I != 8; ++I)
      Section += static_cast<char>((Payload.size() >> (8 * I)) & 0xff);
    Section += Payload;
    std::string Rendered;
    EXPECT_FALSE(tryRead(Buffer.substr(0, AfterSpecs) + Section +
                             Buffer.substr(AfterSpecs),
                         &Rendered))
        << Payload.size() << "-byte payload";
    EXPECT_NE(Rendered.find("unknown, duplicate, or out-of-order section "
                            "id 3"),
              std::string::npos)
        << Payload.size() << "-byte payload: " << Rendered;
  }
}

TEST(BytecodeError, HasSpecsPreScan) {
  // Full buffer: specs + module.
  std::string Full = makeValidBuffer();
  EXPECT_TRUE(bytecodeBufferHasSpecs(Full));

  // Module-only buffer.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                 "/cmath.irdl",
                        SrcMgr, Diags);
  ASSERT_NE(M, nullptr);
  OwningOpRef IR = parseSourceString(
      Ctx, "std.func @f(%p: !cmath.complex<f32>) { std.return }", SrcMgr,
      Diags);
  ASSERT_TRUE(IR) << Diags.renderAll();
  BytecodeWriter ModuleOnly;
  ModuleOnly.setModule(IR.get());
  EXPECT_FALSE(bytecodeBufferHasSpecs(ModuleOnly.write()));

  // Spec-only buffer.
  BytecodeWriter SpecOnly;
  SpecOnly.addModuleSpecs(*M);
  std::string SpecBuffer = SpecOnly.write();
  EXPECT_TRUE(bytecodeBufferHasSpecs(SpecBuffer));

  // A prefix truncated inside the Specs payload still reports specs: the
  // reader would register skeletons up to the truncation point, which is
  // exactly what the server's pre-scan must reject.
  EXPECT_TRUE(bytecodeBufferHasSpecs(
      SpecBuffer.substr(0, SpecBuffer.size() - 1)));

  // Non-bytecode and non-walkable buffers scan as spec-free (the reader
  // itself fails on them before registering anything).
  EXPECT_FALSE(bytecodeBufferHasSpecs("not bytecode"));
  EXPECT_FALSE(bytecodeBufferHasSpecs("IRBC"));
}

TEST(BytecodeError, SingleByteCorruptionNeverCrashes) {
  std::string Buffer = makeValidBuffer();
  for (size_t I = 4; I < Buffer.size(); ++I) {
    std::string Corrupt = Buffer;
    Corrupt[I] = static_cast<char>(Corrupt[I] ^ 0xFF);
    std::string Rendered;
    // Either a clean failure with a diagnostic or a (rare) still-valid
    // decode; the point is memory safety at every byte position.
    bool Ok = tryRead(Corrupt, &Rendered);
    if (!Ok) {
      EXPECT_FALSE(Rendered.empty()) << "byte " << I;
    }
  }
}

TEST(BytecodeError, TrailingGarbage) {
  std::string Buffer = makeValidBuffer() + "extra";
  std::string Rendered;
  EXPECT_FALSE(tryRead(Buffer, &Rendered));
  EXPECT_NE(Rendered.find("invalid bytecode"), std::string::npos)
      << Rendered;
}

TEST(BytecodeError, DiagnosticCarriesByteOffset) {
  std::string Buffer = makeValidBuffer();
  std::string Rendered;
  EXPECT_FALSE(tryRead(Buffer.substr(0, Buffer.size() / 2), &Rendered));
  EXPECT_NE(Rendered.find("at offset"), std::string::npos) << Rendered;
}

TEST(BytecodeError, ReadFileErrors) {
  IRContext Ctx;
  DiagnosticEngine Diags;
  BytecodeReadResult Result;
  EXPECT_TRUE(failed(
      readBytecodeFile("/no/such/file.irbc", Ctx, Diags, Result)));
  EXPECT_TRUE(Diags.hadError());
}

TEST(BytecodeError, NonIEEEFloatWidthIsRejected) {
  // The text parser only makes f16/f32/f64 floats; a .irbc whose f32
  // constant claims width 80 must fail to read, not print as `f80`.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef IR =
      parseSourceString(Ctx, "%c = std.constant 1.0 : f32", SrcMgr, Diags);
  ASSERT_TRUE(IR) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.setModule(IR.get());
  std::string Buffer = Writer.write();
  ASSERT_TRUE(tryRead(Buffer, nullptr));

  // The float parameter: width varint 32, then 1.0 as a little-endian
  // double.
  const std::string F32One("\x20\0\0\0\0\0\0\xf0\x3f", 9);
  size_t At = Buffer.find(F32One);
  ASSERT_NE(At, std::string::npos);
  ASSERT_EQ(Buffer.find(F32One, At + 1), std::string::npos);
  Buffer[At] = 80;
  std::string Rendered;
  EXPECT_FALSE(tryRead(Buffer, &Rendered));
  EXPECT_NE(Rendered.find("invalid float width 80"), std::string::npos)
      << Rendered;
}

TEST(BytecodeError, OutOfRangeIntegerConstantFailsVerification) {
  // The reader takes any int64 constant value; the verifier checks that
  // it fits the constant's type, so `999 : i1` reads but does not verify.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef IR =
      parseSourceString(Ctx, "%c = std.constant 1 : i1", SrcMgr, Diags);
  ASSERT_TRUE(IR) << Diags.renderAll();
  Operation &C = IR->getRegion(0).front().front();
  C.setAttr("value", Ctx.getIntegerAttr(999, 1));
  BytecodeWriter Writer;
  Writer.setModule(IR.get());

  IRContext ReadCtx;
  DiagnosticEngine ReadDiags;
  BytecodeReader Reader(ReadCtx, ReadDiags);
  BytecodeReadResult Result;
  ASSERT_TRUE(succeeded(Reader.read(Writer.write(), Result)))
      << ReadDiags.renderAll();
  ASSERT_TRUE(Result.Module);
  EXPECT_TRUE(failed(Result.Module->verify(ReadDiags)));
  EXPECT_NE(ReadDiags.renderAll().find(
                "integer constant 999 does not fit its type i1"),
            std::string::npos)
      << ReadDiags.renderAll();
}

/// A hand-made buffer: the header, then each (id, payload) section.
std::string craftBuffer(
    const std::vector<std::pair<uint8_t, std::string>> &Sections) {
  std::string Buffer("IRBC\x03", 5);
  for (const auto &[Id, Payload] : Sections) {
    Buffer += static_cast<char>(Id);
    for (unsigned I = 0; I != 8; ++I)
      Buffer += static_cast<char>((Payload.size() >> (8 * I)) & 0xff);
    Buffer += Payload;
  }
  return Buffer;
}

/// A Strings section holding \p Str, which is at most 127 bytes.
std::string stringsPayload(const std::string &Str) {
  return std::string("\x01", 1) + static_cast<char>(Str.size()) + Str;
}

/// One pool entry: attribute `test.any` with one parameter nested \p Depth
/// deep (arrays of one element around an empty value).
std::string nestedParamBuffer(unsigned Depth) {
  std::string Pool("\x01\x01\x00\x01", 4); // 1 entry: attr, name 0, 1 param
  for (unsigned I = 1; I != Depth; ++I)
    Pool += std::string("\x07\x01", 2); // Array of 1
  Pool += '\0';                          // Empty
  return craftBuffer({{1, stringsPayload("test.any")}, {4, Pool}});
}

/// A pool of \p Depth chained entries, each attribute `test.any` holding
/// the one before it, and a root `test.wrap` whose attribute `a` is the
/// last (deepest) entry.
std::string chainedPoolBuffer(unsigned Depth) {
  bytecode::BytecodeOutput Strings, Pool, IR;
  Strings.writeVarInt(3);
  for (std::string_view S : {"test.any", "test.wrap", "a"}) {
    Strings.writeVarInt(S.size());
    Strings.writeBytes(S);
  }
  Pool.writeVarInt(Depth);
  for (unsigned I = 0; I != Depth; ++I) {
    Pool.writeByte(1);           // attribute
    Pool.writeVarInt(0);         // test.any
    Pool.writeVarInt(I ? 1 : 0); // parameter count
    if (I) {
      Pool.writeByte(2); // Attr
      Pool.writeVarInt(I - 1);
    }
  }
  // Root op: test.wrap, no results or operands, attribute a, no
  // successors or regions.
  for (uint64_t V : {1u, 0u, 0u, 1u, 2u, Depth - 1, 0u, 0u})
    IR.writeVarInt(V);
  return craftBuffer({{1, Strings.take()}, {4, Pool.take()}, {5, IR.take()}});
}

/// A module whose ops nest \p Depth regions below the module body, each
/// region one block holding one `test.wrap`.
std::string nestedRegionBuffer(unsigned Depth) {
  // Op: name 0, no results, operands, attributes or successors, then its
  // region count; a region: one block without arguments holding one op.
  const std::string Op("\x00\x00\x00\x00\x00", 5);
  const std::string Region("\x01\x00\x01", 3);
  std::string IR;
  for (unsigned I = 0; I != Depth + 1; ++I)
    IR += Op + '\x01' + Region;
  IR += Op + '\0';
  return craftBuffer({{1, stringsPayload("test.wrap")}, {5, IR}});
}

/// Reads \p Buffer into a context knowing `test.wrap` and `test.any`.
bool tryReadTest(const std::string &Buffer, std::string &Rendered,
                 BytecodeReadResult &Result) {
  IRContext Ctx;
  Dialect *D = Ctx.getOrCreateDialect("test");
  D->addOp("wrap");
  D->addAttr("any");
  DiagnosticEngine Diags;
  BytecodeReader Reader(Ctx, Diags);
  bool Ok = succeeded(Reader.read(Buffer, Result));
  if (Ok && Result.Module) {
    DiagnosticEngine VDiags;
    EXPECT_TRUE(succeeded(Result.Module->verify(VDiags)))
        << VDiags.renderAll();
    EXPECT_FALSE(printOpToString(Result.Module.get()).empty());
    Result.Module.reset();
  }
  Rendered = Diags.renderAll();
  return Ok;
}

TEST(BytecodeError, NestedParametersAreBounded) {
  std::string Rendered;
  BytecodeReadResult Result;
  EXPECT_TRUE(tryReadTest(nestedParamBuffer(MaxNestingDepth), Rendered,
                          Result))
      << Rendered;
  for (unsigned Depth : {MaxNestingDepth + 1, 100000u}) {
    // 100,000 levels are a 200 KB pool entry, read before any definition
    // is resolved; the reader used to recurse once per level.
    EXPECT_FALSE(tryReadTest(nestedParamBuffer(Depth), Rendered, Result));
    EXPECT_NE(Rendered.find("types and attributes nested deeper than 256"),
              std::string::npos)
        << Rendered;
  }
}

TEST(BytecodeError, ChainedPoolEntriesAreBounded) {
  // Each entry refers only to the one before it, so no single read
  // recurses; the depth of what is built is what must be bounded, or
  // printing and verify diagnostics would recurse once per level.
  std::string Rendered;
  BytecodeReadResult Result;
  EXPECT_TRUE(tryReadTest(chainedPoolBuffer(MaxNestingDepth), Rendered,
                          Result))
      << Rendered;
  for (unsigned Depth : {MaxNestingDepth + 1, 100000u}) {
    EXPECT_FALSE(tryReadTest(chainedPoolBuffer(Depth), Rendered, Result));
    EXPECT_NE(Rendered.find("types and attributes nested deeper than 256"),
              std::string::npos)
        << Rendered;
  }
}

TEST(BytecodeError, BothReadersAgreeOnTheNestingCap) {
  // The text parser and the .irbc reader count levels alike: one per
  // type, attribute and array, a function type's inputs and results and
  // an array attribute's elements being arrays. What one reads at the cap
  // the other reads back; one level more, both reject.
  auto MakeContext = [](IRContext &Ctx) {
    Dialect *D = Ctx.getOrCreateDialect("test");
    D->addOp("sink");
    return D->addType("box");
  };
  auto Boxes = [](unsigned Depth) {
    std::string T = "f32";
    for (unsigned I = 1; I != Depth; ++I)
      T = "!test.box<" + T + ">";
    return T;
  };
  std::string Functions = "f32"; // 127 arrows: 255 levels
  for (unsigned I = 0; I != 127; ++I)
    Functions = "(" + Functions + ") -> f32";
  std::string Src = "%r = \"test.sink\"() {a = " + std::string(128, '[') +
                    std::string(128, ']') + ", t = " + Boxes(255) +
                    ", u = " + Functions + "} : () -> (" + Boxes(256) +
                    ")";

  IRContext Ctx;
  TypeDefinition *Box = MakeContext(Ctx);
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  OwningOpRef IR = parseSourceString(Ctx, Src, SrcMgr, Diags);
  ASSERT_TRUE(IR) << Diags.renderAll();
  auto ReadBack = [&](std::string &Printed) {
    BytecodeWriter Writer;
    Writer.setModule(IR.get());
    IRContext ReadCtx;
    MakeContext(ReadCtx);
    DiagnosticEngine ReadDiags;
    BytecodeReader Reader(ReadCtx, ReadDiags);
    BytecodeReadResult Result;
    if (failed(Reader.read(Writer.write(), Result)))
      return ReadDiags.renderAll();
    Printed = printOpToString(Result.Module.get());
    return std::string();
  };
  std::string Printed;
  EXPECT_EQ(ReadBack(Printed), "");
  EXPECT_EQ(Printed, printOpToString(IR.get()));

  // One level more: a 256-deep type held by a type attribute.
  Type Deep = Ctx.getFloatType(32);
  for (unsigned I = 1; I != MaxNestingDepth; ++I)
    Deep = Ctx.getType(Box, {ParamValue(Deep)});
  IR->getRegion(0).front().front().setAttr("v", Ctx.getTypeAttr(Deep));
  EXPECT_NE(ReadBack(Printed).find(
                "types and attributes nested deeper than 256"),
            std::string::npos);
  Diags.clear();
  EXPECT_FALSE(parseSourceString(Ctx, printOpToString(IR.get()), SrcMgr,
                                 Diags));
  EXPECT_NE(Diags.renderAll().find(
                "types and attributes nested deeper than 256"),
            std::string::npos)
      << Diags.renderAll();
}

TEST(BytecodeError, NestedRegionsAreBounded) {
  std::string Rendered;
  BytecodeReadResult Result;
  EXPECT_TRUE(tryReadTest(nestedRegionBuffer(MaxNestingDepth), Rendered,
                          Result))
      << Rendered;
  for (unsigned Depth : {MaxNestingDepth + 1, 100000u}) {
    EXPECT_FALSE(tryReadTest(nestedRegionBuffer(Depth), Rendered, Result));
    EXPECT_NE(Rendered.find("regions nested deeper than 256"),
              std::string::npos)
        << Rendered;
  }
}

TEST(BytecodeError, UnknownDefinitionInPool) {
  // A module using a dialect type read into a context where the dialect
  // was never registered (spec section stripped) must fail by name.
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDLFile(Ctx, std::string(IRDL_DIALECTS_DIR) +
                                 "/cmath.irdl",
                        SrcMgr, Diags);
  ASSERT_NE(M, nullptr);
  OwningOpRef IR = parseSourceString(
      Ctx, "std.func @f(%p: !cmath.complex<f32>) { std.return }", SrcMgr,
      Diags);
  ASSERT_TRUE(IR) << Diags.renderAll();
  BytecodeWriter Writer;
  Writer.setModule(IR.get()); // no addModuleSpecs
  std::string Rendered;
  EXPECT_FALSE(tryRead(Writer.write(), &Rendered));
  EXPECT_NE(Rendered.find("cmath.complex"), std::string::npos) << Rendered;
}

/// Serializes the spec of a two-variable operation whose variable trees
/// become \p Trees. Built in memory: the frontend rejects these cycles,
/// so only a hostile or hand-made file carries them.
std::string cyclicSpecBytes(
    const std::function<std::vector<ConstraintPtr>(
        IRContext &, const SpecStoragePtr &)> &Trees) {
  IRContext Ctx;
  SourceMgr SrcMgr;
  DiagnosticEngine Diags(&SrcMgr);
  auto M = loadIRDL(Ctx, R"(
    Dialect cy {
      Operation op {
        ConstraintVar (!T: !AnyType, !U: !AnyType)
        Operands (x: !T, y: !U)
      }
    }
  )",
                    SrcMgr, Diags);
  EXPECT_NE(M, nullptr) << Diags.renderAll();
  DialectSpec &Spec = *M->getDialects()[0];
  std::vector<ConstraintPtr> Vars = Trees(Ctx, Spec.shareStorage());
  std::span<const Constraint *> Slots =
      Spec.allocate<const Constraint *>(Vars.size());
  for (size_t I = 0; I != Vars.size(); ++I)
    Slots[I] = Vars[I].get();
  Spec.Ops[0].VarConstraints = Slots;
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*M);
  return Writer.write();
}

TEST(BytecodeError, CyclicConstraintVariablesAreRejected) {
  using Vars = std::vector<ConstraintPtr>;
  using MakeVars = std::function<Vars(IRContext &, const SpecStoragePtr &)>;
  MakeVars Benign = [](IRContext &, const SpecStoragePtr &S) {
    return Vars{Constraint::anyType(S), Constraint::anyType(S)};
  };
  // (!T: !T), (!T: !U, !U: !T), (!T: !AnyOf<!T, !f32>)
  std::vector<MakeVars> Cyclic = {
      [](IRContext &, const SpecStoragePtr &S) {
        return Vars{Constraint::var(S, 0, "T"), Constraint::anyType(S)};
      },
      [](IRContext &, const SpecStoragePtr &S) {
        return Vars{Constraint::var(S, 1, "U"), Constraint::var(S, 0, "T")};
      },
      [](IRContext &Ctx, const SpecStoragePtr &S) {
        return Vars{
            Constraint::anyOf(S, {Constraint::var(S, 0, "T"),
                                  Constraint::typeEq(S, Ctx.getFloatType(32))}),
            Constraint::anyType(S)};
      }};
  for (size_t I = 0; I != Cyclic.size(); ++I) {
    // The file carries trees only; the reader rejects the cycle before
    // registration compiles any program from them.
    std::string Rendered;
    EXPECT_FALSE(tryRead(cyclicSpecBytes(Cyclic[I]), &Rendered))
        << "case " << I;
    EXPECT_NE(Rendered.find("refers to itself"), std::string::npos)
        << "case " << I << ": " << Rendered;
  }
  // The benign spec itself reads back fine.
  EXPECT_TRUE(tryRead(cyclicSpecBytes(Benign), nullptr));
}

} // namespace
