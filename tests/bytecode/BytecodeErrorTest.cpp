//===- BytecodeErrorTest.cpp - Corrupt/truncated bytecode handling ------===//
///
/// The reader's failure contract: every malformed buffer — wrong magic,
/// unsupported version, truncation at any offset, out-of-range indices,
/// trailing garbage — produces a structured diagnostic and failure(),
/// never a crash or a silently wrong module.

#include "bytecode/Bytecode.h"

#include "ir/Block.h"
#include "ir/IRParser.h"
#include "ir/Region.h"
#include "irdl/ConstraintCompiler.h"

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
    // v2 headers carry a fixed 8-byte little-endian payload length.
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
  // Strings + Specs + Programs + TypeAttrPool + IR: five sections, three
  // seams each, plus the header end.
  ASSERT_GE(Bounds.size(), 16u);
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
/// become \p Trees and whose variable programs are compiled from
/// \p Programs. Built in memory: the frontend rejects these cycles, so
/// only a hostile or hand-made file carries them.
std::string cyclicSpecBytes(
    const std::function<std::vector<ConstraintPtr>(IRContext &)> &Trees,
    const std::function<std::vector<ConstraintPtr>(IRContext &)> &Programs) {
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
  OpSpec &Op = M->getDialects()[0]->Ops[0];
  Op.VarConstraints = Trees(Ctx);
  Op.VarPrograms = ConstraintCompiler::compileVarPrograms(Programs(Ctx));
  BytecodeWriter Writer;
  Writer.addModuleSpecs(*M);
  return Writer.write();
}

TEST(BytecodeError, CyclicConstraintVariablesAreRejected) {
  using Vars = std::vector<ConstraintPtr>;
  std::function<Vars(IRContext &)> Benign = [](IRContext &) {
    return Vars{Constraint::anyType(), Constraint::anyType()};
  };
  // (!T: !T), (!T: !U, !U: !T), (!T: !AnyOf<!T, !f32>)
  std::vector<std::function<Vars(IRContext &)>> Cyclic = {
      [](IRContext &) {
        return Vars{Constraint::var(0, "T"), Constraint::anyType()};
      },
      [](IRContext &) {
        return Vars{Constraint::var(1, "U"), Constraint::var(0, "T")};
      },
      [](IRContext &Ctx) {
        return Vars{Constraint::anyOf({Constraint::var(0, "T"),
                                       Constraint::typeEq(
                                           Ctx.getFloatType(32))}),
                    Constraint::anyType()};
      }};
  for (size_t I = 0; I != Cyclic.size(); ++I) {
    // Cyclic in both forms, in the trees only (the reader's check), and
    // in the programs only (registration's check: programs are what
    // verification runs).
    for (auto [Trees, Programs] :
         {std::pair{Cyclic[I], Cyclic[I]}, std::pair{Cyclic[I], Benign},
          std::pair{Benign, Cyclic[I]}}) {
      std::string Rendered;
      EXPECT_FALSE(tryRead(cyclicSpecBytes(Trees, Programs), &Rendered))
          << "case " << I;
      EXPECT_NE(Rendered.find("refers to itself"), std::string::npos)
          << "case " << I << ": " << Rendered;
    }
  }
  // The benign spec itself reads back fine.
  EXPECT_TRUE(tryRead(cyclicSpecBytes(Benign, Benign), nullptr));
}

} // namespace
