//===- IRParser.cpp -------------------------------------------------===//

#include "ir/IRParser.h"

#include "ir/Block.h"
#include "ir/Context.h"
#include "ir/Region.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Statistic.h"
#include "support/StringExtras.h"
#include "support/Timing.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>
#include <typeindex>

using namespace irdl;

IRDL_STATISTIC(IRParser, NumBuffersParsed, "irdl_parser_buffers_total",
               "textual IR buffers parsed end to end");

namespace irdl {

/// The recursive-descent parser for the textual IR format.
class IRParserImpl {
public:
  IRParserImpl(IRContext &Ctx, std::string_view Source,
               DiagnosticEngine &Diags)
      : Ctx(Ctx), Diags(Diags), Lex(Source, Diags) {}

  ~IRParserImpl() {
    // Delete any orphaned forward-reference placeholders (error paths).
    for (unsigned D = 0; D != NumScopes; ++D)
      for (const auto &Entry : Scopes[D].Values)
        if (Entry.Val.Forward)
          Orphans.push_back(Entry.Val.Forward);
  }

  /// Deletes placeholders left over after the partial IR is gone.
  void deleteOrphans() {
    for (Operation *Op : Orphans) {
      // Any remaining uses belong to IR that has been destroyed already.
      Op->destroy();
    }
    Orphans.clear();
  }

  //===------------------------------------------------------------------===//
  // Tokens
  //===------------------------------------------------------------------===//

  const IRToken &tok() const { return Lex.getToken(); }
  void lex() { Lex.lex(); }

  bool consumeIf(IRToken::Kind K) {
    if (!tok().is(K))
      return false;
    lex();
    return true;
  }

  LogicalResult expect(IRToken::Kind K, std::string_view What) {
    if (consumeIf(K))
      return success();
    Diags.emitError(tok().Loc, "expected " + std::string(What));
    return failure();
  }

  LogicalResult emitError(SMLoc Loc, std::string Message) {
    Diags.emitError(Loc, std::move(Message));
    return failure();
  }

  //===------------------------------------------------------------------===//
  // Scopes
  //===------------------------------------------------------------------===//

  /// A table keyed by names that view the source buffer (or NameStore).
  /// Entries sit in insertion order in one vector, found through an
  /// open-addressing index of entry numbers, so an insert allocates only
  /// when one of the two arrays doubles, and clear() keeps both.
  template <typename T> class NameTable {
  public:
    struct Entry {
      std::string_view Name;
      T Val;
      size_t Hash;
      /// The index slot that holds this entry's number.
      uint32_t Slot;
    };

    T *find(std::string_view Name) {
      if (Entries.empty())
        return nullptr;
      size_t Hash = fnv1a64(Name);
      size_t Mask = Index.size() - 1;
      for (size_t I = Hash & Mask; Index[I]; I = (I + 1) & Mask) {
        Entry &E = Entries[Index[I] - 1];
        if (E.Hash == Hash && E.Name == Name)
          return &E.Val;
      }
      return nullptr;
    }

    /// Inserts \p Name with \p Val unless present. Returns the entry's
    /// value (valid until the next insert) and whether it is new.
    std::pair<T *, bool> insert(std::string_view Name, T Val) {
      if ((Entries.size() + 1) * 4 > Index.size() * 3)
        grow();
      size_t Hash = fnv1a64(Name);
      size_t Mask = Index.size() - 1;
      size_t I = Hash & Mask;
      for (; Index[I]; I = (I + 1) & Mask) {
        Entry &E = Entries[Index[I] - 1];
        if (E.Hash == Hash && E.Name == Name)
          return {&E.Val, false};
      }
      Entries.push_back(Entry{Name, std::move(Val), Hash,
                              static_cast<uint32_t>(I)});
      Index[I] = static_cast<uint32_t>(Entries.size());
      return {&Entries.back().Val, true};
    }

    void clear() {
      for (const Entry &E : Entries)
        Index[E.Slot] = 0;
      Entries.clear();
    }

    using const_iterator = typename std::vector<Entry>::const_iterator;
    const_iterator begin() const { return Entries.begin(); }
    const_iterator end() const { return Entries.end(); }

  private:
    void grow() {
      Index.assign(std::max<size_t>(16, Index.size() * 2), 0);
      size_t Mask = Index.size() - 1;
      for (size_t N = 0; N != Entries.size(); ++N) {
        size_t I = Entries[N].Hash & Mask;
        while (Index[I])
          I = (I + 1) & Mask;
        Index[I] = static_cast<uint32_t>(N + 1);
        Entries[N].Slot = static_cast<uint32_t>(I);
      }
    }

    std::vector<Entry> Entries;
    /// Entry number plus one per slot, 0 when free; a power of two long.
    std::vector<uint32_t> Index;
  };

  struct ValueEntry {
    Value V;
    /// While only forward-referenced: the detached placeholder op whose
    /// result is V. Its location is the first use.
    Operation *Forward = nullptr;
  };
  struct BlockEntry {
    Block *B;
    bool Defined;
    SMLoc FirstUse;
  };
  struct Scope {
    NameTable<ValueEntry> Values;
    /// Block label table for the region.
    NameTable<BlockEntry> Blocks;
  };

  /// Opens the scope of the next nesting depth, reusing the tables a
  /// region at that depth used before.
  void pushScope() {
    if (NumScopes == Scopes.size())
      Scopes.emplace_back();
    ++NumScopes;
  }

  /// Entries of \p Table selected by \p Pred, in name order so
  /// diagnostics do not depend on hashing.
  template <typename T, typename PredT>
  static std::vector<const typename NameTable<T>::Entry *>
  sortedEntries(const NameTable<T> &Table, PredT Pred) {
    std::vector<const typename NameTable<T>::Entry *> Result;
    for (const auto &Entry : Table)
      if (Pred(Entry.Val))
        Result.push_back(&Entry);
    std::sort(Result.begin(), Result.end(),
              [](const auto *L, const auto *R) { return L->Name < R->Name; });
    return Result;
  }

  LogicalResult popScope() {
    Scope &S = Scopes[NumScopes - 1];
    LogicalResult Result = success();
    for (const auto *Entry : sortedEntries(
             S.Values, [](const ValueEntry &E) { return E.Forward; })) {
      Operation *Op = Entry->Val.Forward;
      Diags.emitError(Op->getLoc(), "use of undefined value %" +
                                        std::string(Entry->Name));
      Orphans.push_back(Op);
      Result = failure();
    }
    for (const auto *Entry : sortedEntries(
             S.Blocks, [](const BlockEntry &E) { return !E.Defined; })) {
      Diags.emitError(Entry->Val.FirstUse, "reference to undefined block ^" +
                                               std::string(Entry->Name));
      Entry->Val.B->destroy();
      Result = failure();
    }
    S.Values.clear();
    S.Blocks.clear();
    --NumScopes;
    return Result;
  }

  Value lookupValue(std::string_view Name) {
    for (unsigned D = NumScopes; D-- != 0;) {
      // Forward placeholders are only visible in their own scope.
      if (ValueEntry *E = Scopes[D].Values.find(Name))
        if (!E->Forward || D == NumScopes - 1)
          return E->V;
    }
    return Value();
  }

  /// Resolves a `%name` reference of expected type \p Ty, creating a
  /// forward placeholder in the innermost scope when unknown.
  Value resolveValue(std::string_view Name, Type Ty, SMLoc Loc) {
    if (Value V = lookupValue(Name)) {
      if (V.getType() != Ty) {
        Diags.emitError(Loc, "value %" + std::string(Name) + " has type " +
                                 V.getType().str() + " but is used as " +
                                 Ty.str());
        return Value();
      }
      return V;
    }
    assert(NumScopes != 0);
    // The op being parsed holds this depth's scratch; the placeholder
    // takes the next one, free until a nested op needs it.
    ScratchClaim Claim(*this);
    OperationState &State = Claim.S.State;
    State.reset(ForwardRefName, Loc);
    State.ResultTypes.push_back(Ty);
    Operation *Placeholder = Operation::create(State);
    Scopes[NumScopes - 1].Values.insert(
        Name, ValueEntry{Placeholder->getResult(0), Placeholder});
    return Placeholder->getResult(0);
  }

  LogicalResult defineValue(std::string_view Name, Value V, SMLoc Loc) {
    auto [Entry, Inserted] =
        Scopes[NumScopes - 1].Values.insert(Name, ValueEntry{V});
    if (Inserted)
      return success();
    if (!Entry->Forward)
      return emitError(Loc, "redefinition of value %" + std::string(Name));
    Value Old = Entry->V;
    if (Old.getType() != V.getType())
      return emitError(Loc, "definition of %" + std::string(Name) +
                                " with type " + V.getType().str() +
                                " does not match forward uses of type " +
                                Old.getType().str());
    Old.replaceAllUsesWith(V);
    Entry->Forward->destroy();
    *Entry = ValueEntry{V};
    return success();
  }

  /// `Base#I`, the name of result I of a multi-result binding, kept in
  /// NameStore: the only value names that do not view the source.
  std::string_view storeResultName(std::string_view Base, unsigned I) {
    char Digits[16];
    char *DigitsEnd = std::to_chars(Digits, Digits + sizeof(Digits), I).ptr;
    size_t Len = Base.size() + 1 + (DigitsEnd - Digits);
    if (Len > static_cast<size_t>(NameStoreEnd - NameStoreCur)) {
      size_t ChunkSize = std::max<size_t>(Len, 4096);
      NameStore.push_back(std::make_unique<char[]>(ChunkSize));
      NameStoreCur = NameStore.back().get();
      NameStoreEnd = NameStoreCur + ChunkSize;
    }
    char *Name = NameStoreCur;
    std::memcpy(Name, Base.data(), Base.size());
    Name[Base.size()] = '#';
    std::memcpy(Name + Base.size() + 1, Digits, DigitsEnd - Digits);
    NameStoreCur += Len;
    return std::string_view(Name, Len);
  }

  /// The block labelled \p Name in the innermost region, created on first
  /// mention; \p Loc is recorded as its first use.
  BlockEntry &getOrCreateBlock(std::string_view Name, SMLoc Loc) {
    NameTable<BlockEntry> &Blocks = Scopes[NumScopes - 1].Blocks;
    if (BlockEntry *Entry = Blocks.find(Name))
      return *Entry;
    return *Blocks.insert(Name, BlockEntry{Block::create(Ctx), false, Loc})
                .first;
  }

  //===------------------------------------------------------------------===//
  // Types, attributes, parameters
  //===------------------------------------------------------------------===//

  /// Tries builtin type sugar for \p Ident; returns null when no match.
  /// Answers are cached for the parse: \p Ident views the source, and a
  /// few spellings such as `f32` and `i1` make up most types in real inputs.
  Type parseTypeSugar(std::string_view Ident) {
    auto [T, Inserted] = SugarTypes.insert(Ident, Type());
    if (Inserted)
      *T = buildTypeSugar(Ident);
    return *T;
  }

  Type buildTypeSugar(std::string_view Ident) {
    if (Ident == "f16" || Ident == "f32" || Ident == "f64")
      return Ctx.getFloatType(Ident == "f16" ? 16 : Ident == "f32" ? 32 : 64);
    if (Ident == "index")
      return Ctx.getIndexType();
    Signedness Sign;
    std::string_view Digits;
    if (startsWith(Ident, "si")) {
      Sign = Signedness::Signed;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "ui")) {
      Sign = Signedness::Unsigned;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "i")) {
      Sign = Signedness::Signless;
      Digits = Ident.substr(1);
    } else {
      return Type();
    }
    auto Width = parseUInt(Digits);
    if (!Width || *Width < 1 || *Width > 128)
      return Type();
    return Ctx.getIntegerType(static_cast<unsigned>(*Width), Sign);
  }

  /// Parses a dotted identifier path (`a.b.c`) and returns it joined by
  /// dots. The result views the source when the path has no spaces or
  /// comments inside, and DottedName otherwise; it is valid until the next
  /// call. Empty when the current token is not an identifier or a segment
  /// is missing (diagnosed).
  std::string_view parseDottedName() {
    if (!tok().is(IRToken::Kind::Identifier))
      return {};
    std::string_view Path = tok().Spelling;
    bool Copied = false;
    lex();
    while (tok().is(IRToken::Kind::Dot)) {
      const char *DotPos = tok().Loc.getPointer();
      lex();
      if (!tok().is(IRToken::Kind::Identifier)) {
        Diags.emitError(tok().Loc, "expected identifier after '.'");
        return {};
      }
      std::string_view Segment = tok().Spelling;
      if (!Copied && DotPos == Path.data() + Path.size() &&
          Segment.data() == DotPos + 1) {
        Path = std::string_view(Path.data(), Path.size() + 1 + Segment.size());
      } else {
        if (!Copied)
          DottedName.assign(Path);
        Copied = true;
        DottedName += '.';
        DottedName += Segment;
      }
      lex();
    }
    return Copied ? std::string_view(DottedName) : Path;
  }

  /// Splits a dotted name at its last dot into (prefix, last segment);
  /// the prefix is empty for a single segment.
  static std::pair<std::string_view, std::string_view>
  splitLastSegment(std::string_view Name) {
    size_t Dot = Name.rfind('.');
    if (Dot == std::string_view::npos)
      return {std::string_view(), Name};
    return {Name.substr(0, Dot), Name.substr(Dot + 1)};
  }

  /// Counts one level of type, attribute or array nesting while it lives;
  /// tooDeep() diagnoses a level past MaxNestingDepth. Levels follow what
  /// is built, as the .irbc reader counts them: a function type's inputs
  /// and results and an array attribute's elements are arrays of their
  /// own, and a type used as an attribute sits one level below it.
  struct TypeAttrNesting {
    explicit TypeAttrNesting(IRParserImpl &P) : P(P) { ++P.TypeAttrDepth; }
    ~TypeAttrNesting() { --P.TypeAttrDepth; }
    TypeAttrNesting(const TypeAttrNesting &) = delete;
    TypeAttrNesting &operator=(const TypeAttrNesting &) = delete;

    bool tooDeep() {
      if (P.TypeAttrDepth <= MaxNestingDepth)
        return false;
      P.Diags.emitError(P.tok().Loc,
                        "types and attributes nested deeper than " +
                            std::to_string(MaxNestingDepth));
      return true;
    }

    IRParserImpl &P;
  };

  Type parseType() {
    SMLoc Loc = tok().Loc;
    TypeAttrNesting Nesting(*this);
    if (Nesting.tooDeep())
      return Type();

    // Function type: (inputs) -> results
    if (consumeIf(IRToken::Kind::LParen)) {
      TypeAttrNesting Lists(*this);
      if (Lists.tooDeep())
        return Type();
      std::vector<Type> Inputs;
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Type T = parseType();
          if (!T)
            return Type();
          Inputs.push_back(T);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' in function type")) ||
          failed(expect(IRToken::Kind::Arrow, "'->' in function type")))
        return Type();
      std::vector<Type> Results;
      if (consumeIf(IRToken::Kind::LParen)) {
        if (!tok().is(IRToken::Kind::RParen)) {
          do {
            Type T = parseType();
            if (!T)
              return Type();
            Results.push_back(T);
          } while (consumeIf(IRToken::Kind::Comma));
        }
        if (failed(expect(IRToken::Kind::RParen, "')' in function type")))
          return Type();
      } else {
        Type T = parseType();
        if (!T)
          return Type();
        Results.push_back(T);
      }
      return Ctx.getFunctionType(Inputs, Results);
    }

    consumeIf(IRToken::Kind::Bang);
    if (!tok().is(IRToken::Kind::Identifier)) {
      Diags.emitError(Loc, "expected type");
      return Type();
    }
    std::string_view FullName = parseDottedName();
    if (FullName.empty())
      return Type();

    if (FullName.find('.') == std::string_view::npos)
      if (Type Sugar = parseTypeSugar(FullName))
        return Sugar;

    TypeDefinition *Def = Ctx.resolveTypeDef(FullName);
    if (!Def) {
      Diags.emitError(Loc, "unknown type '" + std::string(FullName) + "'");
      return Type();
    }

    ParamList Params(*this);
    if (failed(Params.parse("'>' in type parameters")))
      return Type();
    return Ctx.lookupOrCreateType(Def, Params.get(), Diags, Loc);
  }

  /// The parameters of one type or attribute, parsed onto the parser's
  /// ParamStack (nested ones stack above them and are gone by the time
  /// the next parameter is parsed) and popped again when it goes out of
  /// scope, so a parametric type allocates no list of its own.
  class ParamList {
  public:
    explicit ParamList(IRParserImpl &P) : P(P), Base(P.ParamStack.size()) {}
    ~ParamList() { P.ParamStack.resize(Base); }
    ParamList(const ParamList &) = delete;
    ParamList &operator=(const ParamList &) = delete;

    /// Parses an optional `<param, ...>`; \p Closing names the expected
    /// `>` in the diagnostic.
    LogicalResult parse(const char *Closing) {
      if (!P.consumeIf(IRToken::Kind::Less))
        return success();
      if (!P.tok().is(IRToken::Kind::Greater)) {
        do {
          ParamValue V;
          if (failed(P.parseParam(V)))
            return failure();
          P.ParamStack.push_back(std::move(V));
        } while (P.consumeIf(IRToken::Kind::Comma));
      }
      return P.expect(IRToken::Kind::Greater, Closing);
    }

    std::span<const ParamValue> get() const {
      return std::span<const ParamValue>(P.ParamStack).subspan(Base);
    }

  private:
    IRParserImpl &P;
    size_t Base;
  };

  /// Parses an optional `: suffix` kind after a numeric literal. Returns
  /// failure on malformed suffix. Out params describe the kind.
  struct NumKind {
    bool IsFloat = false;
    unsigned Width = 64;
    Signedness Sign = Signedness::Signless;
    bool Present = false;
  };

  LogicalResult parseOptionalNumSuffix(NumKind &K) {
    if (!tok().is(IRToken::Kind::Colon))
      return success();
    lex();
    if (!tok().is(IRToken::Kind::Identifier))
      return emitError(tok().Loc, "expected integer or float kind after ':'");
    std::string_view Ident = tok().Spelling;
    K.Present = true;
    if (Ident == "f16" || Ident == "f32" || Ident == "f64") {
      K.IsFloat = true;
      K.Width = Ident == "f16" ? 16 : Ident == "f32" ? 32 : 64;
      lex();
      return success();
    }
    std::string_view Digits;
    if (startsWith(Ident, "si")) {
      K.Sign = Signedness::Signed;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "ui")) {
      K.Sign = Signedness::Unsigned;
      Digits = Ident.substr(2);
    } else if (startsWith(Ident, "i")) {
      Digits = Ident.substr(1);
    } else {
      return emitError(tok().Loc, "expected integer or float kind");
    }
    auto Width = parseUInt(Digits);
    if (!Width || *Width < 1 || *Width > 128)
      return emitError(tok().Loc, "invalid integer kind width");
    K.Width = static_cast<unsigned>(*Width);
    lex();
    return success();
  }

  /// Parses a signed numeric literal plus optional kind suffix into \p P.
  LogicalResult parseNumberParam(ParamValue &P) {
    SMLoc Loc = tok().Loc;
    bool Negative = consumeIf(IRToken::Kind::Minus);
    if (tok().is(IRToken::Kind::Integer)) {
      auto V = parseUInt(tok().Spelling);
      if (!V)
        return emitError(Loc, "integer literal out of range");
      lex();
      NumKind K;
      if (failed(parseOptionalNumSuffix(K)))
        return failure();
      if (K.IsFloat) {
        double D = static_cast<double>(*V);
        P = ParamValue(FloatVal{static_cast<uint16_t>(K.Width),
                                Negative ? -D : D});
        return success();
      }
      std::optional<int64_t> SV = applySign(*V, Negative);
      if (!SV)
        return emitError(Loc, "integer literal out of range");
      P = ParamValue(IntVal{static_cast<uint16_t>(K.Width), K.Sign, *SV});
      return success();
    }
    if (tok().is(IRToken::Kind::Float) || tok().isIdent("inf") ||
        tok().isIdent("nan")) {
      double D;
      if (tok().is(IRToken::Kind::Float))
        D = parseDouble(tok().Spelling);
      else
        D = tok().isIdent("inf") ? HUGE_VAL : NAN;
      lex();
      NumKind K;
      if (failed(parseOptionalNumSuffix(K)))
        return failure();
      if (K.Present && !K.IsFloat)
        return emitError(Loc, "float literal with integer kind");
      P = ParamValue(
          FloatVal{static_cast<uint16_t>(K.Width), Negative ? -D : D});
      return success();
    }
    return emitError(Loc, "expected numeric literal");
  }

  LogicalResult parseParam(ParamValue &P) {
    SMLoc Loc = tok().Loc;
    switch (tok().K) {
    case IRToken::Kind::Minus:
    case IRToken::Kind::Integer:
    case IRToken::Kind::Float:
      return parseNumberParam(P);
    case IRToken::Kind::String: {
      P = ParamValue(std::string(tok().Spelling));
      lex();
      return success();
    }
    case IRToken::Kind::LSquare: {
      TypeAttrNesting Nesting(*this);
      if (Nesting.tooDeep())
        return failure();
      lex();
      std::vector<ParamValue> Elems;
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          ParamValue Elem;
          if (failed(parseParam(Elem)))
            return failure();
          Elems.push_back(std::move(Elem));
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' in array parameter")))
        return failure();
      P = ParamValue(std::move(Elems));
      return success();
    }
    case IRToken::Kind::Hash: {
      Attribute A = parseAttribute();
      if (!A)
        return failure();
      P = ParamValue(A);
      return success();
    }
    case IRToken::Kind::Bang:
    case IRToken::Kind::LParen: {
      Type T = parseType();
      if (!T)
        return failure();
      P = ParamValue(T);
      return success();
    }
    case IRToken::Kind::Identifier: {
      if (tok().isIdent("opaque")) {
        lex();
        if (failed(expect(IRToken::Kind::Less, "'<' after 'opaque'")))
          return failure();
        if (!tok().is(IRToken::Kind::String))
          return emitError(tok().Loc, "expected opaque parameter kind name");
        std::string_view KindName = tok().Spelling;
        lex();
        if (failed(expect(IRToken::Kind::Comma, "',' in opaque parameter")))
          return failure();
        if (!tok().is(IRToken::Kind::String))
          return emitError(tok().Loc, "expected opaque parameter payload");
        std::string_view Payload = tok().Spelling;
        lex();
        if (failed(expect(IRToken::Kind::Greater,
                          "'>' after opaque parameter")))
          return failure();
        const OpaqueParamCodec *Codec = Ctx.lookupOpaqueParamCodec(KindName);
        if (!Codec)
          return emitError(Loc, "unknown opaque parameter kind '" +
                                    std::string(KindName) + "'");
        auto Parsed = Codec->Parse(Payload);
        if (!Parsed)
          return emitError(Loc, "invalid payload for opaque parameter '" +
                                    std::string(KindName) + "'");
        P = ParamValue(OpaqueVal{std::string(KindName), *Parsed});
        return success();
      }
      if (tok().isIdent("inf") || tok().isIdent("nan"))
        return parseNumberParam(P);

      std::string_view Path = parseDottedName();
      if (Path.empty())
        return failure();
      // Enum constructor: [dialect.]enum.Case
      auto [EnumPath, CaseName] = splitLastSegment(Path);
      if (EnumPath.empty()) {
        if (Type Sugar = parseTypeSugar(Path)) {
          TypeAttrNesting Nesting(*this);
          if (Nesting.tooDeep())
            return failure();
          P = ParamValue(Sugar);
          return success();
        }
        return emitError(Loc, "unknown parameter '" + std::string(Path) + "'");
      }
      if (EnumDef *Def = Ctx.resolveEnumDef(EnumPath)) {
        if (auto Index = Def->lookupCase(CaseName)) {
          P = ParamValue(EnumVal{Def, *Index});
          return success();
        }
        return emitError(Loc, "'" + std::string(CaseName) +
                                  "' is not a constructor of enum '" +
                                  Def->getFullName() + "'");
      }
      return emitError(Loc, "unknown enum '" + std::string(EnumPath) + "'");
    }
    default:
      return emitError(Loc, "expected parameter value");
    }
  }

  Attribute parseAttribute() {
    SMLoc Loc = tok().Loc;
    TypeAttrNesting Nesting(*this);
    if (Nesting.tooDeep())
      return Attribute();
    switch (tok().K) {
    case IRToken::Kind::Minus:
    case IRToken::Kind::Integer:
    case IRToken::Kind::Float: {
      ParamValue P;
      if (failed(parseNumberParam(P)))
        return Attribute();
      if (P.isInt())
        return Ctx.getIntegerAttr(P.getInt());
      return Ctx.getAttr(Ctx.getFloatAttrDef(), {P});
    }
    case IRToken::Kind::String: {
      std::string S(tok().Spelling);
      lex();
      return Ctx.getStringAttr(std::move(S));
    }
    case IRToken::Kind::LSquare: {
      lex();
      TypeAttrNesting Elements(*this);
      if (Elements.tooDeep())
        return Attribute();
      std::vector<Attribute> Elems;
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          Attribute A = parseAttribute();
          if (!A)
            return Attribute();
          Elems.push_back(A);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' in array attribute")))
        return Attribute();
      return Ctx.getArrayAttr(std::move(Elems));
    }
    case IRToken::Kind::Hash: {
      lex();
      std::string_view FullName = parseDottedName();
      if (FullName.empty()) {
        Diags.emitError(Loc, "expected attribute name after '#'");
        return Attribute();
      }
      AttrDefinition *Def = Ctx.resolveAttrDef(FullName);
      if (!Def) {
        Diags.emitError(Loc,
                        "unknown attribute '" + std::string(FullName) + "'");
        return Attribute();
      }
      ParamList Params(*this);
      if (failed(Params.parse("'>' in attribute parameters")))
        return Attribute();
      return Ctx.lookupOrCreateAttr(Def, Params.get(), Diags, Loc);
    }
    case IRToken::Kind::Identifier:
      if (tok().isIdent("unit")) {
        lex();
        return Ctx.getUnitAttr();
      }
      if (tok().isIdent("true") || tok().isIdent("false")) {
        bool V = tok().isIdent("true");
        lex();
        return Ctx.getIntegerAttr(V ? 1 : 0, /*Width=*/1);
      }
      if (tok().isIdent("inf") || tok().isIdent("nan")) {
        ParamValue P;
        if (failed(parseNumberParam(P)))
          return Attribute();
        return Ctx.getAttr(Ctx.getFloatAttrDef(), {P});
      }
      // Dotted identifier paths may name an enum constructor
      // (`arith.fastmath.fast`); otherwise they fall back to type syntax.
      if (tok().is(IRToken::Kind::Identifier)) {
        // A path with >= 2 segments whose prefix names an enum.
        std::string_view FullName = parseDottedName();
        if (FullName.empty())
          return Attribute();
        auto [EnumPath, CaseName] = splitLastSegment(FullName);
        if (!EnumPath.empty()) {
          if (EnumDef *Def = Ctx.resolveEnumDef(EnumPath)) {
            if (auto Index = Def->lookupCase(CaseName))
              return Ctx.getEnumAttr(EnumVal{Def, *Index});
            Diags.emitError(Loc, "'" + std::string(CaseName) +
                                     "' is not a constructor of enum '" +
                                     Def->getFullName() + "'");
            return Attribute();
          }
        }
        // Not an enum: reinterpret the path as a type, one level down.
        TypeAttrNesting TypeLevel(*this);
        if (TypeLevel.tooDeep())
          return Attribute();
        if (EnumPath.empty())
          if (Type Sugar = parseTypeSugar(FullName))
            return Ctx.getTypeAttr(Sugar);
        if (TypeDefinition *Def = Ctx.resolveTypeDef(FullName)) {
          // Continue a full type parse for optional parameters.
          ParamList Params(*this);
          if (failed(Params.parse("'>' in type parameters")))
            return Attribute();
          Type T = Ctx.lookupOrCreateType(Def, Params.get(), Diags, Loc);
          if (!T)
            return Attribute();
          return Ctx.getTypeAttr(T);
        }
        Diags.emitError(Loc,
                        "unknown attribute '" + std::string(FullName) + "'");
        return Attribute();
      }
      [[fallthrough]];
    case IRToken::Kind::Bang:
    case IRToken::Kind::LParen: {
      // A bare type is a type attribute.
      Type T = parseType();
      if (!T)
        return Attribute();
      return Ctx.getTypeAttr(T);
    }
    default:
      Diags.emitError(Loc, "expected attribute");
      return Attribute();
    }
  }

  LogicalResult parseOptionalAttrDict(NamedAttrList &Attrs) {
    if (!tok().is(IRToken::Kind::LBrace))
      return success();
    lex();
    if (consumeIf(IRToken::Kind::RBrace))
      return success();
    do {
      std::string_view Name;
      if (tok().is(IRToken::Kind::Identifier) ||
          tok().is(IRToken::Kind::String)) {
        Name = tok().Spelling;
        lex();
      } else {
        return emitError(tok().Loc, "expected attribute name");
      }
      if (consumeIf(IRToken::Kind::Equal)) {
        Attribute A = parseAttribute();
        if (!A)
          return failure();
        Attrs.set(Name, A);
      } else {
        Attrs.set(Name, Ctx.getUnitAttr());
      }
    } while (consumeIf(IRToken::Kind::Comma));
    return expect(IRToken::Kind::RBrace, "'}' at end of attribute dict");
  }

  //===------------------------------------------------------------------===//
  // Operations
  //===------------------------------------------------------------------===//

  /// What building one op needs besides the parser: its state and the
  /// operand references and types read before they are resolved.
  struct OpScratch {
    explicit OpScratch(IRContext &Ctx) : State(Ctx, OperationName()) {}
    OperationState State;
    std::vector<CustomOpParser::UnresolvedOperand> OperandRefs;
    std::vector<Type> OperandTypes;
  };

  /// Holds the op scratch of the next nesting depth while an op is built
  /// there. Regions nest, so the ops being built at one time each hold
  /// their own depth's scratch; releasing it clears it (destroying what a
  /// failed build left in its regions) and keeps its capacity for the
  /// next op at that depth.
  struct ScratchClaim {
    explicit ScratchClaim(IRParserImpl &P) : P(P), S(P.claimScratch()) {}
    ~ScratchClaim() {
      S.State.reset(OperationName());
      S.OperandRefs.clear();
      S.OperandTypes.clear();
      --P.OpDepth;
    }
    ScratchClaim(const ScratchClaim &) = delete;
    ScratchClaim &operator=(const ScratchClaim &) = delete;

    IRParserImpl &P;
    OpScratch &S;
  };

  OpScratch &claimScratch() {
    if (OpDepth == OpScratches.size())
      OpScratches.push_back(std::make_unique<OpScratch>(Ctx));
    return *OpScratches[OpDepth++];
  }

  struct ResultBinding {
    std::string_view Name;
    SMLoc Loc;
    std::optional<unsigned> DeclaredCount;
  };

  /// Parses one operation statement into \p InsertInto.
  LogicalResult parseOpStatement(Block *InsertInto) {
    std::optional<ResultBinding> Binding;
    if (tok().is(IRToken::Kind::PercentId)) {
      ResultBinding B;
      B.Name = tok().Spelling;
      B.Loc = tok().Loc;
      if (B.Name.find('#') != std::string_view::npos)
        return emitError(B.Loc, "result binding may not contain '#'");
      lex();
      if (consumeIf(IRToken::Kind::Colon)) {
        if (!tok().is(IRToken::Kind::Integer))
          return emitError(tok().Loc, "expected result count after ':'");
        auto N = parseUInt(tok().Spelling);
        if (!N || *N == 0)
          return emitError(tok().Loc, "invalid result count");
        B.DeclaredCount = static_cast<unsigned>(*N);
        lex();
      }
      if (failed(expect(IRToken::Kind::Equal, "'=' after result binding")))
        return failure();
      Binding = B;
    }

    SMLoc OpLoc = tok().Loc;
    Operation *Op = nullptr;
    ScratchClaim Claim(*this);
    if (tok().is(IRToken::Kind::String)) {
      if (failed(parseGenericOp(Claim.S, Op)))
        return failure();
    } else if (tok().is(IRToken::Kind::Identifier)) {
      if (failed(parseCustomOp(Claim.S, Op)))
        return failure();
    } else {
      return emitError(OpLoc, "expected operation");
    }

    InsertInto->push_back(Op);

    unsigned NumResults = Op->getNumResults();
    if (Binding) {
      if (Binding->DeclaredCount && *Binding->DeclaredCount != NumResults)
        return emitError(Binding->Loc,
                         "operation defines " + std::to_string(NumResults) +
                             " results but " +
                             std::to_string(*Binding->DeclaredCount) +
                             " were bound");
      if (!Binding->DeclaredCount && NumResults != 1)
        return emitError(Binding->Loc,
                         "operation defines " + std::to_string(NumResults) +
                             " results; bind them as %name:" +
                             std::to_string(NumResults));
      if (NumResults == 1) {
        if (failed(defineValue(Binding->Name, Op->getResult(0),
                               Binding->Loc)))
          return failure();
      } else {
        for (unsigned I = 0; I != NumResults; ++I)
          if (failed(defineValue(storeResultName(Binding->Name, I),
                                 Op->getResult(I), Binding->Loc)))
            return failure();
      }
    } else if (NumResults != 0) {
      return emitError(OpLoc, "operation results must be bound to names");
    }
    return success();
  }

  /// The definition named \p FullName, resolved once per parse for each
  /// spelling that views the source (or the lexer's unescaped strings).
  const OpDefinition *lookupOpDef(std::string_view FullName) {
    if (FullName.data() == DottedName.data())
      return Ctx.resolveOpDef(FullName);
    auto [Def, Inserted] = OpDefs.insert(FullName, nullptr);
    if (Inserted)
      *Def = Ctx.resolveOpDef(FullName);
    return *Def;
  }

  LogicalResult resolveOpName(std::string_view FullName, SMLoc Loc,
                              OperationName &Name) {
    if (const OpDefinition *Def = lookupOpDef(FullName)) {
      Name = OperationName(Def);
      return success();
    }
    if (Ctx.allowsUnregisteredOps()) {
      Name = OperationName(std::string(FullName));
      return success();
    }
    return emitError(Loc, "unknown operation '" + std::string(FullName) + "'");
  }

  LogicalResult parseGenericOp(OpScratch &S, Operation *&Op) {
    SMLoc OpLoc = tok().Loc;
    std::string_view FullName = tok().Spelling;
    lex();

    OperationState &State = S.State;
    if (failed(resolveOpName(FullName, OpLoc, State.Name)))
      return failure();
    State.Loc = OpLoc;

    // Operand references.
    std::vector<CustomOpParser::UnresolvedOperand> &OperandRefs =
        S.OperandRefs;
    if (failed(expect(IRToken::Kind::LParen, "'(' after operation name")))
      return failure();
    if (!tok().is(IRToken::Kind::RParen)) {
      do {
        if (!tok().is(IRToken::Kind::PercentId))
          return emitError(tok().Loc, "expected SSA operand");
        OperandRefs.push_back({tok().Spelling, tok().Loc});
        lex();
      } while (consumeIf(IRToken::Kind::Comma));
    }
    if (failed(expect(IRToken::Kind::RParen, "')' after operands")))
      return failure();

    // Successors.
    if (consumeIf(IRToken::Kind::LSquare)) {
      if (!tok().is(IRToken::Kind::RSquare)) {
        do {
          if (!tok().is(IRToken::Kind::CaretId))
            return emitError(tok().Loc, "expected successor block");
          State.addSuccessor(getOrCreateBlock(tok().Spelling, tok().Loc).B);
          lex();
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RSquare, "']' after successors")))
        return failure();
    }

    // Regions.
    if (tok().is(IRToken::Kind::LParen)) {
      lex();
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Region *R = State.addRegion();
          if (failed(parseRegionBody(*R, {})))
            return failure();
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' after regions")))
        return failure();
    }

    if (failed(parseOptionalAttrDict(State.Attributes)))
      return failure();

    // Signature.
    if (failed(expect(IRToken::Kind::Colon, "':' before op signature")) ||
        failed(expect(IRToken::Kind::LParen, "'(' in op signature")))
      return failure();
    std::vector<Type> &OperandTypes = S.OperandTypes;
    if (!tok().is(IRToken::Kind::RParen)) {
      do {
        Type T = parseType();
        if (!T)
          return failure();
        OperandTypes.push_back(T);
      } while (consumeIf(IRToken::Kind::Comma));
    }
    if (failed(expect(IRToken::Kind::RParen, "')' in op signature")) ||
        failed(expect(IRToken::Kind::Arrow, "'->' in op signature")))
      return failure();
    if (consumeIf(IRToken::Kind::LParen)) {
      if (!tok().is(IRToken::Kind::RParen)) {
        do {
          Type T = parseType();
          if (!T)
            return failure();
          State.ResultTypes.push_back(T);
        } while (consumeIf(IRToken::Kind::Comma));
      }
      if (failed(expect(IRToken::Kind::RParen, "')' in op signature")))
        return failure();
    } else {
      Type T = parseType();
      if (!T)
        return failure();
      State.ResultTypes.push_back(T);
    }

    if (OperandTypes.size() != OperandRefs.size())
      return emitError(OpLoc, "operand count (" +
                                  std::to_string(OperandRefs.size()) +
                                  ") does not match signature (" +
                                  std::to_string(OperandTypes.size()) + ")");
    for (size_t I = 0, E = OperandRefs.size(); I != E; ++I) {
      Value V = resolveValue(OperandRefs[I].Name, OperandTypes[I],
                             OperandRefs[I].Loc);
      if (!V)
        return failure();
      State.Operands.push_back(V);
    }

    Op = Operation::create(State);
    return success();
  }

  LogicalResult parseCustomOp(OpScratch &S, Operation *&Op) {
    SMLoc OpLoc = tok().Loc;
    std::string_view FullName = parseDottedName();
    if (FullName.empty())
      return failure();
    const OpDefinition *Def = lookupOpDef(FullName);
    if (!Def)
      return emitError(OpLoc,
                       "unknown operation '" + std::string(FullName) + "'");
    if (!Def->getParseFn())
      return emitError(OpLoc, "operation '" + Def->getFullName() +
                                  "' has no custom syntax; use the generic "
                                  "form");
    S.State.Name = OperationName(Def);
    S.State.Loc = OpLoc;
    CustomOpParser Custom(*this);
    if (failed(Def->getParseFn()(Custom, S.State)))
      return failure();
    Op = Operation::create(S.State);
    return success();
  }

  using BlockArgList =
      std::vector<std::pair<CustomOpParser::UnresolvedOperand, Type>>;

  /// Binds the names in \p Args to the arguments of \p B, which must
  /// already hold one argument per entry. Only called once every argument
  /// exists: adding one can move the argument array, so a Value taken
  /// before the last addition would dangle.
  LogicalResult defineBlockArguments(Block *B, const BlockArgList &Args) {
    for (unsigned I = 0, E = Args.size(); I != E; ++I)
      if (failed(defineValue(Args[I].first.Name, B->getArgument(I),
                             Args[I].first.Loc)))
        return failure();
    return success();
  }

  /// Parses `{ ... }` region contents into \p R.
  LogicalResult parseRegionBody(Region &R, const BlockArgList &EntryArgs) {
    SMLoc BraceLoc = tok().Loc;
    if (failed(expect(IRToken::Kind::LBrace, "'{' to begin region")))
      return failure();
    // Regions below the module body count. The top-level scope is the
    // module body, and so is the region of a top-level builtin.module,
    // which parseTopLevel unwraps.
    unsigned Depth = NumScopes;
    if (OpScratches[0]->State.Name.getDef() == ModuleDef)
      --Depth;
    if (Depth > MaxNestingDepth)
      return emitError(BraceLoc, "regions nested deeper than " +
                                     std::to_string(MaxNestingDepth));
    pushScope();

    Block *CurBlock = nullptr;
    if (!EntryArgs.empty()) {
      std::vector<Type> Types;
      Types.reserve(EntryArgs.size());
      for (const auto &Arg : EntryArgs)
        Types.push_back(Arg.second);
      CurBlock = Block::create(Ctx, Types);
      R.push_back(CurBlock);
      if (failed(defineBlockArguments(CurBlock, EntryArgs))) {
        (void)popScope();
        return failure();
      }
    }

    while (!tok().is(IRToken::Kind::RBrace)) {
      if (tok().is(IRToken::Kind::Eof)) {
        (void)popScope();
        return emitError(tok().Loc, "unterminated region");
      }
      if (tok().is(IRToken::Kind::CaretId)) {
        // Labeled block.
        std::string_view Label = tok().Spelling;
        SMLoc LabelLoc = tok().Loc;
        lex();
        BlockEntry &Entry = getOrCreateBlock(Label, LabelLoc);
        if (Entry.Defined) {
          (void)popScope();
          return emitError(LabelLoc,
                           "redefinition of block ^" + std::string(Label));
        }
        Entry.Defined = true;
        Block *B = Entry.B;
        R.push_back(B);
        if (consumeIf(IRToken::Kind::LParen)) {
          // A forward successor reference may already have created the
          // block, so its arguments are appended rather than created with
          // it.
          BlockArgList Args;
          if (!tok().is(IRToken::Kind::RParen)) {
            do {
              if (!tok().is(IRToken::Kind::PercentId)) {
                (void)popScope();
                return emitError(tok().Loc, "expected block argument");
              }
              CustomOpParser::UnresolvedOperand Ref{tok().Spelling,
                                                    tok().Loc};
              lex();
              if (failed(expect(IRToken::Kind::Colon,
                                "':' after block argument"))) {
                (void)popScope();
                return failure();
              }
              Type Ty = parseType();
              if (!Ty) {
                (void)popScope();
                return failure();
              }
              Args.emplace_back(Ref, Ty);
            } while (consumeIf(IRToken::Kind::Comma));
          }
          if (failed(expect(IRToken::Kind::RParen,
                            "')' after block arguments"))) {
            (void)popScope();
            return failure();
          }
          for (const auto &Arg : Args)
            B->addArgument(Arg.second);
          if (failed(defineBlockArguments(B, Args))) {
            (void)popScope();
            return failure();
          }
        }
        if (failed(expect(IRToken::Kind::Colon, "':' after block label"))) {
          (void)popScope();
          return failure();
        }
        CurBlock = B;
        continue;
      }
      if (!CurBlock) {
        CurBlock = Block::create(Ctx);
        R.push_back(CurBlock);
      }
      if (failed(parseOpStatement(CurBlock))) {
        (void)popScope();
        return failure();
      }
    }
    lex(); // consume '}'
    return popScope();
  }

  /// Parses the whole buffer as a module.
  Operation *parseTopLevel() {
    OperationState State(Ctx, OperationName(ModuleDef), tok().Loc);
    Region *R = State.addRegion();
    Block *Body = Block::create(Ctx);
    R->push_back(Body);

    pushScope();
    while (!tok().is(IRToken::Kind::Eof)) {
      if (tok().is(IRToken::Kind::Error)) {
        (void)popScope();
        return nullptr;
      }
      if (failed(parseOpStatement(Body))) {
        (void)popScope();
        return nullptr;
      }
    }
    if (failed(popScope()))
      return nullptr;

    // Unwrap a single explicit module.
    if (Body->getNumOps() == 1) {
      Operation &Only = Body->front();
      if (Only.getDef() == ModuleDef) {
        Only.removeFromBlock();
        return &Only;
      }
    }
    return Operation::create(State);
  }

  IRContext &Ctx;
  DiagnosticEngine &Diags;
  IRLexer Lex;
  /// Scopes by nesting depth; the first NumScopes are open. Closed ones
  /// keep their tables' storage for the next region at their depth.
  std::vector<Scope> Scopes;
  unsigned NumScopes = 0;
  /// Op scratch by nesting depth; the first OpDepth are claimed.
  std::vector<std::unique_ptr<OpScratch>> OpScratches;
  unsigned OpDepth = 0;
  /// Types, attributes and parameters being parsed inside one another.
  unsigned TypeAttrDepth = 0;
  /// The parameters of the types and attributes being parsed (ParamList).
  std::vector<ParamValue> ParamStack;
  OperationName ForwardRefName{"builtin.__forward_ref__"};
  const OpDefinition *ModuleDef = Ctx.resolveOpDef("builtin.module");
  /// Chunks backing storeResultName; NameStoreCur..NameStoreEnd is free.
  std::vector<std::unique_ptr<char[]>> NameStore;
  char *NameStoreCur = nullptr;
  char *NameStoreEnd = nullptr;
  /// CustomOpParser::getScratch's objects, one per type.
  std::vector<std::pair<std::type_index, std::shared_ptr<void>>> HookScratch;
  std::vector<Operation *> Orphans;
  /// parseTypeSugar's answers in this parse, keyed by source spelling.
  NameTable<Type> SugarTypes;
  /// Backing store for parseDottedName's result when the path is spaced.
  std::string DottedName;
  /// lookupOpDef's answers in this parse; null for unknown names.
  NameTable<const OpDefinition *> OpDefs;
};

} // namespace irdl

//===----------------------------------------------------------------------===//
// CustomOpParser
//===----------------------------------------------------------------------===//

IRContext *CustomOpParser::getContext() { return &Impl.Ctx; }
SMLoc CustomOpParser::getCurrentLoc() { return Impl.tok().Loc; }

LogicalResult CustomOpParser::emitError(SMLoc Loc, std::string Message) {
  return Impl.emitError(Loc, std::move(Message));
}

bool CustomOpParser::consumeIf(IRToken::Kind K) { return Impl.consumeIf(K); }

LogicalResult CustomOpParser::expect(IRToken::Kind K,
                                     std::string_view What) {
  return Impl.expect(K, What);
}

bool CustomOpParser::consumeOptionalKeyword(std::string_view Keyword) {
  if (!Impl.tok().isIdent(Keyword))
    return false;
  Impl.lex();
  return true;
}

LogicalResult CustomOpParser::parseKeyword(std::string_view Keyword) {
  if (consumeOptionalKeyword(Keyword))
    return success();
  return Impl.emitError(Impl.tok().Loc,
                        "expected keyword '" + std::string(Keyword) + "'");
}

LogicalResult CustomOpParser::parseOperand(UnresolvedOperand &Result) {
  if (!parseOptionalOperand(Result))
    return Impl.emitError(Impl.tok().Loc, "expected SSA operand");
  return success();
}

bool CustomOpParser::parseOptionalOperand(UnresolvedOperand &Result) {
  if (!Impl.tok().is(IRToken::Kind::PercentId))
    return false;
  Result.Name = Impl.tok().Spelling;
  Result.Loc = Impl.tok().Loc;
  Impl.lex();
  return true;
}

LogicalResult
CustomOpParser::resolveOperand(const UnresolvedOperand &Operand, Type Ty,
                               std::vector<Value> &Operands) {
  Value V = Impl.resolveValue(Operand.Name, Ty, Operand.Loc);
  if (!V)
    return failure();
  Operands.push_back(V);
  return success();
}

LogicalResult CustomOpParser::parseType(Type &Result) {
  Result = Impl.parseType();
  return Result ? success() : failure();
}

LogicalResult CustomOpParser::parseAttribute(Attribute &Result) {
  Result = Impl.parseAttribute();
  return Result ? success() : failure();
}

LogicalResult CustomOpParser::parseParam(ParamValue &Result) {
  return Impl.parseParam(Result);
}

LogicalResult CustomOpParser::parseOptionalAttrDict(NamedAttrList &Attrs) {
  return Impl.parseOptionalAttrDict(Attrs);
}

LogicalResult CustomOpParser::parseSymbolName(std::string &Result) {
  if (!Impl.tok().is(IRToken::Kind::AtId))
    return Impl.emitError(Impl.tok().Loc, "expected symbol name");
  Result = std::string(Impl.tok().Spelling);
  Impl.lex();
  return success();
}

LogicalResult CustomOpParser::parseSuccessor(Block *&Result) {
  if (!Impl.tok().is(IRToken::Kind::CaretId))
    return Impl.emitError(Impl.tok().Loc, "expected successor block");
  Result = Impl.getOrCreateBlock(Impl.tok().Spelling, Impl.tok().Loc).B;
  Impl.lex();
  return success();
}

std::shared_ptr<void> &CustomOpParser::scratchSlot(std::type_index Type) {
  for (auto &[Key, Slot] : Impl.HookScratch)
    if (Key == Type)
      return Slot;
  return Impl.HookScratch.emplace_back(Type, nullptr).second;
}

LogicalResult CustomOpParser::parseRegion(
    Region &R,
    const std::vector<std::pair<UnresolvedOperand, Type>> &EntryArgs) {
  return Impl.parseRegionBody(R, EntryArgs);
}

//===----------------------------------------------------------------------===//
// Entry points
//===----------------------------------------------------------------------===//

OwningOpRef irdl::parseSourceString(IRContext &Ctx, std::string_view Source,
                                    SourceMgr &SrcMgr,
                                    DiagnosticEngine &Diags,
                                    std::string BufferName) {
  IRDL_TIME_SCOPE("ir-parse");
  ++NumBuffersParsed;
  uint64_t Begin = metricsEnabled() ? steadyNowNs() : 0;
  unsigned Id =
      SrcMgr.addBuffer(std::string(Source), std::move(BufferName));
  if (!Diags.getSourceMgr())
    Diags.setSourceMgr(&SrcMgr);
  IRParserImpl Parser(Ctx, SrcMgr.getBufferContents(Id), Diags);
  Operation *Top = Parser.parseTopLevel();
  if (!Top) {
    Parser.deleteOrphans();
    return OwningOpRef();
  }
  if (metricsEnabled()) {
    // Reader throughput, comparable with the bytecode reader through the
    // shared format label.
    MetricLabels TextLabel{{"format", "text"}};
    static Counter &Bytes = MetricsRegistry::instance().getCounter(
        "irdl_reader_bytes_total", "input bytes consumed by IR readers",
        TextLabel);
    static Counter &Ops = MetricsRegistry::instance().getCounter(
        "irdl_reader_ops_total", "operations materialized by IR readers",
        TextLabel);
    static Histogram &Duration = MetricsRegistry::instance().getHistogram(
        "irdl_reader_duration_ns", "wall time of one IR reader invocation",
        TextLabel);
    Bytes.inc(Source.size());
    uint64_t NumOps = 0;
    Top->walk([&NumOps](Operation *) { ++NumOps; });
    Ops.inc(NumOps);
    Duration.record(steadyNowNs() - Begin);
  }
  return OwningOpRef(Top);
}

Type irdl::parseTypeString(IRContext &Ctx, std::string_view Source,
                           DiagnosticEngine &Diags) {
  IRParserImpl Parser(Ctx, Source, Diags);
  Type T = Parser.parseType();
  if (T && !Parser.tok().is(IRToken::Kind::Eof)) {
    Diags.emitError(Parser.tok().Loc, "unexpected trailing input after type");
    return Type();
  }
  return T;
}

Attribute irdl::parseAttrString(IRContext &Ctx, std::string_view Source,
                                DiagnosticEngine &Diags) {
  IRParserImpl Parser(Ctx, Source, Diags);
  Attribute A = Parser.parseAttribute();
  if (A && !Parser.tok().is(IRToken::Kind::Eof)) {
    Diags.emitError(Parser.tok().Loc,
                    "unexpected trailing input after attribute");
    return Attribute();
  }
  return A;
}
