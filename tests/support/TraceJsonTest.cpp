//===- TraceJsonTest.cpp - Chrome trace export ------------------------===//
///
/// Validates TimerGroup::renderTraceJson output with a minimal JSON
/// parser: the document must parse, carry the trace-event schema Chrome
/// and Perfetto expect, and the recorded events must be well-nested per
/// thread.

#include "support/Timing.h"

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <memory>
#include <string>
#include <vector>

using namespace irdl;

namespace {

//===----------------------------------------------------------------------===//
// A tiny JSON parser, just enough to validate the exporter.
//===----------------------------------------------------------------------===//

struct JsonValue {
  enum class Kind { Null, Bool, Number, String, Array, Object } K;
  bool B = false;
  double Num = 0;
  std::string Str;
  std::vector<std::unique_ptr<JsonValue>> Arr;
  std::map<std::string, std::unique_ptr<JsonValue>> Obj;

  const JsonValue *get(const std::string &Key) const {
    auto It = Obj.find(Key);
    return It == Obj.end() ? nullptr : It->second.get();
  }
};

class JsonParser {
public:
  explicit JsonParser(std::string_view Text) : Text(Text) {}

  std::unique_ptr<JsonValue> parse() {
    auto V = parseValue();
    skipWs();
    if (!V || Pos != Text.size())
      return nullptr; // trailing garbage or error
    return V;
  }

private:
  void skipWs() {
    while (Pos < Text.size() && std::isspace((unsigned char)Text[Pos]))
      ++Pos;
  }

  bool consume(char C) {
    skipWs();
    if (Pos < Text.size() && Text[Pos] == C) {
      ++Pos;
      return true;
    }
    return false;
  }

  std::unique_ptr<JsonValue> parseValue() {
    skipWs();
    if (Pos >= Text.size())
      return nullptr;
    char C = Text[Pos];
    if (C == '{')
      return parseObject();
    if (C == '[')
      return parseArray();
    if (C == '"')
      return parseString();
    if (C == '-' || std::isdigit((unsigned char)C))
      return parseNumber();
    if (Text.substr(Pos, 4) == "true") {
      Pos += 4;
      auto V = std::make_unique<JsonValue>();
      V->K = JsonValue::Kind::Bool;
      V->B = true;
      return V;
    }
    if (Text.substr(Pos, 5) == "false") {
      Pos += 5;
      auto V = std::make_unique<JsonValue>();
      V->K = JsonValue::Kind::Bool;
      return V;
    }
    if (Text.substr(Pos, 4) == "null") {
      Pos += 4;
      auto V = std::make_unique<JsonValue>();
      V->K = JsonValue::Kind::Null;
      return V;
    }
    return nullptr;
  }

  std::unique_ptr<JsonValue> parseString() {
    if (!consume('"'))
      return nullptr;
    auto V = std::make_unique<JsonValue>();
    V->K = JsonValue::Kind::String;
    while (Pos < Text.size() && Text[Pos] != '"') {
      char C = Text[Pos++];
      if (C == '\\') {
        if (Pos >= Text.size())
          return nullptr;
        char E = Text[Pos++];
        switch (E) {
        case '"':
        case '\\':
        case '/':
          V->Str += E;
          break;
        case 'n':
          V->Str += '\n';
          break;
        case 't':
          V->Str += '\t';
          break;
        case 'u':
          if (Pos + 4 > Text.size())
            return nullptr;
          Pos += 4; // validated, not decoded
          V->Str += '?';
          break;
        default:
          return nullptr;
        }
      } else {
        V->Str += C;
      }
    }
    if (Pos >= Text.size())
      return nullptr;
    ++Pos; // closing quote
    return V;
  }

  std::unique_ptr<JsonValue> parseNumber() {
    size_t Start = Pos;
    if (Pos < Text.size() && Text[Pos] == '-')
      ++Pos;
    while (Pos < Text.size() &&
           (std::isdigit((unsigned char)Text[Pos]) || Text[Pos] == '.' ||
            Text[Pos] == 'e' || Text[Pos] == 'E' || Text[Pos] == '+' ||
            Text[Pos] == '-'))
      ++Pos;
    auto V = std::make_unique<JsonValue>();
    V->K = JsonValue::Kind::Number;
    try {
      V->Num = std::stod(std::string(Text.substr(Start, Pos - Start)));
    } catch (...) {
      return nullptr;
    }
    return V;
  }

  std::unique_ptr<JsonValue> parseArray() {
    if (!consume('['))
      return nullptr;
    auto V = std::make_unique<JsonValue>();
    V->K = JsonValue::Kind::Array;
    skipWs();
    if (consume(']'))
      return V;
    do {
      auto E = parseValue();
      if (!E)
        return nullptr;
      V->Arr.push_back(std::move(E));
    } while (consume(','));
    if (!consume(']'))
      return nullptr;
    return V;
  }

  std::unique_ptr<JsonValue> parseObject() {
    if (!consume('{'))
      return nullptr;
    auto V = std::make_unique<JsonValue>();
    V->K = JsonValue::Kind::Object;
    skipWs();
    if (consume('}'))
      return V;
    do {
      auto Key = parseString();
      if (!Key || !consume(':'))
        return nullptr;
      auto Val = parseValue();
      if (!Val)
        return nullptr;
      V->Obj[Key->Str] = std::move(Val);
    } while (consume(','));
    if (!consume('}'))
      return nullptr;
    return V;
  }

  std::string_view Text;
  size_t Pos = 0;
};

//===----------------------------------------------------------------------===//
// Tests
//===----------------------------------------------------------------------===//

void spinBriefly() {
  uint64_t Start = steadyNowNs();
  while (steadyNowNs() - Start < 200 * 1000) // 0.2 ms
    ;
}

/// Builds a group with a known scope structure: outer > {child-a,
/// child-b}, then a sibling "tail" at top level.
void recordFixture(TimerGroup &G) {
  {
    TimingScope Outer(G, "outer");
    {
      TimingScope A(G, "child-a");
      spinBriefly();
    }
    {
      TimingScope B(G, "child-b");
      spinBriefly();
    }
  }
  TimingScope Tail(G, "tail");
  spinBriefly();
}

TEST(TraceJsonTest, ParsesAndHasSchema) {
  TimerGroup G("trace-test");
  recordFixture(G);
  std::string Json = G.renderTraceJson("my-process");

  auto Doc = JsonParser(Json).parse();
  ASSERT_NE(Doc, nullptr) << "trace JSON failed to parse:\n" << Json;
  ASSERT_EQ(Doc->K, JsonValue::Kind::Object);

  const JsonValue *Unit = Doc->get("displayTimeUnit");
  ASSERT_NE(Unit, nullptr);
  EXPECT_EQ(Unit->Str, "ms");

  const JsonValue *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);
  ASSERT_EQ(Events->K, JsonValue::Kind::Array);
  // process_name + thread_name metadata events + 4 scopes.
  ASSERT_EQ(Events->Arr.size(), 6u);

  // First event: the process_name metadata record.
  const JsonValue &Meta = *Events->Arr[0];
  ASSERT_EQ(Meta.K, JsonValue::Kind::Object);
  EXPECT_EQ(Meta.get("ph")->Str, "M");
  EXPECT_EQ(Meta.get("name")->Str, "process_name");
  ASSERT_NE(Meta.get("args"), nullptr);
  EXPECT_EQ(Meta.get("args")->get("name")->Str, "my-process");

  // The single recording thread gets a thread_name metadata row named
  // "main" on its tid.
  const JsonValue &ThreadMeta = *Events->Arr[1];
  EXPECT_EQ(ThreadMeta.get("ph")->Str, "M");
  EXPECT_EQ(ThreadMeta.get("name")->Str, "thread_name");
  EXPECT_EQ(ThreadMeta.get("tid")->Num, 1.0);
  ASSERT_NE(ThreadMeta.get("args"), nullptr);
  EXPECT_EQ(ThreadMeta.get("args")->get("name")->Str, "main");

  // Every other event is a complete ('X') event with the full schema.
  for (size_t I = 2; I != Events->Arr.size(); ++I) {
    const JsonValue &E = *Events->Arr[I];
    ASSERT_EQ(E.K, JsonValue::Kind::Object) << "event " << I;
    ASSERT_NE(E.get("name"), nullptr) << "event " << I;
    ASSERT_NE(E.get("ph"), nullptr) << "event " << I;
    EXPECT_EQ(E.get("ph")->Str, "X") << "event " << I;
    for (const char *Key : {"pid", "tid", "ts", "dur"}) {
      ASSERT_NE(E.get(Key), nullptr)
          << "event " << I << " missing " << Key;
      EXPECT_EQ(E.get(Key)->K, JsonValue::Kind::Number);
    }
    EXPECT_GE(E.get("ts")->Num, 0.0);
    EXPECT_GE(E.get("dur")->Num, 0.0);
  }
}

TEST(TraceJsonTest, EventsCoverAllScopesAndNestProperly) {
  TimerGroup G("trace-test");
  recordFixture(G);
  auto Doc = JsonParser(G.renderTraceJson()).parse();
  ASSERT_NE(Doc, nullptr);
  const JsonValue *Events = Doc->get("traceEvents");
  ASSERT_NE(Events, nullptr);

  struct Interval {
    std::string Name;
    double Ts, Dur;
  };
  std::map<double, std::vector<Interval>> ByTid;
  std::map<std::string, unsigned> NameCount;
  for (const auto &EPtr : Events->Arr) {
    const JsonValue &E = *EPtr;
    if (E.get("ph")->Str != "X")
      continue;
    ++NameCount[E.get("name")->Str];
    ByTid[E.get("tid")->Num].push_back(
        {E.get("name")->Str, E.get("ts")->Num, E.get("dur")->Num});
  }
  EXPECT_EQ(NameCount["outer"], 1u);
  EXPECT_EQ(NameCount["child-a"], 1u);
  EXPECT_EQ(NameCount["child-b"], 1u);
  EXPECT_EQ(NameCount["tail"], 1u);

  // Per thread, any two events must be disjoint or properly nested —
  // that is what makes the trace render as a flame graph.
  for (const auto &[Tid, Ivs] : ByTid) {
    for (size_t I = 0; I != Ivs.size(); ++I) {
      for (size_t J = I + 1; J != Ivs.size(); ++J) {
        const Interval &A = Ivs[I], &B = Ivs[J];
        double AEnd = A.Ts + A.Dur, BEnd = B.Ts + B.Dur;
        bool Disjoint = AEnd <= B.Ts || BEnd <= A.Ts;
        bool ANestsInB = A.Ts >= B.Ts && AEnd <= BEnd;
        bool BNestsInA = B.Ts >= A.Ts && BEnd <= AEnd;
        EXPECT_TRUE(Disjoint || ANestsInB || BNestsInA)
            << A.Name << " [" << A.Ts << "," << AEnd << ") overlaps "
            << B.Name << " [" << B.Ts << "," << BEnd << ")";
      }
    }
  }

  // The fixture's children lie inside "outer".
  const auto &Ivs = ByTid.begin()->second;
  const Interval *Outer = nullptr, *ChildA = nullptr;
  for (const auto &Iv : Ivs) {
    if (Iv.Name == "outer")
      Outer = &Iv;
    if (Iv.Name == "child-a")
      ChildA = &Iv;
  }
  ASSERT_NE(Outer, nullptr);
  ASSERT_NE(ChildA, nullptr);
  EXPECT_GE(ChildA->Ts, Outer->Ts);
  EXPECT_LE(ChildA->Ts + ChildA->Dur, Outer->Ts + Outer->Dur);
}

TEST(TraceJsonTest, EscapesSpecialCharactersInNames) {
  TimerGroup G("trace-test");
  {
    TimingScope S(G, "quote\"back\\slash\nnewline");
  }
  auto Doc = JsonParser(G.renderTraceJson()).parse();
  ASSERT_NE(Doc, nullptr) << "escaping broke the JSON";
  const JsonValue *Events = Doc->get("traceEvents");
  // process_name + thread_name metadata + the one scope.
  ASSERT_EQ(Events->Arr.size(), 3u);
  EXPECT_EQ(Events->Arr[2]->get("name")->Str,
            "quote\"back\\slash\nnewline");
}

TEST(TraceJsonTest, JsonSummaryParsesAndMirrorsTree) {
  TimerGroup G("summary-test");
  recordFixture(G);
  auto Doc = JsonParser(G.renderJsonSummary()).parse();
  ASSERT_NE(Doc, nullptr);
  EXPECT_EQ(Doc->get("group")->Str, "summary-test");
  EXPECT_GT(Doc->get("total_wall_ms")->Num, 0.0);
  const JsonValue *Tree = Doc->get("tree");
  ASSERT_NE(Tree, nullptr);
  EXPECT_EQ(Tree->get("name")->Str, "<total>");
  ASSERT_EQ(Tree->get("children")->Arr.size(), 2u); // outer, tail
  const JsonValue &Outer = *Tree->get("children")->Arr[0];
  EXPECT_EQ(Outer.get("name")->Str, "outer");
  EXPECT_EQ(Outer.get("children")->Arr.size(), 2u);
}

} // namespace
