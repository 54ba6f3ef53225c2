// Unit + property tests for the JSON document model: parsing, serialization,
// path navigation, and the N1QL collation order.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "json/value.h"

namespace couchkv::json {
namespace {

TEST(JsonValueTest, DefaultIsMissing) {
  Value v;
  EXPECT_TRUE(v.is_missing());
  EXPECT_FALSE(v.Truthy());
}

TEST(JsonValueTest, Constructors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_TRUE(Value::Bool(true).AsBool());
  EXPECT_DOUBLE_EQ(Value::Number(3.5).AsNumber(), 3.5);
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_EQ(Value::Str("hi").AsString(), "hi");
  EXPECT_TRUE(Value::MakeArray().is_array());
  EXPECT_TRUE(Value::MakeObject().is_object());
}

TEST(JsonParseTest, Scalars) {
  EXPECT_TRUE(Parse("null")->is_null());
  EXPECT_TRUE(Parse("true")->AsBool());
  EXPECT_FALSE(Parse("false")->AsBool());
  EXPECT_DOUBLE_EQ(Parse("3.25")->AsNumber(), 3.25);
  EXPECT_DOUBLE_EQ(Parse("-17")->AsNumber(), -17.0);
  EXPECT_DOUBLE_EQ(Parse("1e3")->AsNumber(), 1000.0);
  EXPECT_EQ(Parse("\"abc\"")->AsString(), "abc");
}

TEST(JsonParseTest, NestedStructure) {
  auto v = Parse(R"({"name":"Dipti","tags":["a","b"],"addr":{"city":"SF"}})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Field("name").AsString(), "Dipti");
  EXPECT_EQ(v->Field("tags").AsArray().size(), 2u);
  EXPECT_EQ(v->Field("addr").Field("city").AsString(), "SF");
}

TEST(JsonParseTest, StringEscapes) {
  auto v = Parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->AsString(), "a\"b\\c\ndA");
}

TEST(JsonParseTest, WhitespaceTolerant) {
  auto v = Parse("  {  \"a\" :\n[ 1 , 2 ]\t}  ");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->Field("a").At(1).AsInt(), 2);
}

TEST(JsonParseTest, Errors) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("{").ok());
  EXPECT_FALSE(Parse("[1,]").ok());
  EXPECT_FALSE(Parse("{\"a\":}").ok());
  EXPECT_FALSE(Parse("tru").ok());
  EXPECT_FALSE(Parse("1 2").ok());
  EXPECT_FALSE(Parse("\"unterminated").ok());
}

TEST(JsonParseTest, ValidateAcceptsExactlyWhatParseAccepts) {
  const std::string deep = std::string(300, '[') + std::string(300, ']');
  const std::vector<std::string> texts = {
      "null", "true", "-17", "1e3", R"("a\"b\u0041")", " [1, {\"a\": []}] ",
      R"({"a":{"b":[1,2,"x"]},"c":null})", "", "{", "[1,]", "{\"a\":}",
      "tru", "1 2", "\"unterminated", R"("bad\q")", R"("\u12G4")", "1.2.3",
      R"({"a" 1})", deep};
  for (const std::string& text : texts) {
    auto parsed = Parse(text);
    Status validated = Validate(text);
    EXPECT_EQ(validated.ok(), parsed.ok()) << text;
    if (!parsed.ok()) {
      EXPECT_EQ(validated.ToString(), parsed.status().ToString()) << text;
    }
  }
}

TEST(JsonParseTest, DeepNestingRejected) {
  std::string deep(1000, '[');
  deep += std::string(1000, ']');
  EXPECT_FALSE(Parse(deep).ok());
}

TEST(JsonSerializeTest, RoundTrip) {
  const char* docs[] = {
      R"({"a":1,"b":[true,null,"x"],"c":{"d":2.5}})",
      R"([])",
      R"({})",
      R"([1,2,3])",
      R"("plain")",
  };
  for (const char* doc : docs) {
    auto v1 = Parse(doc);
    ASSERT_TRUE(v1.ok()) << doc;
    auto v2 = Parse(v1->ToJson());
    ASSERT_TRUE(v2.ok()) << v1->ToJson();
    EXPECT_EQ(Value::Compare(*v1, *v2), 0) << doc;
  }
}

TEST(JsonSerializeTest, IntegersPrintWithoutDecimal) {
  EXPECT_EQ(Value::Int(42).ToJson(), "42");
  EXPECT_EQ(Value::Number(2.5).ToJson(), "2.5");
}

TEST(JsonPathTest, GetPath) {
  auto v = Parse(R"({"a":{"b":[{"c":1},{"c":2}]}})").value();
  EXPECT_EQ(v.GetPath("a.b[1].c").AsInt(), 2);
  EXPECT_EQ(v.GetPath("a.b[0].c").AsInt(), 1);
  EXPECT_TRUE(v.GetPath("a.x").is_missing());
  EXPECT_TRUE(v.GetPath("a.b[9].c").is_missing());
  EXPECT_TRUE(v.GetPath("a.b[0].c.d").is_missing());
}

TEST(JsonPathTest, SetPathCreatesIntermediates) {
  Value v = Value::MakeObject();
  EXPECT_TRUE(v.SetPath("a.b.c", Value::Int(5)));
  EXPECT_EQ(v.GetPath("a.b.c").AsInt(), 5);
  // Overwrite.
  EXPECT_TRUE(v.SetPath("a.b.c", Value::Str("x")));
  EXPECT_EQ(v.GetPath("a.b.c").AsString(), "x");
}

TEST(JsonPathTest, SetPathIntoArrayElement) {
  auto v = Parse(R"({"items":[{"q":1},{"q":2}]})").value();
  EXPECT_TRUE(v.SetPath("items[1].q", Value::Int(9)));
  EXPECT_EQ(v.GetPath("items[1].q").AsInt(), 9);
  EXPECT_FALSE(v.SetPath("items[5].q", Value::Int(1)));  // out of range
}

TEST(JsonPathTest, RemovePath) {
  auto v = Parse(R"({"a":{"b":1,"c":2}})").value();
  EXPECT_TRUE(v.RemovePath("a.b"));
  EXPECT_TRUE(v.GetPath("a.b").is_missing());
  EXPECT_EQ(v.GetPath("a.c").AsInt(), 2);
  EXPECT_FALSE(v.RemovePath("a.zzz"));
}

TEST(JsonCollationTest, TypeOrder) {
  // missing < null < false < true < number < string < array < object
  std::vector<Value> order = {
      Value::Missing(),
      Value::Null(),
      Value::Bool(false),
      Value::Bool(true),
      Value::Number(-1e30),
      Value::Str(""),
      Value::MakeArray(),
      Value::MakeObject(),
  };
  for (size_t i = 0; i + 1 < order.size(); ++i) {
    EXPECT_LT(Value::Compare(order[i], order[i + 1]), 0)
        << "at index " << i;
  }
}

TEST(JsonCollationTest, NumbersAndStrings) {
  EXPECT_LT(Value::Compare(Value::Number(1), Value::Number(2)), 0);
  EXPECT_EQ(Value::Compare(Value::Number(2), Value::Number(2)), 0);
  EXPECT_LT(Value::Compare(Value::Str("abc"), Value::Str("abd")), 0);
}

TEST(JsonCollationTest, ArraysElementwiseThenLength) {
  auto a = Parse("[1,2]").value();
  auto b = Parse("[1,3]").value();
  auto c = Parse("[1,2,0]").value();
  EXPECT_LT(Value::Compare(a, b), 0);
  EXPECT_LT(Value::Compare(a, c), 0);
  EXPECT_LT(Value::Compare(c, b), 0);
}

TEST(JsonCollationTest, Truthiness) {
  EXPECT_FALSE(Value::Null().Truthy());
  EXPECT_FALSE(Value::Number(0).Truthy());
  EXPECT_FALSE(Value::Str("").Truthy());
  EXPECT_FALSE(Parse("[]")->Truthy());
  EXPECT_TRUE(Value::Number(0.1).Truthy());
  EXPECT_TRUE(Parse("[0]")->Truthy());
}

// Property test: Compare is a total order (antisymmetric + transitive on a
// random sample) and ToJson/Parse is the identity under Compare.
TEST(JsonPropertyTest, CompareIsConsistentAndRoundTripStable) {
  couchkv::Rng rng(99);
  auto random_value = [&](auto&& self, int depth) -> Value {
    switch (rng.Uniform(depth > 2 ? 5 : 7)) {
      case 0: return Value::Null();
      case 1: return Value::Bool(rng.OneIn(2));
      case 2: return Value::Number(static_cast<double>(rng.Uniform(1000)) / 4);
      case 3: return Value::Str(std::string(rng.Uniform(8), 'a' + rng.Uniform(26)));
      case 4: return Value::Int(static_cast<int64_t>(rng.Uniform(100)));
      case 5: {
        Value::Array arr;
        for (uint64_t i = 0; i < rng.Uniform(4); ++i) {
          arr.push_back(self(self, depth + 1));
        }
        return Value::MakeArray(std::move(arr));
      }
      default: {
        Value::Object obj;
        for (uint64_t i = 0; i < rng.Uniform(4); ++i) {
          obj["k" + std::to_string(rng.Uniform(10))] = self(self, depth + 1);
        }
        return Value::MakeObject(std::move(obj));
      }
    }
  };
  std::vector<Value> samples;
  for (int i = 0; i < 60; ++i) samples.push_back(random_value(random_value, 0));
  for (const Value& a : samples) {
    auto round = Parse(a.ToJson());
    ASSERT_TRUE(round.ok()) << a.ToJson();
    EXPECT_EQ(Value::Compare(a, *round), 0) << a.ToJson();
    for (const Value& b : samples) {
      EXPECT_EQ(Value::Compare(a, b), -Value::Compare(b, a));
      for (const Value& c : samples) {
        if (Value::Compare(a, b) <= 0 && Value::Compare(b, c) <= 0) {
          EXPECT_LE(Value::Compare(a, c), 0);
        }
      }
    }
  }
}

TEST(JsonMemoryTest, FootprintGrowsWithContent) {
  Value small = Value::Str("x");
  Value big = Value::Str(std::string(10000, 'x'));
  EXPECT_GT(big.MemoryFootprint(), small.MemoryFootprint() + 9000);
}

}  // namespace
}  // namespace couchkv::json
