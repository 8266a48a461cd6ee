// Parser tests for the minimal JSON layer the observability artifacts are
// validated and re-read with.
#include "obs/json.hpp"

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

namespace npac::obs {
namespace {

TEST(JsonTest, ParsesScalars) {
  EXPECT_TRUE(JsonValue::parse("null").is_null());
  EXPECT_EQ(JsonValue::parse("true").boolean(), true);
  EXPECT_EQ(JsonValue::parse("false").boolean(), false);
  EXPECT_EQ(JsonValue::parse("42").number(), 42.0);
  EXPECT_EQ(JsonValue::parse("-1.5e3").number(), -1500.0);
  EXPECT_EQ(JsonValue::parse("\"hi\"").string(), "hi");
  EXPECT_EQ(JsonValue::parse("  7 ").number(), 7.0);  // outer whitespace
}

TEST(JsonTest, ParsesEscapes) {
  EXPECT_EQ(JsonValue::parse(R"("a\"b\\c\nd\te")").string(), "a\"b\\c\nd\te");
  // Backslash-u escapes decode to UTF-8 (1-, 2- and 3-byte sequences).
  EXPECT_EQ(JsonValue::parse("\"\\u0041\"").string(), "A");
  EXPECT_EQ(JsonValue::parse("\"\\u00e9\"").string(), "\xc3\xa9");
  EXPECT_EQ(JsonValue::parse("\"\\u20ac\"").string(), "\xe2\x82\xac");
}

TEST(JsonTest, ParsesArraysAndObjects) {
  const JsonValue array = JsonValue::parse("[1, \"two\", [3]]");
  ASSERT_EQ(array.array().size(), 3u);
  EXPECT_EQ(array.array()[0].number(), 1.0);
  EXPECT_EQ(array.array()[1].string(), "two");
  EXPECT_EQ(array.array()[2].array()[0].number(), 3.0);

  const JsonValue object =
      JsonValue::parse(R"({"a": 1, "nested": {"b": [true]}})");
  EXPECT_TRUE(object.contains("a"));
  EXPECT_FALSE(object.contains("z"));
  EXPECT_EQ(object.at("a").number(), 1.0);
  EXPECT_EQ(object.at("nested").at("b").array()[0].boolean(), true);
  EXPECT_EQ(JsonValue::parse("{}").object().size(), 0u);
  EXPECT_EQ(JsonValue::parse("[]").array().size(), 0u);
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(JsonValue::parse(""), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("nul"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(JsonValue::parse("1 2"), std::invalid_argument);  // trailing
}

TEST(JsonTest, NestingIsCappedAt512Levels) {
  // 512 nested arrays still parse.
  const std::string deepest = std::string(512, '[') + std::string(512, ']');
  EXPECT_TRUE(JsonValue::parse(deepest).is_array());
  // A run of brackets far past the cap throws at the first bracket too
  // deep instead of recursing until the stack overflows.
  for (const std::string& hostile :
       {std::string(100000, '['), std::string(513, '[') + std::string(513, ']')}) {
    try {
      JsonValue::parse(hostile);
      ADD_FAILURE() << "nesting past the cap was accepted";
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("at byte 512"),
                std::string::npos)
          << error.what();
    }
  }
  std::string objects;
  for (int i = 0; i < 100000; ++i) objects += "{\"a\":";
  EXPECT_THROW(JsonValue::parse(objects), std::invalid_argument);
}

TEST(JsonTest, KindMismatchThrows) {
  const JsonValue number = JsonValue::parse("1");
  EXPECT_THROW(number.string(), std::invalid_argument);
  EXPECT_THROW(number.array(), std::invalid_argument);
  EXPECT_THROW(number.at("x"), std::invalid_argument);
}

}  // namespace
}  // namespace npac::obs
