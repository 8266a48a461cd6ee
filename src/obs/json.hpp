// Minimal JSON value + recursive-descent parser.
//
// Just enough JSON for the observability artifacts this repo emits and
// re-reads: the obs and runner tests parse the registry / trace output
// to assert it is well-formed. Numbers are doubles, objects are
// name-sorted maps, and parse errors throw std::invalid_argument with a
// byte offset. No external dependency.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace npac::obs {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<JsonValue>;
  using Object = std::map<std::string, JsonValue>;

  JsonValue() : kind_(Kind::kNull) {}
  explicit JsonValue(bool value) : kind_(Kind::kBool), bool_(value) {}
  explicit JsonValue(double value) : kind_(Kind::kNumber), number_(value) {}
  explicit JsonValue(std::string value)
      : kind_(Kind::kString), string_(std::move(value)) {}
  explicit JsonValue(Array value)
      : kind_(Kind::kArray), array_(std::move(value)) {}
  explicit JsonValue(Object value)
      : kind_(Kind::kObject), object_(std::move(value)) {}

  /// Parses one JSON document (leading/trailing whitespace allowed).
  /// Throws std::invalid_argument naming the byte offset on malformed
  /// input or trailing garbage.
  static JsonValue parse(std::string_view text);

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::kNull; }
  bool is_object() const { return kind_ == Kind::kObject; }
  bool is_array() const { return kind_ == Kind::kArray; }
  bool is_number() const { return kind_ == Kind::kNumber; }
  bool is_string() const { return kind_ == Kind::kString; }

  /// Typed accessors; throw std::invalid_argument on a kind mismatch.
  bool boolean() const;
  double number() const;
  const std::string& string() const;
  const Array& array() const;
  const Object& object() const;

  /// Object member lookup; throws when absent or not an object.
  const JsonValue& at(const std::string& key) const;
  bool contains(const std::string& key) const;

 private:
  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace npac::obs
