#include "obs/json.hpp"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <stdexcept>

namespace npac::obs {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue parse_document() {
    skip_whitespace();
    JsonValue value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("JSON parse error at byte " +
                                std::to_string(pos_) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() const {
    if (pos_ >= text_.size()) {
      throw std::invalid_argument("JSON parse error at byte " +
                                  std::to_string(pos_) +
                                  ": unexpected end of input");
    }
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  JsonValue parse_value() {
    switch (peek()) {
      case '{':
      case '[': {
        // Containers recurse, so nesting is capped: a hostile run of
        // brackets must throw, not exhaust the stack.
        if (depth_ == kMaxDepth) {
          fail("nesting deeper than " + std::to_string(kMaxDepth) +
               " levels");
        }
        ++depth_;
        JsonValue value = peek() == '{' ? parse_object() : parse_array();
        --depth_;
        return value;
      }
      case '"':
        return JsonValue(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue(true);
        fail("malformed literal");
      case 'f':
        if (consume_literal("false")) return JsonValue(false);
        fail("malformed literal");
      case 'n':
        if (consume_literal("null")) return JsonValue();
        fail("malformed literal");
      default:
        return parse_number();
    }
  }

  JsonValue parse_object() {
    expect('{');
    JsonValue::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return JsonValue(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      skip_whitespace();
      object.emplace(std::move(key), parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return JsonValue(std::move(object));
    }
  }

  JsonValue parse_array() {
    expect('[');
    JsonValue::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return JsonValue(std::move(array));
    }
    while (true) {
      skip_whitespace();
      array.push_back(parse_value());
      skip_whitespace();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return JsonValue(std::move(array));
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = peek();
      ++pos_;
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      const char escape = peek();
      ++pos_;
      switch (escape) {
        case '"':
        case '\\':
        case '/':
          out += escape;
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'n':
          out += '\n';
          break;
        case 'r':
          out += '\r';
          break;
        case 't':
          out += '\t';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned int code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_ + static_cast<std::size_t>(i)];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned int>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned int>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned int>(h - 'A' + 10);
            } else {
              fail("malformed \\u escape");
            }
          }
          pos_ += 4;
          // UTF-8 encode the BMP code point (surrogate pairs are not
          // produced by this repo's emitters).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default:
          fail("unknown escape");
      }
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    if (token.empty() || token == "-") fail("malformed number");
    errno = 0;
    char* end = nullptr;
    const double value = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size() || errno == ERANGE) {
      fail("malformed number '" + token + "'");
    }
    return JsonValue(value);
  }

  static constexpr int kMaxDepth = 512;

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;
};

[[noreturn]] void kind_error(const char* wanted) {
  throw std::invalid_argument(std::string("JsonValue: not a ") + wanted);
}

}  // namespace

JsonValue JsonValue::parse(std::string_view text) {
  return Parser(text).parse_document();
}

bool JsonValue::boolean() const {
  if (kind_ != Kind::kBool) kind_error("bool");
  return bool_;
}

double JsonValue::number() const {
  if (kind_ != Kind::kNumber) kind_error("number");
  return number_;
}

const std::string& JsonValue::string() const {
  if (kind_ != Kind::kString) kind_error("string");
  return string_;
}

const JsonValue::Array& JsonValue::array() const {
  if (kind_ != Kind::kArray) kind_error("array");
  return array_;
}

const JsonValue::Object& JsonValue::object() const {
  if (kind_ != Kind::kObject) kind_error("object");
  return object_;
}

const JsonValue& JsonValue::at(const std::string& key) const {
  const auto& members = object();
  const auto it = members.find(key);
  if (it == members.end()) {
    throw std::invalid_argument("JsonValue: missing key '" + key + "'");
  }
  return it->second;
}

bool JsonValue::contains(const std::string& key) const {
  return kind_ == Kind::kObject && object_.find(key) != object_.end();
}

}  // namespace npac::obs
