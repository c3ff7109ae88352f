#include "util/json.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace dosc::util {

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& why) const {
    throw JsonError("JSON parse error at offset " + std::to_string(pos_) + ": " + why);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
        ++pos_;
      } else {
        break;
      }
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char next() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (next() != c) fail(std::string("expected '") + c + "'");
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  Json parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Json(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json::Object object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return Json(std::move(object));
    }
    while (true) {
      skip_whitespace();
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      object.emplace(std::move(key), parse_value());
      skip_whitespace();
      const char c = next();
      if (c == '}') return Json(std::move(object));
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Json parse_array() {
    expect('[');
    Json::Array array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return Json(std::move(array));
    }
    while (true) {
      array.push_back(parse_value());
      skip_whitespace();
      const char c = next();
      if (c == ']') return Json(std::move(array));
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      const char c = next();
      if (c == '"') return out;
      if (c == '\\') {
        const char esc = next();
        switch (esc) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'b': out.push_back('\b'); break;
          case 'f': out.push_back('\f'); break;
          case 'n': out.push_back('\n'); break;
          case 'r': out.push_back('\r'); break;
          case 't': out.push_back('\t'); break;
          case 'u': {
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = next();
              code <<= 4;
              if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
              else fail("invalid \\u escape");
            }
            // UTF-8 encode the BMP code point (surrogate pairs unsupported:
            // config files are ASCII in practice).
            if (code < 0x80) {
              out.push_back(static_cast<char>(code));
            } else if (code < 0x800) {
              out.push_back(static_cast<char>(0xC0 | (code >> 6)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            } else {
              out.push_back(static_cast<char>(0xE0 | (code >> 12)));
              out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
              out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
            }
            break;
          }
          default: fail("invalid escape character");
        }
      } else {
        out.push_back(c);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string token(text_.substr(start, pos_ - start));
    try {
      std::size_t consumed = 0;
      const double value = std::stod(token, &consumed);
      if (consumed != token.size()) throw std::invalid_argument(token);
      return Json(value);
    } catch (const std::exception&) {
      fail("invalid number '" + token + "'");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

[[noreturn]] void type_error(const char* expected) {
  throw JsonError(std::string("JSON type error: expected ") + expected);
}

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

Json Json::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("cannot open file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool Json::as_bool() const {
  if (!is_bool()) type_error("bool");
  return bool_;
}

double Json::as_number() const {
  if (!is_number()) type_error("number");
  return number_;
}

std::int64_t Json::as_int() const { return static_cast<std::int64_t>(std::llround(as_number())); }

std::uint64_t Json::as_uint(const std::string& field, std::uint64_t lo, std::uint64_t hi) const {
  // 2^64 is the first double past every uint64, so an integral number below
  // it converts exactly; the range test then runs on the converted value.
  const bool integral = is_number() && number_ >= 0.0 && number_ < 18446744073709551616.0 &&
                        std::floor(number_) == number_;
  const std::uint64_t value = integral ? static_cast<std::uint64_t>(number_) : 0;
  if (!integral || value < lo || value > hi) {
    throw JsonError("JSON field '" + field + "' must be an integer in [" + std::to_string(lo) +
                    ", " + std::to_string(hi) + "], got " + dump());
  }
  return value;
}

const std::string& Json::as_string() const {
  if (!is_string()) type_error("string");
  return string_;
}

const Json::Array& Json::as_array() const {
  if (!is_array()) type_error("array");
  return array_;
}

const Json::Object& Json::as_object() const {
  if (!is_object()) type_error("object");
  return object_;
}

Json::Array& Json::as_array() {
  if (!is_array()) type_error("array");
  return array_;
}

Json::Object& Json::as_object() {
  if (!is_object()) type_error("object");
  return object_;
}

const Json& Json::at(const std::string& key) const {
  const auto& object = as_object();
  const auto it = object.find(key);
  if (it == object.end()) throw JsonError("missing key: " + key);
  return it->second;
}

bool Json::contains(const std::string& key) const noexcept {
  return is_object() && object_.find(key) != object_.end();
}

double Json::number_or(const std::string& key, double fallback) const {
  return contains(key) ? at(key).as_number() : fallback;
}

std::string Json::string_or(const std::string& key, const std::string& fallback) const {
  return contains(key) ? at(key).as_string() : fallback;
}

bool Json::bool_or(const std::string& key, bool fallback) const {
  return contains(key) ? at(key).as_bool() : fallback;
}

const Json& Json::at(std::size_t index) const {
  const auto& array = as_array();
  if (index >= array.size()) throw JsonError("array index out of range");
  return array[index];
}

std::size_t Json::size() const noexcept {
  if (is_array()) return array_.size();
  if (is_object()) return object_.size();
  return 0;
}

namespace {
void dump_string(std::string& out, const std::string& s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void dump_number(std::string& out, double value) {
  if (value == std::floor(value) && std::abs(value) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
    out += buf;
  } else {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += buf;
  }
}
}  // namespace

void Json::dump_to(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent >= 0) {
      out.push_back('\n');
      out.append(static_cast<std::size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull: out += "null"; break;
    case Type::kBool: out += bool_ ? "true" : "false"; break;
    case Type::kNumber: dump_number(out, number_); break;
    case Type::kString: dump_string(out, string_); break;
    case Type::kArray: {
      out.push_back('[');
      bool first = true;
      for (const Json& item : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        item.dump_to(out, indent, depth + 1);
      }
      if (!array_.empty()) newline(depth);
      out.push_back(']');
      break;
    }
    case Type::kObject: {
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        dump_string(out, key);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        value.dump_to(out, indent, depth + 1);
      }
      if (!object_.empty()) newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

void Json::save_file(const std::string& path, int indent) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw JsonError("cannot write file: " + path);
  out << dump(indent) << '\n';
}

}  // namespace dosc::util
