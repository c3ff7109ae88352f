// Minimal JSON value type, parser, and serializer.
//
// Used for scenario configuration files, traffic trace files, and exported
// experiment results. Supports the full JSON grammar except exotic number
// forms; numbers are stored as double (sufficient for our configs).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace dosc::util {

class Json;

/// Thrown on malformed input or type-mismatched access.
class JsonError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Immutable-ish JSON document node. Value-semantic; arrays/objects own
/// their children.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  using Array = std::vector<Json>;
  using Object = std::map<std::string, Json>;

  Json() : type_(Type::kNull) {}
  Json(std::nullptr_t) : type_(Type::kNull) {}
  Json(bool b) : type_(Type::kBool), bool_(b) {}
  Json(double n) : type_(Type::kNumber), number_(n) {}
  Json(int n) : type_(Type::kNumber), number_(n) {}
  Json(std::size_t n) : type_(Type::kNumber), number_(static_cast<double>(n)) {}
  Json(const char* s) : type_(Type::kString), string_(s) {}
  Json(std::string s) : type_(Type::kString), string_(std::move(s)) {}
  Json(Array a) : type_(Type::kArray), array_(std::move(a)) {}
  Json(Object o) : type_(Type::kObject), object_(std::move(o)) {}

  /// Parse a complete JSON document; trailing non-whitespace is an error.
  static Json parse(std::string_view text);
  /// Load and parse a file. Throws JsonError on IO failure.
  static Json load_file(const std::string& path);

  Type type() const noexcept { return type_; }
  bool is_null() const noexcept { return type_ == Type::kNull; }
  bool is_bool() const noexcept { return type_ == Type::kBool; }
  bool is_number() const noexcept { return type_ == Type::kNumber; }
  bool is_string() const noexcept { return type_ == Type::kString; }
  bool is_array() const noexcept { return type_ == Type::kArray; }
  bool is_object() const noexcept { return type_ == Type::kObject; }

  bool as_bool() const;
  double as_number() const;
  std::int64_t as_int() const;
  /// Checked integer read for a field that counts or names something (an
  /// id, an index, a seed, a layer width): the value must be an integral
  /// number in [lo, hi]. Anything else throws JsonError naming `field` and
  /// the value, where a plain cast would round, wrap or be undefined.
  std::uint64_t as_uint(const std::string& field, std::uint64_t lo, std::uint64_t hi) const;
  const std::string& as_string() const;
  const Array& as_array() const;
  const Object& as_object() const;
  Array& as_array();
  Object& as_object();

  /// Object access; throws if missing or not an object.
  const Json& at(const std::string& key) const;
  /// Object access with default for missing keys.
  double number_or(const std::string& key, double fallback) const;
  std::string string_or(const std::string& key, const std::string& fallback) const;
  bool bool_or(const std::string& key, bool fallback) const;
  bool contains(const std::string& key) const noexcept;

  /// Array element access; throws on out-of-range.
  const Json& at(std::size_t index) const;
  std::size_t size() const noexcept;

  /// Serialize. indent < 0 emits compact single-line output.
  std::string dump(int indent = -1) const;
  void save_file(const std::string& path, int indent = 2) const;

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  Type type_;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  Array array_;
  Object object_;
};

}  // namespace dosc::util
