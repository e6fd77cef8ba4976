// Minimal JSON value model, parser and serializer.
//
// The paper's HPO application is driven by a JSON search-space file
// (Listing 1). This module provides the subset we need — full RFC 8259
// syntax minus \u surrogate pairs beyond the BMP — with precise error
// positions, preserved object key order (so grid enumeration is stable),
// and an integer/double distinction (epochs and batch sizes are ints).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace chpo::json {

class Value;

using Array = std::vector<Value>;
/// Object preserves insertion order; lookup is linear (objects here are tiny).
using Object = std::vector<std::pair<std::string, Value>>;

enum class Type { Null, Bool, Int, Double, String, Array, Object };

/// Thrown on parse errors and type mismatches.
class JsonError : public std::runtime_error {
 public:
  explicit JsonError(const std::string& what) : std::runtime_error(what) {}
};

/// A tagged union: one node holds exactly one alternative, so a tree costs
/// what its content needs (see the static_assert below). The alternative
/// index is the Type.
class Value {
 public:
  Value() = default;
  Value(std::nullptr_t) {}
  Value(bool b) : v_(b) {}
  Value(int i) : v_(std::int64_t{i}) {}
  Value(std::int64_t i) : v_(i) {}
  Value(double d) : v_(d) {}
  Value(const char* s) : v_(std::string(s)) {}
  Value(std::string s) : v_(std::move(s)) {}
  Value(Array a) : v_(std::move(a)) {}
  Value(Object o) : v_(std::move(o)) {}

  Type type() const { return static_cast<Type>(v_.index()); }
  bool is_null() const { return type() == Type::Null; }
  bool is_bool() const { return type() == Type::Bool; }
  bool is_int() const { return type() == Type::Int; }
  bool is_double() const { return type() == Type::Double; }
  bool is_number() const { return is_int() || is_double(); }
  bool is_string() const { return type() == Type::String; }
  bool is_array() const { return type() == Type::Array; }
  bool is_object() const { return type() == Type::Object; }

  /// Checked accessors; throw JsonError on type mismatch.
  bool as_bool() const;
  std::int64_t as_int() const;
  /// Numeric coercion: Int or Double both convert.
  double as_double() const;
  const std::string& as_string() const;
  const Array& as_array() const;
  Array& as_array();
  const Object& as_object() const;
  Object& as_object();

  /// Object member access; throws if not an object or key absent.
  const Value& at(std::string_view key) const;
  /// nullptr when absent (or not an object).
  const Value* find(std::string_view key) const;
  bool contains(std::string_view key) const { return find(key) != nullptr; }

  /// Insert or overwrite an object member (creates an Object from Null).
  void set(std::string key, Value v);

  /// Array element access; throws if not an array or out of range.
  const Value& at(std::size_t index) const;

  std::size_t size() const;

  bool operator==(const Value& other) const;

 private:
  // Alternatives in Type order.
  std::variant<std::monostate, bool, std::int64_t, double, std::string, Array, Object> v_;
};

// Every list row, journal record and reply is a tree of these nodes.
static_assert(sizeof(Value) <= 48, "json::Value must stay a compact tagged union");

/// Parse a complete JSON document; trailing non-whitespace is an error.
Value parse(std::string_view text);

/// Parse the contents of a file; JsonError carries the path on failure.
Value parse_file(const std::string& path);

/// Compact serialization.
std::string serialize(const Value& value);

/// Pretty serialization with two-space indent.
std::string serialize_pretty(const Value& value);

}  // namespace chpo::json
