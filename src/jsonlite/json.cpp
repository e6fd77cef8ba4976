#include "jsonlite/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

namespace chpo::json {

namespace {

[[noreturn]] void type_error(const char* expected, Type got) {
  static constexpr const char* names[] = {"null", "bool", "int", "double", "string", "array", "object"};
  throw JsonError(std::string("json: expected ") + expected + ", got " + names[static_cast<int>(got)]);
}

}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) type_error("bool", type());
  return std::get<bool>(v_);
}

std::int64_t Value::as_int() const {
  if (!is_int()) type_error("int", type());
  return std::get<std::int64_t>(v_);
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(std::get<std::int64_t>(v_));
  if (!is_double()) type_error("number", type());
  return std::get<double>(v_);
}

const std::string& Value::as_string() const {
  if (!is_string()) type_error("string", type());
  return std::get<std::string>(v_);
}

const Array& Value::as_array() const {
  if (!is_array()) type_error("array", type());
  return std::get<Array>(v_);
}

Array& Value::as_array() {
  if (!is_array()) type_error("array", type());
  return std::get<Array>(v_);
}

const Object& Value::as_object() const {
  if (!is_object()) type_error("object", type());
  return std::get<Object>(v_);
}

Object& Value::as_object() {
  if (!is_object()) type_error("object", type());
  return std::get<Object>(v_);
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (!v) throw JsonError("json: missing key '" + std::string(key) + "'");
  return *v;
}

const Value* Value::find(std::string_view key) const {
  if (!is_object()) return nullptr;
  for (const auto& [k, v] : std::get<Object>(v_))
    if (k == key) return &v;
  return nullptr;
}

void Value::set(std::string key, Value v) {
  if (is_null()) v_ = Object{};
  Object& object = as_object();
  for (auto& [k, existing] : object) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  object.emplace_back(std::move(key), std::move(v));
}

const Value& Value::at(std::size_t index) const {
  const Array& array = as_array();
  if (index >= array.size()) throw JsonError("json: index out of range");
  return array[index];
}

std::size_t Value::size() const {
  switch (type()) {
    case Type::Array: return std::get<Array>(v_).size();
    case Type::Object: return std::get<Object>(v_).size();
    case Type::String: return std::get<std::string>(v_).size();
    default: return 0;
  }
}

bool Value::operator==(const Value& other) const {
  // Allow 3 == 3.0 comparisons across Int/Double.
  if (type() != other.type() && is_number() && other.is_number())
    return as_double() == other.as_double();
  return v_ == other.v_;
}

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    throw JsonError("json parse error at line " + std::to_string(line) + ", column " +
                    std::to_string(col) + ": " + message);
  }

  void skip_whitespace() {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
        ++pos_;
      else
        break;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  char take() {
    const char c = peek();
    ++pos_;
    return c;
  }

  void expect(char c) {
    if (take() != c) {
      --pos_;
      fail(std::string("expected '") + c + "'");
    }
  }

  bool consume_literal(std::string_view lit) {
    if (text_.substr(pos_, lit.size()) == lit) {
      pos_ += lit.size();
      return true;
    }
    return false;
  }

  Value parse_value() {
    skip_whitespace();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Value(parse_string());
      case 't':
        if (consume_literal("true")) return Value(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return Value(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return Value(nullptr);
        fail("invalid literal");
      default: return parse_number();
    }
  }

  // Objects and arrays are shrunk to their exact size when they close: a
  // `list` reply holds thousands of small objects, and push_back growth
  // would leave each with up to twice the slots it needs.
  Value parse_object() {
    expect('{');
    Object obj;
    skip_whitespace();
    if (peek() == '}') {
      take();
      return Value(std::move(obj));
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected string key");
      std::string key = parse_string();
      skip_whitespace();
      expect(':');
      obj.emplace_back(std::move(key), parse_value());
      skip_whitespace();
      const char next = take();
      if (next == '}') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or '}' in object");
      }
    }
    obj.shrink_to_fit();
    return Value(std::move(obj));
  }

  Value parse_array() {
    expect('[');
    Array arr;
    skip_whitespace();
    if (peek() == ']') {
      take();
      return Value(std::move(arr));
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_whitespace();
      const char next = take();
      if (next == ']') break;
      if (next != ',') {
        --pos_;
        fail("expected ',' or ']' in array");
      }
    }
    arr.shrink_to_fit();
    return Value(std::move(arr));
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) fail("unterminated escape");
        const char esc = text_[pos_++];
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
            if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
            unsigned code = 0;
            for (int i = 0; i < 4; ++i) {
              const char h = text_[pos_++];
              code <<= 4;
              if (h >= '0' && h <= '9')
                code += static_cast<unsigned>(h - '0');
              else if (h >= 'a' && h <= 'f')
                code += static_cast<unsigned>(h - 'a' + 10);
              else if (h >= 'A' && h <= 'F')
                code += static_cast<unsigned>(h - 'A' + 10);
              else
                fail("invalid hex digit in \\u escape");
            }
            // UTF-8 encode BMP code point (surrogate pairs unsupported).
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
      } else if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string");
      } else {
        out.push_back(c);
      }
    }
    return out;
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool has_digits = false;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
      has_digits = true;
    }
    if (!has_digits) fail("invalid number");
    bool is_integer = true;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_integer = false;
      ++pos_;
      bool frac = false;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        frac = true;
      }
      if (!frac) fail("digits required after decimal point");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_integer = false;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) ++pos_;
      bool exp = false;
      while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        exp = true;
      }
      if (!exp) fail("digits required in exponent");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_integer) {
      std::int64_t iv = 0;
      const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), iv);
      if (ec == std::errc() && ptr == token.data() + token.size()) return Value(iv);
      // Fall through to double on overflow.
    }
    double dv = 0.0;
    const auto [ptr, ec] = std::from_chars(token.data(), token.data() + token.size(), dv);
    if (ec != std::errc() || ptr != token.data() + token.size()) fail("invalid number");
    return Value(dv);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

void escape_string(const std::string& s, std::string& out) {
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
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void append_number(double d, std::string& out) {
  if (std::isnan(d) || std::isinf(d)) {
    out += "null";  // JSON has no NaN/Inf; emit null like common serializers.
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  out += buf;
}

void serialize_impl(const Value& v, std::string& out, int indent, int depth) {
  const auto newline_indent = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent * d), ' ');
  };
  switch (v.type()) {
    case Type::Null: out += "null"; break;
    case Type::Bool: out += v.as_bool() ? "true" : "false"; break;
    case Type::Int: out += std::to_string(v.as_int()); break;
    case Type::Double: append_number(v.as_double(), out); break;
    case Type::String: escape_string(v.as_string(), out); break;
    case Type::Array: {
      const Array& arr = v.as_array();
      if (arr.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      for (std::size_t i = 0; i < arr.size(); ++i) {
        if (i) out.push_back(',');
        newline_indent(depth + 1);
        serialize_impl(arr[i], out, indent, depth + 1);
      }
      newline_indent(depth);
      out.push_back(']');
      break;
    }
    case Type::Object: {
      const Object& obj = v.as_object();
      if (obj.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [k, member] : obj) {
        if (!first) out.push_back(',');
        first = false;
        newline_indent(depth + 1);
        escape_string(k, out);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        serialize_impl(member, out, indent, depth + 1);
      }
      newline_indent(depth);
      out.push_back('}');
      break;
    }
  }
}

}  // namespace

Value parse(std::string_view text) { return Parser(text).parse_document(); }

Value parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw JsonError("json: cannot open file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  try {
    return parse(ss.str());
  } catch (const JsonError& e) {
    throw JsonError(path + ": " + e.what());
  }
}

std::string serialize(const Value& value) {
  std::string out;
  serialize_impl(value, out, /*indent=*/-1, 0);
  return out;
}

std::string serialize_pretty(const Value& value) {
  std::string out;
  serialize_impl(value, out, /*indent=*/2, 0);
  return out;
}

}  // namespace chpo::json
