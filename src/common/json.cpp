#include "common/json.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <sstream>
#include <utility>

#include "common/error.hpp"

namespace adc::common::json {

namespace {

/// Maximum array/object nesting the parser accepts; beyond this a document
/// is hostile, not data (and unbounded recursion would overflow the stack).
constexpr int kMaxDepth = 200;

[[noreturn]] void type_error(const char* want, JsonValue::Type got) {
  static constexpr const char* kNames[] = {"null",   "bool",  "int",   "uint",
                                           "double", "string", "array", "object"};
  throw ConfigError(std::string("json: expected ") + want + ", value holds " +
                    kNames[static_cast<int>(got)]);
}

bool bits_equal(double a, double b) {
  std::uint64_t ia = 0;
  std::uint64_t ib = 0;
  std::memcpy(&ia, &a, sizeof ia);
  std::memcpy(&ib, &b, sizeof ib);
  return ia == ib;
}

/// Append `s` as a JSON string literal. Each run of characters that needs
/// no escape is appended in one call.
void append_quoted(std::string& out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out += '"';
  std::size_t run = 0;  // first character not yet appended
  for (std::size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out += "\\u00";
        out += kHex[c >> 4];
        out += kHex[c & 0xF];
    }
  }
  out.append(s.data() + run, s.size() - run);
  out += '"';
}

template <typename Int>
void append_integer(std::string& out, Int value) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, value).ptr);
}

// ---------------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------------

struct WriteOptions {
  bool pretty = false;
  bool sorted = false;  ///< canonical form: object keys bytewise-sorted
};

constexpr WriteOptions kPretty{/*pretty=*/true, /*sorted=*/false};

void newline_indent(std::string& out, const WriteOptions& opt, int depth) {
  if (!opt.pretty) return;
  out += '\n';
  out.append(static_cast<std::size_t>(depth) * 2, ' ');
}

void write_value(std::string& out, const JsonValue& v, const WriteOptions& opt, int depth);

/// One array item at `depth`: its separator, its line, its value.
void write_item(std::string& out, const JsonValue& item, const WriteOptions& opt, int depth,
                bool first) {
  if (!first) out += ',';
  newline_indent(out, opt, depth);
  write_value(out, item, opt, depth);
}

/// One object member's separator, line and key, up to its value.
void write_key(std::string& out, const std::string& key, const WriteOptions& opt, int depth,
               bool first) {
  if (!first) out += ',';
  newline_indent(out, opt, depth);
  append_quoted(out, key);
  out += opt.pretty ? ": " : ":";
}

void write_value(std::string& out, const JsonValue& v, const WriteOptions& opt, int depth) {
  switch (v.type()) {
    case JsonValue::Type::kNull:
      out += "null";
      return;
    case JsonValue::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      return;
    case JsonValue::Type::kInt:
    case JsonValue::Type::kUint:
    case JsonValue::Type::kDouble:
      append_number(out, v);
      return;
    case JsonValue::Type::kString:
      append_quoted(out, v.as_string());
      return;
    case JsonValue::Type::kArray: {
      const auto& items = v.items();
      if (items.empty()) {
        out += "[]";
        return;
      }
      out += '[';
      for (std::size_t i = 0; i < items.size(); ++i) {
        write_item(out, items[i], opt, depth + 1, i == 0);
      }
      newline_indent(out, opt, depth);
      out += ']';
      return;
    }
    case JsonValue::Type::kObject: {
      const auto& members = v.members();
      if (members.empty()) {
        out += "{}";
        return;
      }
      out += '{';
      if (opt.sorted) {
        std::vector<const JsonMember*> order;
        order.reserve(members.size());
        for (const auto& m : members) order.push_back(&m);
        std::sort(order.begin(), order.end(),
                  [](const JsonMember* a, const JsonMember* b) { return a->key < b->key; });
        for (std::size_t i = 0; i < order.size(); ++i) {
          write_key(out, order[i]->key, opt, depth + 1, i == 0);
          write_value(out, order[i]->value, opt, depth + 1);
        }
      } else {
        for (std::size_t i = 0; i < members.size(); ++i) {
          write_key(out, members[i].key, opt, depth + 1, i == 0);
          write_value(out, members[i].value, opt, depth + 1);
        }
      }
      newline_indent(out, opt, depth);
      out += '}';
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  JsonValue run() {
    skip_whitespace();
    JsonValue v = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after the document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& message) const {
    std::size_t line = 1;
    std::size_t column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    std::ostringstream os;
    os << "json parse error at line " << line << ", column " << column << ": " << message;
    throw ConfigError(os.str());
  }

  [[nodiscard]] bool at_end() const { return pos_ >= text_.size(); }
  [[nodiscard]] char peek() const { return at_end() ? '\0' : text_[pos_]; }
  char take() {
    if (at_end()) fail("unexpected end of input");
    return text_[pos_++];
  }

  void skip_whitespace() {
    while (!at_end()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  void expect_literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) != word) {
      fail("invalid literal (expected '" + std::string(word) + "')");
    }
    pos_ += word.size();
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting deeper than 200 levels");
    skip_whitespace();
    if (at_end()) fail("unexpected end of input");
    switch (peek()) {
      case 'n':
        expect_literal("null");
        return JsonValue(nullptr);
      case 't':
        expect_literal("true");
        return JsonValue(true);
      case 'f':
        expect_literal("false");
        return JsonValue(false);
      case '"':
        return JsonValue(parse_string());
      case '[':
        return parse_array(depth);
      case '{':
        return parse_object(depth);
      default:
        return parse_number();
    }
  }

  std::string parse_string() {
    if (take() != '"') fail("expected '\"'");
    std::string out;
    for (;;) {
      if (at_end()) fail("unterminated string");
      const char c = take();
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control character in string");
      if (c != '\\') {
        out += c;
        continue;
      }
      const char esc = take();
      switch (esc) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
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
        case 'u':
          append_codepoint(out);
          break;
        default:
          fail(std::string("invalid escape '\\") + esc + "'");
      }
    }
  }

  std::uint32_t parse_hex4() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = take();
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<std::uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<std::uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<std::uint32_t>(c - 'A' + 10);
      } else {
        fail("invalid \\u escape (need 4 hex digits)");
      }
    }
    return value;
  }

  /// \uXXXX (with a surrogate pair for the astral planes), encoded as UTF-8.
  void append_codepoint(std::string& out) {
    std::uint32_t cp = parse_hex4();
    if (cp >= 0xD800 && cp <= 0xDBFF) {
      if (take() != '\\' || take() != 'u') fail("high surrogate not followed by \\u escape");
      const std::uint32_t low = parse_hex4();
      if (low < 0xDC00 || low > 0xDFFF) fail("invalid low surrogate");
      cp = 0x10000 + ((cp - 0xD800) << 10) + (low - 0xDC00);
    } else if (cp >= 0xDC00 && cp <= 0xDFFF) {
      fail("unpaired low surrogate");
    }
    if (cp < 0x80) {
      out += static_cast<char>(cp);
    } else if (cp < 0x800) {
      out += static_cast<char>(0xC0 | (cp >> 6));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else if (cp < 0x10000) {
      out += static_cast<char>(0xE0 | (cp >> 12));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    } else {
      out += static_cast<char>(0xF0 | (cp >> 18));
      out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
      out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
      out += static_cast<char>(0x80 | (cp & 0x3F));
    }
  }

  JsonValue parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (at_end()) fail("truncated number");
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    } else {
      fail("invalid number");
    }
    bool integral = true;
    if (!at_end() && peek() == '.') {
      integral = false;
      ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') fail("digit required after decimal point");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    if (!at_end() && (peek() == 'e' || peek() == 'E')) {
      integral = false;
      ++pos_;
      if (!at_end() && (peek() == '+' || peek() == '-')) ++pos_;
      if (at_end() || peek() < '0' || peek() > '9') fail("digit required in exponent");
      while (!at_end() && peek() >= '0' && peek() <= '9') ++pos_;
    }
    const std::string_view token = text_.substr(start, pos_ - start);

    if (integral) {
      std::int64_t i = 0;
      auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), i);
      if (ec == std::errc() && p == token.data() + token.size()) return JsonValue(i);
      if (token.front() != '-') {
        std::uint64_t u = 0;
        auto [pu, ecu] = std::from_chars(token.data(), token.data() + token.size(), u);
        if (ecu == std::errc() && pu == token.data() + token.size()) return JsonValue(u);
      }
      // Falls through: an integer too large for 64 bits becomes a double.
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(token.data(), token.data() + token.size(), d);
    if (ec == std::errc::result_out_of_range) {
      // Overflow is an error, but an underflow reads as strtod reads it (a
      // signed zero), where from_chars reports it and sets nothing.
      const std::string buf(token);
      d = std::strtod(buf.c_str(), nullptr);
      if (!std::isfinite(d)) fail("number out of double range");
    } else if (ec != std::errc() || p != token.data() + token.size()) {
      fail("invalid number");
    }
    return JsonValue(d);
  }

  JsonValue parse_array(int depth) {
    take();  // '['
    JsonValue out = JsonValue::array();
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return out;
    }
    for (;;) {
      out.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == ']') return out;
      if (c != ',') fail("expected ',' or ']' in array");
      skip_whitespace();
      if (peek() == ']') fail("trailing comma in array");
    }
  }

  JsonValue parse_object(int depth) {
    take();  // '{'
    JsonValue out = JsonValue::object();
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return out;
    }
    for (;;) {
      skip_whitespace();
      if (peek() != '"') fail("expected '\"' to start an object key");
      std::string key = parse_string();
      if (out.contains(key)) fail("duplicate object key \"" + key + "\"");
      skip_whitespace();
      if (take() != ':') fail("expected ':' after object key");
      out.set(key, parse_value(depth + 1));
      skip_whitespace();
      const char c = take();
      if (c == '}') return out;
      if (c != ',') fail("expected ',' or '}' in object");
      skip_whitespace();
      if (peek() == '}') fail("trailing comma in object");
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// JsonValue
// ---------------------------------------------------------------------------

JsonValue JsonValue::array() {
  JsonValue v;
  v.type_ = Type::kArray;
  return v;
}

JsonValue JsonValue::object() {
  JsonValue v;
  v.type_ = Type::kObject;
  return v;
}

bool JsonValue::as_bool() const {
  if (type_ != Type::kBool) type_error("bool", type_);
  return bool_;
}

double JsonValue::as_double() const {
  switch (type_) {
    case Type::kInt:
      return static_cast<double>(int_);
    case Type::kUint:
      return static_cast<double>(uint_);
    case Type::kDouble:
      return double_;
    default:
      type_error("number", type_);
  }
}

std::int64_t JsonValue::as_int64() const {
  if (type_ == Type::kInt) return int_;
  if (type_ == Type::kUint) {
    if (uint_ > static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max())) {
      throw ConfigError("json: unsigned value does not fit in int64");
    }
    return static_cast<std::int64_t>(uint_);
  }
  type_error("integer", type_);
}

std::uint64_t JsonValue::as_uint64() const {
  if (type_ == Type::kUint) return uint_;
  if (type_ == Type::kInt) {
    if (int_ < 0) throw ConfigError("json: negative value does not fit in uint64");
    return static_cast<std::uint64_t>(int_);
  }
  type_error("integer", type_);
}

const std::string& JsonValue::as_string() const {
  if (type_ != Type::kString) type_error("string", type_);
  return string_;
}

const JsonValue::Array& JsonValue::items() const {
  if (type_ != Type::kArray) type_error("array", type_);
  return array_;
}

const JsonValue::Object& JsonValue::members() const {
  if (type_ != Type::kObject) type_error("object", type_);
  return object_;
}

void JsonValue::push_back(JsonValue value) {
  if (type_ != Type::kArray) type_error("array", type_);
  array_.push_back(std::move(value));
}

const JsonValue* JsonValue::find(std::string_view key) const {
  if (type_ != Type::kObject) type_error("object", type_);
  for (const auto& m : object_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

JsonValue* JsonValue::find(std::string_view key) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& m : object_) {
    if (m.key == key) return &m.value;
  }
  return nullptr;
}

void JsonValue::set(std::string_view key, JsonValue value) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto& m : object_) {
    if (m.key == key) {
      m.value = std::move(value);
      return;
    }
  }
  object_.push_back(JsonMember{std::string(key), std::move(value)});
}

bool JsonValue::erase(std::string_view key) {
  if (type_ != Type::kObject) type_error("object", type_);
  for (auto it = object_.begin(); it != object_.end(); ++it) {
    if (it->key == key) {
      object_.erase(it);
      return true;
    }
  }
  return false;
}

bool JsonValue::equals(const JsonValue& other) const {
  if (type_ != other.type_) return false;
  switch (type_) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return bool_ == other.bool_;
    case Type::kInt:
      return int_ == other.int_;
    case Type::kUint:
      return uint_ == other.uint_;
    case Type::kDouble:
      return bits_equal(double_, other.double_);
    case Type::kString:
      return string_ == other.string_;
    case Type::kArray: {
      if (array_.size() != other.array_.size()) return false;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        if (!array_[i].equals(other.array_[i])) return false;
      }
      return true;
    }
    case Type::kObject: {
      if (object_.size() != other.object_.size()) return false;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        if (object_[i].key != other.object_[i].key) return false;
        if (!object_[i].value.equals(other.object_[i].value)) return false;
      }
      return true;
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

JsonValue parse(std::string_view text) { return Parser(text).run(); }

std::string dump(const JsonValue& value) {
  std::string out;
  write_value(out, value, kPretty, 0);
  out += '\n';
  return out;
}

ArrayFrame array_frame(const JsonValue& doc, std::string_view key) {
  const JsonValue* array = doc.find(key);
  if (array == nullptr || !array->is_array()) {
    throw ConfigError("json: no array member \"" + std::string(key) + "\" to frame");
  }
  // dump's object walk at depth 0, with the output switched from head to
  // tail where the array's items would go.
  ArrayFrame frame;
  std::string* out = &frame.head;
  *out += '{';
  const auto& members = doc.members();
  for (std::size_t i = 0; i < members.size(); ++i) {
    write_key(*out, members[i].key, kPretty, 1, i == 0);
    if (&members[i].value != array) {
      write_value(*out, members[i].value, kPretty, 1);
      continue;
    }
    *out += '[';
    out = &frame.tail;
    if (!array->items().empty()) newline_indent(*out, kPretty, 1);
    *out += ']';
  }
  newline_indent(*out, kPretty, 0);
  *out += "}\n";
  return frame;
}

void append_item(std::string& out, const JsonValue& item, int depth, bool first) {
  write_item(out, item, kPretty, depth, first);
}

std::string dump_compact(const JsonValue& value) {
  std::string out;
  write_value(out, value, {/*pretty=*/false, /*sorted=*/false}, 0);
  return out;
}

std::string canonical(const JsonValue& value) {
  std::string out;
  write_value(out, value, {/*pretty=*/false, /*sorted=*/true}, 0);
  return out;
}

std::string format_double(double value) {
  std::string out;
  append_double(out, value);
  return out;
}

void append_double(std::string& out, double value) {
  if (!std::isfinite(value)) {
    throw ConfigError("json: cannot serialize a non-finite number");
  }
  // printf's %.*g at the smallest precision in 15..17 that round-trips
  // exactly; to_chars with a precision is specified to print what printf
  // does. A precision below the shortest round-trip digit count cannot
  // round-trip, so the search starts there.
  char buf[32];
  char* const first = buf;
  char* const last = buf + sizeof buf;
  const char* const shortest =
      std::to_chars(first, last, value, std::chars_format::scientific).ptr;
  int digits = 0;
  for (const char* p = first; p != shortest && *p != 'e'; ++p) {
    if (*p >= '0' && *p <= '9') ++digits;
  }
  char* end = first;
  for (int precision = std::max(15, digits); precision <= 17; ++precision) {
    end = std::to_chars(first, last, value, std::chars_format::general, precision).ptr;
    double back = 0.0;
    const auto parsed = std::from_chars(first, end, back);
    if (parsed.ec == std::errc() && bits_equal(back, value)) break;
  }
  const std::string_view text(first, static_cast<std::size_t>(end - first));
  out += text;
  // Keep the token recognizably floating-point so it re-parses into double
  // storage (integers travel through the int paths instead).
  if (text.find_first_of(".eE") == std::string_view::npos) out += ".0";
}

void append_number(std::string& out, const JsonValue& value) {
  switch (value.type()) {
    case JsonValue::Type::kInt:
      append_integer(out, value.as_int64());
      return;
    case JsonValue::Type::kUint:
      append_integer(out, value.as_uint64());
      return;
    default:
      append_double(out, value.as_double());
      return;
  }
}

}  // namespace adc::common::json
