/// \file json.hpp
/// Strict minimal JSON: a value tree, an RFC 8259 parser and deterministic
/// writers. No third-party dependencies.
///
/// This is the serialization substrate of the scenario engine and the run
/// manifests: scenario specs are *parsed* from disk, results and manifests
/// are *emitted*, and the content-addressed cache *hashes* the canonical
/// form. Three properties matter more than generality:
///
///   * **Strictness** — no comments, no trailing commas, no duplicate object
///     keys, single top-level value. A malformed spec fails loudly with a
///     `line:column` diagnostic instead of silently mis-hashing.
///   * **Exact number round-trip** — doubles are written with the shortest
///     decimal form that parses back bit-identically (15..17 significant
///     digits), and integers keep their integer spelling. `parse(dump(v))`
///     reproduces `v` exactly, which is what makes cached results
///     bit-identical to freshly computed ones.
///   * **Canonical form** — `canonical()` serializes with object keys sorted
///     and no whitespace, so semantically equal specs hash equally no matter
///     how their authors ordered the keys.
///
/// Objects preserve insertion order (manifests read naturally); only the
/// canonical writer sorts.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace adc::common::json {

class JsonValue;

/// One key/value pair of an object. A struct (not std::pair) so the
/// containing vector can name an incomplete element type.
struct JsonMember;

/// A JSON document node: null, bool, number (integer or double), string,
/// array, or object. Numbers parsed without a fraction or exponent keep
/// integer storage so counters survive a round trip textually unchanged.
class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  using Object = std::vector<JsonMember>;

  enum class Type { kNull, kBool, kInt, kUint, kDouble, kString, kArray, kObject };

  // Implicit construction from the scalar types is the point of the value
  // tree (document literals read naturally), hence the NOLINTs.
  JsonValue() noexcept : type_(Type::kNull), int_(0) {}
  JsonValue(std::nullptr_t) noexcept : type_(Type::kNull), int_(0) {}          // NOLINT
  JsonValue(bool value) noexcept : type_(Type::kBool), bool_(value) {}         // NOLINT
  JsonValue(std::int64_t value) noexcept : type_(Type::kInt), int_(value) {}  // NOLINT
  // Unsigned values that fit int64 normalize to int storage, so a value's
  // storage type depends only on the number itself, never on which overload
  // built it — parse(dump(v)) then reproduces v exactly.
  JsonValue(std::uint64_t value) noexcept : type_(Type::kUint), uint_(value) {  // NOLINT
    if ((value >> 63) == 0) {
      type_ = Type::kInt;
      int_ = static_cast<std::int64_t>(value);
    }
  }
  JsonValue(int value) noexcept : JsonValue(static_cast<std::int64_t>(value)) {}  // NOLINT
  JsonValue(double value) noexcept : type_(Type::kDouble), double_(value) {}   // NOLINT
  JsonValue(std::string value) : type_(Type::kString), int_(0), string_(std::move(value)) {}  // NOLINT
  JsonValue(const char* value) : type_(Type::kString), int_(0), string_(value) {}  // NOLINT

  /// Empty aggregates (distinct from null).
  [[nodiscard]] static JsonValue array();
  [[nodiscard]] static JsonValue object();

  [[nodiscard]] Type type() const { return type_; }
  [[nodiscard]] bool is_null() const { return type_ == Type::kNull; }
  [[nodiscard]] bool is_bool() const { return type_ == Type::kBool; }
  [[nodiscard]] bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kUint || type_ == Type::kDouble;
  }
  [[nodiscard]] bool is_integer() const { return type_ == Type::kInt || type_ == Type::kUint; }
  [[nodiscard]] bool is_string() const { return type_ == Type::kString; }
  [[nodiscard]] bool is_array() const { return type_ == Type::kArray; }
  [[nodiscard]] bool is_object() const { return type_ == Type::kObject; }

  /// Checked accessors; each throws ConfigError naming the expected type on
  /// mismatch. `as_double()` accepts any number; `as_int64()`/`as_uint64()`
  /// accept integer storage within range.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] std::int64_t as_int64() const;
  [[nodiscard]] std::uint64_t as_uint64() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const Array& items() const;
  [[nodiscard]] const Object& members() const;

  /// Array append (value must be an array).
  void push_back(JsonValue value);

  /// Object member lookup; nullptr when absent (value must be an object).
  [[nodiscard]] const JsonValue* find(std::string_view key) const;
  /// The same lookup on a mutable object, so a member can be moved out.
  [[nodiscard]] JsonValue* find(std::string_view key);
  [[nodiscard]] bool contains(std::string_view key) const { return find(key) != nullptr; }
  /// Insert or replace, preserving first-insertion order (value must be an
  /// object).
  void set(std::string_view key, JsonValue value);
  /// Remove a member if present; returns whether it was (value must be an
  /// object).
  bool erase(std::string_view key);

  /// Deep structural equality. Doubles compare bitwise (NaN never occurs in
  /// documents: the writer rejects non-finite values), so round-trip tests
  /// can assert exact reproduction including signed zero.
  [[nodiscard]] bool equals(const JsonValue& other) const;

 private:
  Type type_;
  union {
    bool bool_;
    std::int64_t int_;
    std::uint64_t uint_;
    double double_;
  };
  std::string string_;
  Array array_;
  Object object_;
};

struct JsonMember {
  std::string key;
  JsonValue value;
};

inline bool operator==(const JsonValue& a, const JsonValue& b) { return a.equals(b); }
inline bool operator!=(const JsonValue& a, const JsonValue& b) { return !a.equals(b); }

/// Parse one strict JSON document. Throws ConfigError with a
/// "json parse error at line L, column C: ..." message on any violation
/// (trailing garbage, duplicate keys, bad escapes, nesting deeper than 200).
[[nodiscard]] JsonValue parse(std::string_view text);

/// Pretty-print with 2-space indentation and a trailing newline — the
/// on-disk format of manifests, reports and cache entries.
[[nodiscard]] std::string dump(const JsonValue& value);

/// Single-line form with no whitespace.
[[nodiscard]] std::string dump_compact(const JsonValue& value);

/// Canonical form: compact with object keys sorted bytewise at every level.
/// Two documents that differ only in key order canonicalize identically —
/// the input of the scenario hasher.
[[nodiscard]] std::string canonical(const JsonValue& value);

/// dump's text of an object document, split around the items of one of its
/// top-level array members, for a writer that renders the items apart (in
/// chunks, on several threads) and emits the pieces in order:
///
///     dump(doc) == head + item(0) + item(1) + ... + item(n - 1) + tail
///
/// where item(i) is what `append_item(out, items[i], kMemberItemDepth,
/// i == 0)` appends. An empty array's frame joins to its `[]`.
struct ArrayFrame {
  std::string head;  ///< up to and including the array's '['
  std::string tail;  ///< from the array's closing line to the final newline
};

/// The depth dump gives the items of a top-level member's array.
inline constexpr int kMemberItemDepth = 2;

/// The frame of `doc`'s top-level array member `key`. Throws ConfigError
/// when `doc` is not an object or has no array member `key`.
[[nodiscard]] ArrayFrame array_frame(const JsonValue& doc, std::string_view key);

/// Append one array item as dump spells it at `depth`: a ',' unless it is
/// the array's first, then a newline, `depth` levels of indent and the
/// pretty value.
void append_item(std::string& out, const JsonValue& item, int depth, bool first);

/// Render one double exactly as the writers do: printf's `%.*g` at the
/// smallest precision in 15..17 that parses back bit-identically, with ".0"
/// appended when that spelling would read as an integer.
/// Throws ConfigError for non-finite values (JSON cannot represent them).
[[nodiscard]] std::string format_double(double value);

/// Append format_double(value) to `out` without a temporary string.
void append_double(std::string& out, double value);

/// Append a JSON number (int, uint or double) to `out` as the writers spell
/// it. Throws ConfigError if `value` is not a number.
void append_number(std::string& out, const JsonValue& value);

}  // namespace adc::common::json
