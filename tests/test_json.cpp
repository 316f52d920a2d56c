/// Tests for the strict minimal JSON layer (src/common/json.*): parsing,
/// strictness diagnostics, exact number round-trip, and the canonical form
/// the scenario hasher consumes.
#include "common/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace json = adc::common::json;
using adc::common::ConfigError;
using json::JsonValue;

namespace {

std::uint64_t bits_of(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double from_bits(std::uint64_t b) {
  double v = 0.0;
  std::memcpy(&v, &b, sizeof v);
  return v;
}

/// The formatter's specification as it was first written, kept as the
/// oracle: printf's %.*g at 15, 16, then 17 significant digits, the first
/// spelling strtod reads back bit-identically, ".0" appended when the
/// spelling would read as an integer.
std::string printf_oracle(double value) {
  char buf[40];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof buf, "%.*g", precision, value);
    if (bits_of(std::strtod(buf, nullptr)) == bits_of(value)) break;
  }
  std::string out = buf;
  if (out.find_first_of(".eE") == std::string::npos) out += ".0";
  return out;
}

}  // namespace

TEST(JsonParse, Scalars) {
  EXPECT_TRUE(json::parse("null").is_null());
  EXPECT_TRUE(json::parse("true").as_bool());
  EXPECT_FALSE(json::parse("false").as_bool());
  EXPECT_EQ(json::parse("42").as_int64(), 42);
  EXPECT_EQ(json::parse("-7").as_int64(), -7);
  EXPECT_DOUBLE_EQ(json::parse("2.5e3").as_double(), 2500.0);
  EXPECT_EQ(json::parse("\"hi\"").as_string(), "hi");
}

TEST(JsonParse, IntegerStorageIsPreserved) {
  EXPECT_EQ(json::parse("0").type(), JsonValue::Type::kInt);
  EXPECT_EQ(json::parse("1.0").type(), JsonValue::Type::kDouble);
  // INT64_MAX + 1 still fits unsigned storage; larger falls back to double.
  EXPECT_EQ(json::parse("9223372036854775808").as_uint64(), 9223372036854775808ull);
  EXPECT_EQ(json::parse("99999999999999999999999").type(), JsonValue::Type::kDouble);
}

TEST(JsonParse, NestedDocument) {
  const auto doc = json::parse(R"({"a": [1, 2.5, {"b": null}], "c": {"d": true}})");
  ASSERT_TRUE(doc.is_object());
  const auto* a = doc.find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 3u);
  EXPECT_EQ(a->items()[0].as_int64(), 1);
  EXPECT_TRUE(a->items()[2].find("b")->is_null());
  EXPECT_TRUE(doc.find("c")->find("d")->as_bool());
  EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParse, StringEscapes) {
  EXPECT_EQ(json::parse(R"("a\"b\\c\/d\n\t")").as_string(), "a\"b\\c/d\n\t");
  EXPECT_EQ(json::parse(R"("A")").as_string(), "A");
  EXPECT_EQ(json::parse(R"("é")").as_string(), "\xc3\xa9");         // é
  EXPECT_EQ(json::parse(R"("😀")").as_string(), "\xf0\x9f\x98\x80");  // emoji
}

TEST(JsonParse, StrictnessRejections) {
  EXPECT_THROW((void)json::parse(""), ConfigError);
  EXPECT_THROW((void)json::parse("{,}"), ConfigError);
  EXPECT_THROW((void)json::parse("[1, 2,]"), ConfigError);           // trailing comma
  EXPECT_THROW((void)json::parse(R"({"a": 1,})"), ConfigError);      // trailing comma
  EXPECT_THROW((void)json::parse(R"({"a": 1} )" "x"), ConfigError);  // trailing garbage
  EXPECT_THROW((void)json::parse(R"({"a": 1, "a": 2})"), ConfigError);  // duplicate key
  EXPECT_THROW((void)json::parse("01"), ConfigError);                // leading zero
  EXPECT_THROW((void)json::parse("1."), ConfigError);
  EXPECT_THROW((void)json::parse("+1"), ConfigError);
  EXPECT_THROW((void)json::parse("'single'"), ConfigError);
  EXPECT_THROW((void)json::parse("{\"a\": 1 // comment\n}"), ConfigError);
  EXPECT_THROW((void)json::parse("\"unterminated"), ConfigError);
  EXPECT_THROW((void)json::parse("\"bad \\x escape\""), ConfigError);
  EXPECT_THROW((void)json::parse("1e999"), ConfigError);             // out of double range
  EXPECT_THROW((void)json::parse(std::string(300, '[')), ConfigError);  // nesting bomb
}

TEST(JsonParse, ErrorsCarryLineAndColumn) {
  try {
    (void)json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const ConfigError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("line 3"), std::string::npos) << what;
    EXPECT_NE(what.find("duplicate object key \"a\""), std::string::npos) << what;
  }
}

TEST(JsonValueApi, TypeMismatchThrows) {
  const auto v = json::parse("[1]");
  EXPECT_THROW((void)v.as_string(), ConfigError);
  EXPECT_THROW((void)v.members(), ConfigError);
  EXPECT_THROW((void)json::parse("1.5").as_int64(), ConfigError);
  EXPECT_THROW((void)json::parse("-1").as_uint64(), ConfigError);
}

TEST(JsonValueApi, ObjectSetPreservesInsertionOrder) {
  auto obj = JsonValue::object();
  obj.set("zeta", 1);
  obj.set("alpha", 2);
  obj.set("zeta", 3);  // replace in place, not re-append
  ASSERT_EQ(obj.members().size(), 2u);
  EXPECT_EQ(obj.members()[0].key, "zeta");
  EXPECT_EQ(obj.members()[0].value.as_int64(), 3);
  EXPECT_TRUE(obj.erase("zeta"));
  EXPECT_FALSE(obj.erase("zeta"));
  ASSERT_EQ(obj.members().size(), 1u);
}

TEST(JsonDump, CompactAndPretty) {
  const auto doc = json::parse(R"({"b": [1, 2], "a": {"x": true}, "e": [], "o": {}})");
  EXPECT_EQ(json::dump_compact(doc), R"({"b":[1,2],"a":{"x":true},"e":[],"o":{}})");
  EXPECT_EQ(json::dump(doc),
            "{\n"
            "  \"b\": [\n    1,\n    2\n  ],\n"
            "  \"a\": {\n    \"x\": true\n  },\n"
            "  \"e\": [],\n"
            "  \"o\": {}\n"
            "}\n");
}

TEST(JsonDump, RoundTripReproducesDocumentExactly) {
  const char* text =
      R"({"name": "x", "v": [0.1, -0.0, 1e-300, 12345678901234567890, -42, 0.69999999999999996],)"
      R"( "s": "é\n", "n": null})";
  const auto doc = json::parse(text);
  const auto reparsed = json::parse(json::dump(doc));
  EXPECT_TRUE(doc == reparsed);
  // And the dump of the reparse is byte-identical (stable fixpoint).
  EXPECT_EQ(json::dump(doc), json::dump(reparsed));
}

TEST(JsonDump, DoubleFormattingRoundTripsBitExactly) {
  const double cases[] = {0.1,
                          1.0 / 3.0,
                          6.02214076e23,
                          -1.6e-19,
                          5e-324,  // min subnormal
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::min(),
                          -0.0,
                          110e6,
                          0.69999999999999996};
  for (const double v : cases) {
    const auto text = json::format_double(v);
    const double back = json::parse(text).as_double();
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    std::memcpy(&a, &v, sizeof a);
    std::memcpy(&b, &back, sizeof b);
    EXPECT_EQ(a, b) << v << " -> " << text;
  }
  EXPECT_EQ(json::format_double(2.5), "2.5");
  EXPECT_EQ(json::format_double(4.0), "4.0");  // stays a double token
  EXPECT_THROW((void)json::format_double(std::nan("")), ConfigError);
  EXPECT_THROW((void)json::format_double(INFINITY), ConfigError);
}

TEST(JsonDump, FormatDoubleMatchesPrintfOracle) {
  std::vector<double> cases;
  // Seeded random finite bit patterns: every exponent and mantissa shape.
  std::mt19937_64 engine(20040215);
  while (cases.size() < 1'000'000) {
    const double v = from_bits(engine());
    if (std::isfinite(v)) cases.push_back(v);
  }
  // Every power of two and its neighbours one ulp either side, both signs.
  for (int e = -1074; e <= 1023; ++e) {
    const double p = std::ldexp(1.0, e);
    for (const double v : {std::nextafter(p, 0.0), p, std::nextafter(p, 2.0 * p)}) {
      cases.push_back(v);
      cases.push_back(-v);
    }
  }
  // Subnormals (the smallest, the largest, and seeded ones between) and both
  // zeros.
  cases.push_back(0.0);
  cases.push_back(-0.0);
  for (std::uint64_t m = 1; m <= 4096; ++m) cases.push_back(from_bits(m));
  cases.push_back(from_bits(0x000F'FFFF'FFFF'FFFFULL));
  for (int i = 0; i < 10'000; ++i) cases.push_back(from_bits(engine() & 0x800F'FFFF'FFFF'FFFFULL));
  // Integers from 1e15 to 1e17: %g prints them fixed up to its precision and
  // in scientific form beyond, and doubles stop being every integer at 2^53.
  std::uniform_int_distribution<std::int64_t> integer(1'000'000'000'000'000,
                                                      100'000'000'000'000'000);
  for (int i = 0; i < 100'000; ++i) cases.push_back(static_cast<double>(integer(engine)));
  for (const double anchor : {1e15, 1e16, 1e17, 9007199254740992.0}) {
    for (int k = -1000; k <= 1000; ++k) cases.push_back(anchor + k);
  }
  // Both sides of %g's fixed/scientific switch, 1000 ulps either way.
  for (const double anchor : {1e-5, 1e-4, 1e14, 1e15, 1e16, 1e17}) {
    double down = anchor;
    double up = anchor;
    cases.push_back(anchor);
    for (int k = 0; k < 1000; ++k) {
      down = std::nextafter(down, 0.0);
      up = std::nextafter(up, 2.0 * anchor);
      cases.push_back(down);
      cases.push_back(up);
    }
  }
  // The cases of DoubleFormattingRoundTripsBitExactly.
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, -1.6e-19, 5e-324,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::min(), -0.0, 110e6,
                         0.69999999999999996, 2.5, 4.0}) {
    cases.push_back(v);
  }

  std::size_t mismatches = 0;
  for (const double v : cases) {
    const std::string want = printf_oracle(v);
    const std::string got = json::format_double(v);
    if (got == want) continue;
    if (++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << bits_of(v) << std::dec << ": got " << got
                    << ", printf gives " << want;
    }
  }
  EXPECT_EQ(mismatches, 0U) << "of " << cases.size() << " doubles";
}

TEST(JsonParse, UnderflowReadsAsSignedZero) {
  const JsonValue pos = json::parse("1e-400");
  const JsonValue neg = json::parse("-1e-400");
  ASSERT_EQ(pos.type(), JsonValue::Type::kDouble);
  ASSERT_EQ(neg.type(), JsonValue::Type::kDouble);
  EXPECT_EQ(bits_of(pos.as_double()), bits_of(0.0));
  EXPECT_EQ(bits_of(neg.as_double()), bits_of(-0.0));
}

TEST(JsonParse, SubnormalBoundaryRoundsCorrectly) {
  // Just below half the smallest subnormal rounds to zero; 4.9e-324 is the
  // smallest subnormal itself.
  EXPECT_EQ(bits_of(json::parse("2.4703282292062327e-324").as_double()), bits_of(0.0));
  EXPECT_EQ(bits_of(json::parse("4.9e-324").as_double()),
            bits_of(std::numeric_limits<double>::denorm_min()));
}

TEST(JsonParse, OverflowIsAnError) {
  EXPECT_THROW((void)json::parse("1e400"), ConfigError);
  EXPECT_THROW((void)json::parse("-1e400"), ConfigError);
  // One digit past DBL_MAX's halfway point rounds to infinity.
  EXPECT_THROW((void)json::parse("1.7976931348623159e308"), ConfigError);
  EXPECT_EQ(bits_of(json::parse("1.7976931348623157e308").as_double()),
            bits_of(std::numeric_limits<double>::max()));
}

TEST(JsonParse, LongMantissaRoundsCorrectly) {
  // 1 + 2^-53 written out exactly is the tie between 1 and 1 + 2^-52, which
  // rounds to even (1). Zeros pad its mantissa to 800 digits; a last digit
  // of 1 puts it just above the tie, so it must round up.
  const std::string tie = "1.00000000000000011102230246251565404236316680908203125";
  std::string padded = tie;
  padded.append(801 - tie.size(), '0');
  ASSERT_EQ(padded.size(), 801U);  // 800 digits and the point
  EXPECT_EQ(bits_of(json::parse(padded).as_double()), bits_of(1.0));
  padded.back() = '1';
  const double above = std::nextafter(1.0, 2.0);
  EXPECT_EQ(bits_of(json::parse(padded).as_double()), bits_of(above));
  EXPECT_EQ(bits_of(json::parse("-" + padded).as_double()), bits_of(-above));
}

TEST(JsonCanonical, SortsKeysAtEveryLevel) {
  const auto a = json::parse(R"({"b": {"z": 1, "a": 2}, "a": [{"q": 1, "p": 2}]})");
  const auto b = json::parse(R"({"a": [{"p": 2, "q": 1}], "b": {"a": 2, "z": 1}})");
  EXPECT_EQ(json::canonical(a), json::canonical(b));
  EXPECT_EQ(json::canonical(a), R"({"a":[{"p":2,"q":1}],"b":{"a":2,"z":1}})");
  // Array order is data, not presentation: reordering arrays changes the form.
  const auto c = json::parse(R"({"a": [{"p": 2, "q": 1}], "b": {"a": 2, "z": 2}})");
  EXPECT_NE(json::canonical(a), json::canonical(c));
}
