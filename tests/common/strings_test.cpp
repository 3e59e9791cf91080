#include "common/strings.hpp"

#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <optional>
#include <random>
#include <string>

#include <gtest/gtest.h>

namespace sisd {
namespace {

TEST(SplitStringTest, BasicSplit) {
  const std::vector<std::string> parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const std::vector<std::string> parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, NoSeparatorYieldsWholeString) {
  const std::vector<std::string> parts = SplitString("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  x y \t\n"), "x y");
  EXPECT_EQ(TrimWhitespace(""), "");
  EXPECT_EQ(TrimWhitespace("   "), "");
  EXPECT_EQ(TrimWhitespace("abc"), "abc");
}

TEST(JoinStringsTest, JoinsWithSeparator) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, " AND "), "a AND b AND c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(ParseDoubleTest, ParsesValidNumbers) {
  EXPECT_DOUBLE_EQ(ParseDouble("3.5").value(), 3.5);
  EXPECT_DOUBLE_EQ(ParseDouble("-1e-3").value(), -1e-3);
  EXPECT_DOUBLE_EQ(ParseDouble("  42 ").value(), 42.0);
}

TEST(ParseDoubleTest, RejectsInvalidInput) {
  EXPECT_FALSE(ParseDouble("").has_value());
  EXPECT_FALSE(ParseDouble("abc").has_value());
  EXPECT_FALSE(ParseDouble("1.5x").has_value());
  EXPECT_FALSE(ParseDouble("1.5 2.5").has_value());
}

TEST(ParseDoubleTest, AcceptsSubnormalsRejectsOverflowAndUnderflowToZero) {
  EXPECT_EQ(ParseDouble("1e-310").value(), std::strtod("1e-310", nullptr));
  EXPECT_EQ(ParseDouble("-1e-310").value(), -std::strtod("1e-310", nullptr));
  EXPECT_EQ(ParseDouble("2.2250738585072011e-308").value(),
            std::strtod("2.2250738585072011e-308", nullptr));
  EXPECT_EQ(ParseDouble("4.9406564584124654e-324").value(),
            std::numeric_limits<double>::denorm_min());
  EXPECT_FALSE(ParseDouble("1e309").has_value());
  EXPECT_FALSE(ParseDouble("-1e309").has_value());
  EXPECT_FALSE(ParseDouble("1e-400").has_value());
  EXPECT_FALSE(ParseDouble("-1e-400").has_value());
  EXPECT_FALSE(ParseDouble("2e-324").has_value());  // rounds to zero
  EXPECT_EQ(ParseDouble("0e-400").value(), 0.0);    // exact zero, no underflow
}

/// ParseDouble as it was before its `from_chars` fast path: strtod only,
/// with every ERANGE rejected. The reference of the differential test.
std::optional<double> ReferenceParseDouble(std::string_view text) {
  const std::string_view trimmed = TrimWhitespace(text);
  if (trimmed.empty()) return std::nullopt;
  const std::string buf(trimmed);
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) return std::nullopt;
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

/// Same accept/reject decision and the same bits as the reference. The one
/// allowed difference is a subnormal result, which only ParseDouble accepts
/// (with the bits strtod produces).
void ExpectMatchesReference(const std::string& text) {
  const std::optional<double> got = ParseDouble(text);
  const std::optional<double> want = ReferenceParseDouble(text);
  if (got.has_value() && !want.has_value() &&
      std::fpclassify(*got) == FP_SUBNORMAL) {
    const std::string trimmed(TrimWhitespace(text));
    EXPECT_EQ(std::bit_cast<uint64_t>(*got),
              std::bit_cast<uint64_t>(std::strtod(trimmed.c_str(), nullptr)))
        << ::testing::PrintToString(text);
    return;
  }
  ASSERT_EQ(got.has_value(), want.has_value())
      << ::testing::PrintToString(text);
  if (got.has_value()) {
    EXPECT_EQ(std::bit_cast<uint64_t>(*got), std::bit_cast<uint64_t>(*want))
        << ::testing::PrintToString(text);
  }
}

TEST(ParseDoubleTest, EdgeCasesMatchStrtodReference) {
  for (const char* text :
       {"+1.5", "-1.5", "0x1p3", "0X1P-3", "inf", "-inf", "+inf", "INF",
        "infinity", "-Infinity", "nan", "-nan", "NaN", "nan(1)", "nan(0x8)",
        "  2.5", "2.5  ", "\t-7e2\n", " \v1\f", "1.", ".5", "-.5", "+.5",
        ".", "-", "+", "1e", "1e+", "e5", "E5", "1e5", "1E+05", "1e-05",
        "1e309", "-1e309", "1e-400", "1e-310", "-0", "0", "-0.0", "0e0",
        "0e5000", "00000.000e-999", "1_000", "1,5", "1.5.2", "--1", "+-1",
        "123456789012345678901234567890",
        "1.23456789012345678901234567890",
        "0.000000000000000000000000000001234567890123456789012345678901",
        "179769313486231570000000000000000000000000000000000000000000e249",
        "2.4703282292062327e-324", "2.4703282292062328e-324",
        "1.7976931348623157e308", "1.7976931348623159e308",
        "2.2250738585072014e-308", "2.2250738585072011e-308"}) {
    ExpectMatchesReference(text);
  }
  // A NUL inside the view is junk, not a terminator.
  ExpectMatchesReference(std::string("1.5\0", 4));
  ExpectMatchesReference(std::string("\0", 1));
}

TEST(ParseDoubleTest, GeneratedNumbersMatchStrtodReference) {
  std::mt19937_64 rng(20181);
  char buf[512];
  for (int draw = 0; draw < 120000; ++draw) {
    double value;
    if (draw % 2 == 0) {
      // Any finite bit pattern: every exponent, subnormals included.
      do {
        value = std::bit_cast<double>(rng());
      } while (!std::isfinite(value));
    } else {
      // Everyday magnitudes, where CSV cells live.
      value = std::ldexp(double(rng() >> 11) / double(uint64_t{1} << 53),
                         int(rng() % 80) - 40) *
              ((rng() & 1) ? -1.0 : 1.0);
    }
    for (const char* format : {"%.17g", "%.6g", "%.3e", "%.10f"}) {
      std::snprintf(buf, sizeof(buf), format, value);
      ExpectMatchesReference(buf);
      if (::testing::Test::HasFatalFailure()) {
        FAIL() << "draw " << draw << " format " << format;
      }
    }
  }
}

TEST(ParseIntTest, ParsesAndRejects) {
  EXPECT_EQ(ParseInt("123").value(), 123);
  EXPECT_EQ(ParseInt("-5").value(), -5);
  EXPECT_FALSE(ParseInt("1.5").has_value());
  EXPECT_FALSE(ParseInt("").has_value());
}

TEST(StartsWithTest, Basics) {
  EXPECT_TRUE(StartsWith("prefix-rest", "prefix"));
  EXPECT_FALSE(StartsWith("pre", "prefix"));
  EXPECT_TRUE(StartsWith("anything", ""));
}

TEST(ToLowerAsciiTest, Lowercases) {
  EXPECT_EQ(ToLowerAscii("AbC-123"), "abc-123");
}

}  // namespace
}  // namespace sisd
