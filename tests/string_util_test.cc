#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string_view>

#include "util/math_util.h"
#include "util/rng.h"

namespace stratlearn {
namespace {

TEST(SplitTest, Basic) {
  std::vector<std::string> parts = Split("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "b");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitTest, KeepsEmptyPieces) {
  std::vector<std::string> parts = Split(",a,,b,", ',');
  ASSERT_EQ(parts.size(), 5u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[4], "");
}

TEST(SplitTest, EmptyInput) {
  std::vector<std::string> parts = Split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(TrimTest, RemovesWhitespace) {
  EXPECT_EQ(Trim("  hello \t\n"), "hello");
  EXPECT_EQ(Trim("x"), "x");
  EXPECT_EQ(Trim("   "), "");
  EXPECT_EQ(Trim(""), "");
}

TEST(SplitFieldsTest, DropsEmptyFields) {
  EXPECT_EQ(SplitFields("  a \tb  c "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(SplitFields(" \t ").empty());
}

TEST(TakeTokensTest, LeavesTheRestAsALabel) {
  std::vector<std::string_view> tokens;
  std::string_view rest;
  ASSERT_TRUE(TakeTokens("0 1 a label", 2, &tokens, &rest));
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[1], "1");
  EXPECT_EQ(rest, "a label");
  EXPECT_FALSE(TakeTokens("0", 2, &tokens, &rest));
}

TEST(ParseNumberTest, AcceptsOnlyWholeTokensInRange) {
  int64_t i = 7;
  EXPECT_TRUE(ParseInt64("-42", &i));
  EXPECT_EQ(i, -42);
  EXPECT_FALSE(ParseInt64("12x", &i));
  EXPECT_FALSE(ParseInt64("", &i));
  EXPECT_FALSE(ParseInt64(" 1", &i));
  EXPECT_FALSE(ParseInt64("9223372036854775808", &i));
  EXPECT_EQ(i, -42);  // untouched by the failures

  uint64_t u = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &u));
  EXPECT_EQ(u, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1", &u));
  EXPECT_FALSE(ParseUint64("18446744073709551616", &u));

  double d = 0.0;
  EXPECT_TRUE(ParseDouble("0.5", &d));
  EXPECT_EQ(d, 0.5);
  EXPECT_FALSE(ParseDouble("abc", &d));
  EXPECT_FALSE(ParseDouble("1.5x", &d));
  EXPECT_FALSE(ParseDouble("1e999", &d));

  uint32_t id = 0;
  EXPECT_TRUE(ParseInteger("4294967295", &id));
  EXPECT_FALSE(ParseInteger("4294967296", &id));
  int small = 0;
  EXPECT_TRUE(ParseInteger("-1", &small));
  EXPECT_EQ(small, -1);
  EXPECT_FALSE(ParseInteger("2147483648", &small));
}

TEST(JoinTest, Basic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(StartsWithTest, Basic) {
  EXPECT_TRUE(StartsWith("instructor", "inst"));
  EXPECT_FALSE(StartsWith("inst", "instructor"));
  EXPECT_TRUE(StartsWith("abc", ""));
}

TEST(StrFormatTest, FormatsLikePrintf) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 3.14159), "3.14");
  EXPECT_EQ(StrFormat("empty"), "empty");
}

TEST(StrFormatTest, LongOutput) {
  std::string long_arg(500, 'z');
  std::string out = StrFormat("[%s]", long_arg.c_str());
  EXPECT_EQ(out.size(), 502u);
}

TEST(FormatDoubleTest, TrimsZeros) {
  EXPECT_EQ(FormatDouble(3.7), "3.7");
  EXPECT_EQ(FormatDouble(2.0), "2");
  EXPECT_EQ(FormatDouble(0.012, 2), "0.012");
}

// printf is the reference: the number formatter must write its bytes,
// the ones every checked-in trace, audit, checkpoint and golden holds.
std::string PrintfDouble(double value, int digits) {
  char buffer[64];
  int n = std::snprintf(buffer, sizeof(buffer), "%.*g", digits, value);
  return std::string(buffer, static_cast<size_t>(n));
}

std::string PrintfInt(int64_t value) {
  char buffer[32];
  int n = std::snprintf(buffer, sizeof(buffer), "%lld",
                        static_cast<long long>(value));
  return std::string(buffer, static_cast<size_t>(n));
}

// The precisions the formatter's callers use, plus 0 and 1.
constexpr int kPrecisions[] = {0, 1, 3, 4, 6, 12, 17};

// Counts the (value, precision) pairs where AppendDouble or FormatDouble
// differ from printf, keeping the first for the failure message.
struct DoubleDiff {
  int64_t cases = 0;
  int64_t mismatches = 0;
  std::string first;
  std::string appended;  // reused: the loop runs a million times

  void Check(double value, int digits) {
    ++cases;
    char want[64];
    int n = std::snprintf(want, sizeof(want), "%.*g", digits, value);
    std::string_view printed(want, static_cast<size_t>(n));
    appended = "x";  // AppendDouble appends: keep what was there
    AppendDouble(&appended, value, digits);
    std::string formatted = FormatDouble(value, digits);
    if (std::string_view(appended).substr(1) == printed &&
        formatted == printed) {
      return;
    }
    if (mismatches++ == 0) {
      first = "%." + std::to_string(digits) + "g of " +
              PrintfDouble(value, 17) + ": printf '" + std::string(printed) +
              "', AppendDouble '" + appended.substr(1) +
              "', FormatDouble '" + formatted + "'";
    }
  }
  void CheckAllPrecisions(double value) {
    for (int digits : kPrecisions) Check(value, digits);
  }
};

TEST(NumberFormatTest, EdgeValuesMatchPrintf) {
  const double edges[] = {0.0,
                          -0.0,
                          DBL_TRUE_MIN,
                          -DBL_TRUE_MIN,
                          DBL_MIN,
                          DBL_MAX,
                          -DBL_MAX,
                          9007199254740992.0,  // 2^53
                          9007199254740993.0,  // 2^53 + 1 (rounds to 2^53)
                          1e12,
                          999999999999.5,
                          1e16,
                          1e17,
                          9.9999999999999995e-5,
                          1e-4,
                          0.05,
                          0.1,
                          0.5,
                          1.0,
                          -1.5,
                          9.5,
                          99.5,
                          0.00001,
                          123456.0,
                          1234567.0};
  DoubleDiff diff;
  for (double value : edges) {
    diff.CheckAllPrecisions(value);
    diff.CheckAllPrecisions(std::nextafter(value, 0.0));
    diff.CheckAllPrecisions(std::nextafter(value, HUGE_VAL));
  }
  EXPECT_EQ(diff.mismatches, 0) << diff.first;
}

TEST(NumberFormatTest, RandomDoublesMatchPrintf) {
  Rng rng(20260601);
  DoubleDiff diff;
  // Finite bit patterns: every exponent and mantissa shape, one
  // precision each in rotation.
  for (int i = 0; i < 1000000;) {
    uint64_t bits = rng.NextUint64();
    double value;
    std::memcpy(&value, &bits, sizeof(value));
    if (!std::isfinite(value)) continue;
    diff.Check(value, kPrecisions[i % std::size(kPrecisions)]);
    ++i;
  }
  // The magnitudes telemetry writes: uniform draws over many decades
  // and integral values, every precision.
  for (int i = 0; i < 4000; ++i) {
    diff.CheckAllPrecisions(rng.NextDouble() *
                            std::pow(10.0, rng.NextInt(-12, 20)));
    diff.CheckAllPrecisions(static_cast<double>(
        rng.NextInt(-(int64_t{1} << 53), int64_t{1} << 53)));
    diff.CheckAllPrecisions(static_cast<double>(rng.NextInt(-1000, 1000)));
  }
  EXPECT_EQ(diff.mismatches, 0)
      << diff.mismatches << " of " << diff.cases << "; first: "
      << diff.first;
}

TEST(NumberFormatTest, NonFiniteDoublesMatchPrintf) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (double value : {inf, -inf, nan, -nan}) {
    for (int digits : kPrecisions) {
      EXPECT_EQ(FormatDouble(value, digits), PrintfDouble(value, digits));
    }
  }
  EXPECT_EQ(FormatDouble(-inf), "-inf");
  EXPECT_EQ(FormatDouble(-nan), "-nan");
}

TEST(NumberFormatTest, IntegersMatchPrintf) {
  const int64_t edges[] = {0,
                           1,
                           -1,
                           9,
                           10,
                           -10,
                           std::numeric_limits<int64_t>::max(),
                           std::numeric_limits<int64_t>::min(),
                           std::numeric_limits<int64_t>::min() + 1,
                           int64_t{1} << 53};
  Rng rng(7);
  std::vector<int64_t> values(std::begin(edges), std::end(edges));
  for (int i = 0; i < 100000; ++i) {
    // Every magnitude: shift a random word right by 0..63 bits.
    values.push_back(static_cast<int64_t>(rng.NextUint64()) >>
                     rng.NextBounded(64));
  }
  for (int64_t value : values) {
    std::string s;
    AppendInt(&s, value);
    ASSERT_EQ(s, PrintfInt(value));
  }
}

TEST(MathUtilTest, AlmostEqual) {
  EXPECT_TRUE(AlmostEqual(1.0, 1.0 + 1e-12));
  EXPECT_FALSE(AlmostEqual(1.0, 1.001));
  EXPECT_TRUE(AlmostEqual(1e12, 1e12 + 1.0, 1e-9));
}

TEST(MathUtilTest, ClampProbability) {
  EXPECT_EQ(ClampProbability(-0.5), 0.0);
  EXPECT_EQ(ClampProbability(1.5), 1.0);
  EXPECT_EQ(ClampProbability(0.25), 0.25);
}

TEST(MathUtilTest, CeilDiv) {
  EXPECT_EQ(CeilDiv(10, 3), 4);
  EXPECT_EQ(CeilDiv(9, 3), 3);
  EXPECT_EQ(CeilDiv(1, 100), 1);
}

TEST(MathUtilTest, Factorial) {
  EXPECT_EQ(Factorial(0), 1u);
  EXPECT_EQ(Factorial(1), 1u);
  EXPECT_EQ(Factorial(5), 120u);
  EXPECT_EQ(Factorial(10), 3628800u);
}

}  // namespace
}  // namespace stratlearn
