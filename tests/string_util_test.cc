#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "util/math_util.h"

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
