// Differential tests for the shared JSON number writer and reader (json_format.h).
//
// The printf/strtod round-trip ladder the writer once used is kept here, and only
// here, as the oracle: AppendJsonNumber must reproduce its bytes for every input,
// and ParseJsonNumber must accept exactly the texts strtod accepts, with the same
// value. The shortest std::to_chars form cannot stand in for the ladder: it prints
// 1e8 as "1e+08" where the ladder prints "100000000".

#include "src/obs/json_format.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

namespace jockey {
namespace {

std::string OracleNumber(double value) {
  if (!std::isfinite(value)) {
    return "null";
  }
  char buffer[32];
  for (int precision = 15; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) {
      break;
    }
  }
  return buffer;
}

bool OracleParse(const std::string& text, double& out) {
  char* end = nullptr;
  out = std::strtod(text.c_str(), &end);
  return end != text.c_str() && *end == '\0';
}

std::vector<double> DifferentialInputs() {
  std::vector<double> values;
  std::mt19937_64 rng(20121);
  auto unit = [&rng]() { return static_cast<double>(rng() >> 11) * 0x1.0p-53; };
  // Trace timestamps: event clocks that accumulate durations, and tick-aligned times.
  double t = 0.0;
  for (int i = 0; i < 150000; ++i) {
    t += unit() * 12.0;
    values.push_back(t);
    values.push_back(60.0 * (i % 400) + unit());
  }
  // Uniform values at several scales, and the same values rounded to k decimals.
  for (int i = 0; i < 100000; ++i) {
    double u = unit() * std::pow(10.0, static_cast<int>(rng() % 12) - 4);
    values.push_back(u);
    double scale = std::pow(10.0, static_cast<int>(rng() % 7));
    values.push_back(std::round(u * scale) / scale);
  }
  // Integers, including the 1e8 and 1e15-1e17 ranges where %g switches notation
  // and where the ladder needs 16 or 17 digits.
  for (int64_t i = -5000; i <= 50000; ++i) {
    values.push_back(static_cast<double>(i));
  }
  for (int64_t i = 0; i < 10000; ++i) {
    values.push_back(1e8 + static_cast<double>(i) - 5000.0);
    values.push_back(1e15 + static_cast<double>(rng() % 9000000000000000ULL));
    values.push_back(1e16 + static_cast<double>(rng() % 90000000000000000ULL));
  }
  for (int e = -330; e <= 310; ++e) {
    values.push_back(std::pow(10.0, e));
    values.push_back(-std::pow(10.0, e));
    values.push_back(std::ldexp(1.0, e));
  }
  // Random bit patterns: every exponent, NaN payloads, infinities, subnormals.
  for (int i = 0; i < 100000; ++i) {
    values.push_back(std::bit_cast<double>(rng()));
    values.push_back(std::bit_cast<double>(rng() & 0x800fffffffffffffULL));  // subnormal
  }
  values.push_back(0.0);
  values.push_back(-0.0);
  values.push_back(std::numeric_limits<double>::infinity());
  values.push_back(-std::numeric_limits<double>::infinity());
  values.push_back(std::numeric_limits<double>::quiet_NaN());
  values.push_back(std::numeric_limits<double>::denorm_min());
  values.push_back(std::numeric_limits<double>::min());
  values.push_back(std::numeric_limits<double>::max());
  values.push_back(std::numeric_limits<double>::lowest());
  return values;
}

TEST(JsonNumberDifferentialTest, WriterMatchesThePrintfLadderOracle) {
  const std::vector<double> values = DifferentialInputs();
  ASSERT_GE(values.size(), 600000u);
  int mismatches = 0;
  std::string text;
  for (double v : values) {
    text.clear();
    AppendJsonNumber(text, v);
    if (text != OracleNumber(v) && ++mismatches <= 5) {
      ADD_FAILURE() << std::hexfloat << v << ": got " << text << ", oracle "
                    << OracleNumber(v);
    }
  }
  EXPECT_EQ(mismatches, 0) << "of " << values.size();
}

TEST(JsonNumberDifferentialTest, ReaderMatchesStrtodOnWriterOutput) {
  int mismatches = 0;
  std::string text;
  for (double v : DifferentialInputs()) {
    text.clear();
    AppendJsonNumber(text, v);
    double expected = 0.0;
    double got = 0.0;
    const bool oracle_ok = OracleParse(text, expected);
    const bool ok = ParseJsonNumber(text, got);
    if ((ok != oracle_ok ||
         (ok && std::bit_cast<uint64_t>(got) != std::bit_cast<uint64_t>(expected))) &&
        ++mismatches <= 5) {
      ADD_FAILURE() << text;
    }
  }
  EXPECT_EQ(mismatches, 0);
}

// Spellings std::from_chars rejects or reads differently must still get strtod's
// verdict, and failure must leave the output untouched.
TEST(JsonNumberDifferentialTest, ReaderMatchesStrtodOnOddSpellings) {
  const std::vector<std::string> texts = {
      "+1",     " 1",       "\t-2.5",  "0x1p3",   "0X1P-2", "1e400",   "-1e400",
      "1e-400", "-1e-400",  "nan",     "-nan",    "NaN",    "inf",     "-Infinity",
      "1e",     "1e+",      ".5",      "5.",      "-",      "+",       "1 ",
      "1x",     "--1",      "1e5",     "1E-5",    "0",      "-0",      "00012",
      "4.9406564584124654e-324",       "2.2250738585072011e-308",    "1.7976931348623159e308",
      "nan(123)", "infinit", "0x",     "1.5e+0308",         std::string("1\0junk", 6),
      std::string("\0", 1)};
  for (const std::string& text : texts) {
    double expected = 0.0;
    double got = -7.0;
    const bool oracle_ok = OracleParse(text, expected);
    EXPECT_EQ(ParseJsonNumber(text, got), oracle_ok) << text;
    if (oracle_ok) {
      if (std::isnan(expected)) {
        EXPECT_TRUE(std::isnan(got)) << text;
      } else {
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(expected)) << text;
      }
    } else {
      EXPECT_EQ(got, -7.0) << text;
    }
  }
  double untouched = 3.0;
  EXPECT_FALSE(ParseJsonNumber("", untouched));
  EXPECT_EQ(untouched, 3.0);
}

TEST(TruncateToTest, ConvertsOnlyValuesThatFit) {
  int i = -1;
  EXPECT_TRUE(TruncateTo(2.9, i));
  EXPECT_EQ(i, 2);
  EXPECT_TRUE(TruncateTo(-2.9, i));
  EXPECT_EQ(i, -2);
  EXPECT_TRUE(TruncateTo(2147483647.9, i));
  EXPECT_EQ(i, 2147483647);
  EXPECT_TRUE(TruncateTo(-2147483648.9, i));
  EXPECT_EQ(i, -2147483647 - 1);
  i = 5;
  EXPECT_FALSE(TruncateTo(2147483648.0, i));
  EXPECT_FALSE(TruncateTo(-2147483649.0, i));
  EXPECT_FALSE(TruncateTo(1e300, i));
  EXPECT_FALSE(TruncateTo(std::numeric_limits<double>::quiet_NaN(), i));
  EXPECT_FALSE(TruncateTo(-std::numeric_limits<double>::infinity(), i));
  EXPECT_EQ(i, 5);

  uint64_t u = 0;
  EXPECT_TRUE(TruncateTo(-0.5, u));
  EXPECT_EQ(u, 0u);
  EXPECT_FALSE(TruncateTo(-1.0, u));
  EXPECT_FALSE(TruncateTo(18446744073709551616.0, u));
  EXPECT_TRUE(TruncateTo(18446744073709549568.0, u));  // largest double below 2^64
  EXPECT_EQ(u, 18446744073709549568ULL);

  int64_t s = 0;
  EXPECT_TRUE(TruncateTo(-9223372036854775808.0, s));
  EXPECT_EQ(s, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(TruncateTo(9223372036854775808.0, s));
}

}  // namespace
}  // namespace jockey
