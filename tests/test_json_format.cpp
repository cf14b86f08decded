// Number formatting on the JSON output path: core::append_g17 and
// Json::dump must produce exactly the bytes of printf "%.17g" / "%lld"
// (std::to_chars does the work), NaN/Inf still render as null, and the
// .step grid expansion keeps its strings.
#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "core/report.h"
#include "spice/netlist_parser.h"

namespace {

using carbon::core::Json;

std::string printf_g17(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string g17(double v) {
  std::string out;
  carbon::core::append_g17(out, v);
  return out;
}

double from_bits(std::uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof v);
  return v;
}

std::vector<double> edge_cases() {
  const double two53 = 9007199254740992.0;
  std::vector<double> v = {
      0.0, -0.0, 5e-324, -5e-324, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
      DBL_EPSILON, 1e-5, 1e-4, 0.0001, 0.00012345678901234567, 0.1, 0.2,
      0.3, 0.1 + 0.2, 1.0 / 3.0, 2.0 / 3.0, 1.0, -1.0, 0.5, 1.5, 100.0,
      // The fixed <-> exponent switch of %.17g sits at 1e17.
      1e15, 1e16, 1e16 + 2.0, 99999999999999984.0, 1e17, 1e17 + 16.0,
      1e18, 1e20, 1e21, 1e22, 1e23, 1e300, 1e-300, 1e-307, 1e-308,
      // Integers past 2^53 (every one of them even, so exactly held).
      two53, two53 + 2.0, two53 * 2.0 + 4.0, 1152921504606846976.0,
      9223372036854775808.0, 18446744073709551616.0, 123456789012345680.0,
      // Exact halfway ties at the 17th digit: n + 1/4 with 16 digits in n,
      // n + 1/8 with 15; %.17g rounds them half to even.
      1000000000000000.25, 1000000000000000.75, 1000000000000001.25,
      2251799813685247.75, 100000000000000.125, 100000000000000.375,
      100000000000000.625, 123456789012345.875,
      std::nextafter(1.0, 2.0), std::nextafter(1.0, 0.0),
      std::nextafter(1e17, 0.0), std::nextafter(1e16, 2e16),
      std::nextafter(0.0, 1.0) * 3.0};
  return v;
}

TEST(JsonFormat, EdgeCasesMatchPrintf) {
  for (double v : edge_cases()) {
    EXPECT_EQ(g17(v), printf_g17(v));
  }
}

TEST(JsonFormat, SeededRandomCorpusMatchesPrintf) {
  std::mt19937_64 rng(20141019);
  std::uniform_real_distribution<double> mant(-10.0, 10.0);
  std::uniform_int_distribution<int> exp10(-320, 308);
  std::uniform_int_distribution<std::int64_t> n16(1000000000000000LL,
                                                  2251799813685247LL);
  int checked = 0, mismatched = 0;
  std::string first_bad;
  auto check = [&](double v) {
    if (!std::isfinite(v)) return;
    ++checked;
    if (g17(v) != printf_g17(v) && mismatched++ == 0) {
      first_bad = printf_g17(v) + " vs " + g17(v);
    }
  };
  for (int i = 0; i < 60000; ++i) {
    check(from_bits(rng()));                        // any bit pattern
    check(mant(rng) * std::pow(10.0, exp10(rng)));  // every decade
    const double quarter = 0.25 * static_cast<double>(rng() % 4);
    check(static_cast<double>(n16(rng)) + quarter);  // 17th-digit ties
  }
  EXPECT_GT(checked, 170000);
  EXPECT_EQ(mismatched, 0) << "first mismatch (printf vs to_chars): "
                           << first_bad;
}

TEST(JsonFormat, DumpMatchesPrintfAndRoundTrips) {
  for (double v : edge_cases()) {
    const std::string text = Json(v).dump();
    EXPECT_EQ(text, printf_g17(v));
    const double back = Json::parse(text).as_double();
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << text;
  }
}

TEST(JsonFormat, IntegersMatchPrintf) {
  const long long cases[] = {0,
                             1,
                             -1,
                             42,
                             -9007199254740993LL,
                             9007199254740993LL,
                             std::numeric_limits<long long>::max(),
                             std::numeric_limits<long long>::min()};
  for (long long v : cases) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", v);
    EXPECT_EQ(Json(v).dump(), buf);
    EXPECT_EQ(Json::parse(buf).as_int(), v);
  }
  // Past int64 an integer token still parses, as the nearest double.
  const Json big = Json::parse("9223372036854775808");
  EXPECT_FALSE(big.is_int());
  EXPECT_EQ(big.as_double(), 9223372036854775808.0);
}

TEST(JsonFormat, NonFiniteRendersNull) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json(nan).dump(), "null");
  EXPECT_EQ(Json(-nan).dump(), "null");
  EXPECT_EQ(Json(inf).dump(), "null");
  EXPECT_EQ(Json(-inf).dump(), "null");
  auto doc = Json::object();
  doc.set("a", inf).set("b", Json::array().push(nan).push(0.5));
  EXPECT_EQ(doc.dump(), R"({"a":null,"b":[null,0.5]})");
  EXPECT_EQ(doc.dump(2), "{\n  \"a\": null,\n  \"b\": [\n    null,\n"
                         "    0.5\n  ]\n}");
}

TEST(JsonFormat, StepGridStringsKeepPrintfForm) {
  // A fractional increment lands on values like 0.30000000000000004:
  // the grid strings carry all 17 digits, exactly as printf wrote them.
  const auto deck = carbon::spice::parse_deck(
      ".param vdd=1\n"
      "v1 a 0 {vdd}\n"
      "r1 a 0 1k\n"
      ".op\n"
      ".step param vdd 0.1 0.7 0.1\n");
  ASSERT_EQ(deck.steps.size(), 1u);
  const auto& values = deck.steps[0].values;
  ASSERT_EQ(values.size(), 7u);
  for (size_t k = 0; k < values.size(); ++k) {
    EXPECT_EQ(values[k], printf_g17(0.1 + static_cast<double>(k) * 0.1));
  }
  EXPECT_EQ(values[2], "0.30000000000000004");
  EXPECT_EQ(values[6], "0.70000000000000007");
}

}  // namespace
