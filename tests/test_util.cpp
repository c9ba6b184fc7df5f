// Time conversions, statistics, string helpers, table and CSV writers.

#include <gtest/gtest.h>

#include <cerrno>
#include <clocale>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <span>
#include <sstream>
#include <vector>

#include "util/csv.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/time.hpp"

namespace dagsched {
namespace {

// --- time -------------------------------------------------------------------

TEST(TimeUnits, MicrosecondConversions) {
  EXPECT_EQ(us(std::int64_t{9}), 9000);
  EXPECT_EQ(us(9.12), 9120);
  EXPECT_EQ(us(0.001), 1);
  EXPECT_EQ(ms(std::int64_t{2}), 2000000);
  EXPECT_DOUBLE_EQ(to_us(9120), 9.12);
  EXPECT_DOUBLE_EQ(to_ms(1500000), 1.5);
}

TEST(TimeUnits, RoundTripPaperValues) {
  // Every value printed in the paper is an exact multiple of 1ns.
  for (const double v : {9.12, 84.77, 72.74, 73.96, 3.96, 6.85, 6.41, 7.21}) {
    EXPECT_DOUBLE_EQ(to_us(us(v)), v);
  }
}

TEST(TimeUnits, FormatTime) {
  EXPECT_EQ(format_time(us(std::int64_t{4})), "4.00us");
  EXPECT_EQ(format_time(us(9.12)), "9.12us");
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(ms(std::int64_t{2})), "2.000ms");
  EXPECT_EQ(format_time(kTimeInfinity), "inf");
  EXPECT_EQ(format_time(0), "0.00us");
}

// --- stats ------------------------------------------------------------------

TEST(Stats, RunningStatsBasics) {
  RunningStats s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_DOUBLE_EQ(s.mean(), 0.0);
  s.add(2.0);
  s.add(4.0);
  s.add(6.0);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.variance(), 4.0);
  EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
}

TEST(Stats, SingleSampleHasZeroVariance) {
  RunningStats s;
  s.add(5.0);
  EXPECT_DOUBLE_EQ(s.variance(), 0.0);
  EXPECT_DOUBLE_EQ(s.min(), 5.0);
  EXPECT_DOUBLE_EQ(s.max(), 5.0);
}

TEST(Stats, SummarizeAndQuantiles) {
  const std::vector<double> values = {5.0, 1.0, 3.0, 2.0, 4.0};
  const Summary s = summarize(values);
  EXPECT_EQ(s.count, 5u);
  EXPECT_DOUBLE_EQ(s.mean, 3.0);
  EXPECT_DOUBLE_EQ(s.median, 3.0);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(quantile(values, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(quantile(values, 0.25), 2.0);
}

TEST(Stats, EmptyInputsAreSafe) {
  const std::vector<double> empty;
  EXPECT_DOUBLE_EQ(mean(empty), 0.0);
  EXPECT_EQ(summarize(empty).count, 0u);
  EXPECT_DOUBLE_EQ(quantile(empty, 0.5), 0.0);
}

TEST(Stats, QuantileRejectsBadQ) {
  const std::vector<double> values = {1.0};
  EXPECT_THROW(quantile(values, -0.1), std::invalid_argument);
  EXPECT_THROW(quantile(values, 1.1), std::invalid_argument);
}

TEST(Stats, NearestRankPercentileHandComputedCases) {
  // Nearest-rank picks the ceil(p/100 * n)-th smallest element, 1-based.
  const std::vector<std::int64_t> one = {42};
  EXPECT_EQ(percentile_nearest_rank(std::span<const std::int64_t>(one), 99),
            42);
  EXPECT_EQ(percentile_nearest_rank(std::span<const std::int64_t>(one), 1),
            42);

  // n = 4: p50 rank = ceil(2.0) = 2 -> 20; p99 rank = ceil(3.96) = 4 -> 40.
  const std::vector<std::int64_t> four = {10, 20, 30, 40};
  const std::span<const std::int64_t> four_span(four);
  EXPECT_EQ(percentile_nearest_rank(four_span, 50), 20);
  EXPECT_EQ(percentile_nearest_rank(four_span, 99), 40);
  EXPECT_EQ(percentile_nearest_rank(four_span, 100), 40);

  // n = 100: p99 rank = 99 exactly -> the second-largest element.
  std::vector<std::int64_t> hundred(100);
  for (int i = 0; i < 100; ++i) hundred[i] = i + 1;
  EXPECT_EQ(
      percentile_nearest_rank(std::span<const std::int64_t>(hundred), 99),
      99);

  // n = 101: p99 rank = ceil(99.99) = 100 -> the second-largest again.
  std::vector<std::int64_t> hundred_one(101);
  for (int i = 0; i < 101; ++i) hundred_one[i] = i + 1;
  EXPECT_EQ(percentile_nearest_rank(
                std::span<const std::int64_t>(hundred_one), 99),
            100);

  // Works for doubles too, and always returns an element of the input.
  const std::vector<double> doubles = {1.5, 2.5, 3.5};
  EXPECT_DOUBLE_EQ(
      percentile_nearest_rank(std::span<const double>(doubles), 50), 2.5);
}

TEST(Stats, NearestRankPercentileDisagreesWithQuantileBySmallSampleDesign) {
  // The two percentile definitions the codebase uses, side by side: the
  // online p99 (nearest rank, an actual sample) vs the sweep summary's
  // quantile() (Hyndman-Fan type 7 interpolation).  On {10,20,30,40} the
  // median differs: 20 (rank 2) vs 25 (interpolated).
  const std::vector<double> four = {10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(
      percentile_nearest_rank(std::span<const double>(four), 50), 20.0);
  EXPECT_DOUBLE_EQ(quantile(four, 0.5), 25.0);
}

TEST(Stats, NearestRankPercentileRejectsEmptyAndBadPercent) {
  // An empty input must throw instead of underflowing the 1-based rank
  // (the regression behind compute_online_metrics' explicit sentinel).
  const std::vector<std::int64_t> empty;
  EXPECT_THROW(
      percentile_nearest_rank(std::span<const std::int64_t>(empty), 99),
      std::invalid_argument);
  const std::vector<std::int64_t> one = {1};
  const std::span<const std::int64_t> one_span(one);
  EXPECT_THROW(percentile_nearest_rank(one_span, 0), std::invalid_argument);
  EXPECT_THROW(percentile_nearest_rank(one_span, 101),
               std::invalid_argument);
}

TEST(Stats, RelativeDifference) {
  EXPECT_DOUBLE_EQ(relative_difference(10.0, 10.0), 0.0);
  EXPECT_NEAR(relative_difference(9.0, 10.0), 0.1, 1e-12);
  EXPECT_NEAR(relative_difference(0.0, 0.0), 0.0, 1e-12);
}

// --- string helpers ---------------------------------------------------------

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(format_fixed(2.0, 0), "2");
  EXPECT_EQ(format_percent(43.02), "43.0%");
}

TEST(StringUtil, FormatFixedGoldenBytes) {
  // Pinned artifact bytes: every golden (sweep summary JSON, CSV, shard
  // artifacts) renders doubles through format_fixed, so these exact
  // strings are load-bearing.
  EXPECT_EQ(format_fixed(1.005, 2), "1.00");  // exact binary is 1.00499...
  EXPECT_EQ(format_fixed(-0.125, 3), "-0.125");
  EXPECT_EQ(format_fixed(12345.6789, 4), "12345.6789");
  EXPECT_EQ(format_fixed(0.0, 6), "0.000000");
  EXPECT_EQ(format_fixed(1e9, 1), "1000000000.0");
}

TEST(StringUtil, FormatFixedIsLocaleIndependent) {
  // The documented contract is locale-independent decimals, but %f spells
  // the decimal point per LC_NUMERIC.  Under a comma-decimal locale the
  // bytes must still come out as "1.50".  Containers often ship only the
  // C locale; skip (don't vacuously pass) when no comma locale exists.
  const char* previous = std::setlocale(LC_NUMERIC, nullptr);
  const std::string saved = previous ? previous : "C";
  const char* comma_locale = nullptr;
  for (const char* candidate :
       {"de_DE.UTF-8", "de_DE.utf8", "de_DE", "fr_FR.UTF-8", "fr_FR.utf8"}) {
    if (std::setlocale(LC_NUMERIC, candidate) != nullptr) {
      comma_locale = candidate;
      break;
    }
  }
  if (comma_locale == nullptr) {
    std::setlocale(LC_NUMERIC, saved.c_str());
    GTEST_SKIP() << "no comma-decimal locale installed";
  }
  const std::string bytes = format_fixed(1.5, 2);
  const std::string percent = format_percent(12.5, 1);
  std::setlocale(LC_NUMERIC, saved.c_str());
  EXPECT_EQ(bytes, "1.50");
  EXPECT_EQ(percent, "12.5%");
}

TEST(StringUtil, SplitKeepsEmptyFields) {
  const auto fields = split("a,,b,", ',');
  ASSERT_EQ(fields.size(), 4u);
  EXPECT_EQ(fields[0], "a");
  EXPECT_EQ(fields[1], "");
  EXPECT_EQ(fields[2], "b");
  EXPECT_EQ(fields[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(trim("  hello \t"), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtil, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcdef", 4), "abcdef");  // no truncation
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(starts_with("taskgraph x", "taskgraph"));
  EXPECT_FALSE(starts_with("task", "taskgraph"));
}

// --- table writer -----------------------------------------------------------

TEST(TableWriter, RendersAlignedColumns) {
  TableWriter t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22"});
  const std::string rendered = t.render();
  // Default alignment: first column left, the rest right.
  EXPECT_NE(rendered.find("| alpha |     1 |"), std::string::npos);
  EXPECT_NE(rendered.find("| b     |    22 |"), std::string::npos);
  EXPECT_NE(rendered.find("+-------+"), std::string::npos);
  // Explicit alignment override flips the first column.
  t.set_alignment({Align::Right, Align::Left});
  const std::string flipped = t.render();
  EXPECT_NE(flipped.find("|     b | 22    |"), std::string::npos);
}

TEST(TableWriter, RejectsWrongColumnCount) {
  TableWriter t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
  EXPECT_THROW(t.set_alignment({Align::Left}), std::invalid_argument);
}

TEST(TableWriter, RuleRows) {
  TableWriter t({"x"});
  t.add_row({"1"});
  t.add_rule();
  t.add_row({"2"});
  const std::string rendered = t.render();
  // header rule + inner rule + trailing rule + top = 4 dashes lines.
  int rules = 0;
  std::istringstream stream(rendered);
  std::string line;
  while (std::getline(stream, line)) {
    if (!line.empty() && line[0] == '+') ++rules;
  }
  EXPECT_EQ(rules, 4);
}

TEST(TableWriter, StreamsViaOperator) {
  TableWriter t({"c"});
  t.add_row({"v"});
  std::ostringstream out;
  out << t;
  EXPECT_EQ(out.str(), t.render());
}

// --- csv --------------------------------------------------------------------

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, RendersHeaderAndRows) {
  CsvWriter csv({"a", "b"});
  csv.add_row({"1", "x,y"});
  EXPECT_EQ(csv.render(), "a,b\n1,\"x,y\"\n");
  EXPECT_EQ(csv.num_rows(), 1u);
}

TEST(Csv, RejectsWrongColumnCount) {
  CsvWriter csv({"a", "b"});
  EXPECT_THROW(csv.add_row({"1"}), std::invalid_argument);
}

TEST(Stats, SignTestHandComputedCases) {
  // Empty sample: no evidence.
  EXPECT_DOUBLE_EQ(sign_test(0, 0).p_value, 1.0);
  EXPECT_EQ(sign_test(0, 0).n, 0);

  // 5 wins, 0 losses: p = 2 * (1/2)^5 = 0.0625 exactly.
  const SignTest five = sign_test(5, 0);
  EXPECT_EQ(five.n, 5);
  EXPECT_DOUBLE_EQ(five.p_value, 0.0625);
  // Symmetric in the direction.
  EXPECT_DOUBLE_EQ(sign_test(0, 5).p_value, 0.0625);

  // 4 vs 1: p = 2 * (C(5,0) + C(5,1)) / 2^5 = 2 * 6/32 = 0.375.
  EXPECT_DOUBLE_EQ(sign_test(4, 1).p_value, 0.375);

  // Dead even: the two-sided tail overshoots 1 and must be capped.
  EXPECT_DOUBLE_EQ(sign_test(3, 3).p_value, 1.0);

  // 8 vs 2: p = 2 * (1 + 10 + 45) / 1024 = 0.109375.
  EXPECT_DOUBLE_EQ(sign_test(8, 2).p_value, 0.109375);

  // Monotone: more lopsided counts at the same n give smaller p.
  EXPECT_LT(sign_test(9, 1).p_value, sign_test(8, 2).p_value);
  EXPECT_LT(sign_test(10, 0).p_value, sign_test(9, 1).p_value);

  // Large-sample branch (n > 1000 switches to the normal approximation):
  // still sane, monotone and in (0, 1].
  const double even = sign_test(1001, 1001).p_value;
  const double skew = sign_test(1200, 802).p_value;
  EXPECT_GT(even, 0.9);
  EXPECT_LE(even, 1.0);
  EXPECT_LT(skew, 0.001);
  EXPECT_GT(skew, 0.0);
}

TEST(Stats, WilcoxonHandComputedCases) {
  // Empty / all-zero samples: no evidence.
  EXPECT_DOUBLE_EQ(wilcoxon_signed_rank({}).p_value, 1.0);
  const std::vector<double> zeros = {0.0, 0.0};
  EXPECT_DOUBLE_EQ(wilcoxon_signed_rank(zeros).p_value, 1.0);
  EXPECT_EQ(wilcoxon_signed_rank(zeros).n, 0);

  // Distinct magnitudes {1, -2, 3, 4, 5}: ranks are 1..5 by magnitude,
  // W+ = 1 + 3 + 4 + 5 = 13, W- = 2.  With n = 5 <= 25 the p-value is
  // the exact permutation tail: of the 2^5 = 32 sign assignments of the
  // ranks, the subsets summing to >= 13 are {1,3,4,5}, {2,3,4,5} and
  // {1,2,3,4,5} — so P(W+ >= 13) = 3/32 and p = 2 * 3/32 = 0.1875.
  const std::vector<double> diffs = {1.0, -2.0, 3.0, 4.0, 5.0};
  const WilcoxonTest test = wilcoxon_signed_rank(diffs);
  EXPECT_EQ(test.n, 5);
  EXPECT_DOUBLE_EQ(test.w_plus, 13.0);
  EXPECT_DOUBLE_EQ(test.w_minus, 2.0);
  EXPECT_TRUE(test.exact);
  EXPECT_DOUBLE_EQ(test.p_value, 0.1875);
  // The z deviate is still reported for reference:
  // mu = 7.5, var = 13.75; z = (13 - 7.5 - 0.5) / sqrt(13.75).
  EXPECT_NEAR(test.z, 5.0 / std::sqrt(13.75), 1e-12);

  // Ties get mid-ranks: {1, 1, -1, 2} -> |d| ranks (2, 2, 2, 4);
  // W+ = 2 + 2 + 4 = 8, W- = 2.  Exact over the 16 assignments of
  // doubled ranks {4, 4, 4, 8}: the doubled-W+ counts are
  // {0:1, 4:3, 8:4, 12:4, 16:3, 20:1}, the observed doubled W+ is 16, so
  // P(W+ >= 8) = 4/16 and p = 2 * 4/16 = 0.5.
  const std::vector<double> tied = {1.0, 1.0, -1.0, 2.0};
  const WilcoxonTest tied_test = wilcoxon_signed_rank(tied);
  EXPECT_EQ(tied_test.n, 4);
  EXPECT_DOUBLE_EQ(tied_test.w_plus, 8.0);
  EXPECT_DOUBLE_EQ(tied_test.w_minus, 2.0);
  EXPECT_TRUE(tied_test.exact);
  EXPECT_DOUBLE_EQ(tied_test.p_value, 0.5);
  // Tie-corrected z: mu = 5, var = 7.5 - 24/48 = 7.0.
  EXPECT_NEAR(tied_test.z, 2.5 / std::sqrt(7.0), 1e-12);

  // Zeros are dropped before ranking: {0, 3, -1} behaves like {3, -1}.
  const std::vector<double> with_zero = {0.0, 3.0, -1.0};
  const std::vector<double> without_zero = {3.0, -1.0};
  EXPECT_DOUBLE_EQ(wilcoxon_signed_rank(with_zero).p_value,
                   wilcoxon_signed_rank(without_zero).p_value);
  EXPECT_EQ(wilcoxon_signed_rank(with_zero).n, 2);

  // Direction symmetry: flipping every sign swaps W+ and W- but keeps p
  // (the permutation distribution is symmetric).
  std::vector<double> flipped = diffs;
  for (double& d : flipped) d = -d;
  const WilcoxonTest mirror = wilcoxon_signed_rank(flipped);
  EXPECT_DOUBLE_EQ(mirror.w_plus, test.w_minus);
  EXPECT_DOUBLE_EQ(mirror.w_minus, test.w_plus);
  EXPECT_DOUBLE_EQ(mirror.p_value, test.p_value);

  // All-positive distinct ranks: the one-sided tail is exactly one
  // assignment, so p = 2 / 2^n.
  const std::vector<double> one_sided = {1.0, 2.0, 3.0, 4.0, 5.0,
                                         6.0, 7.0, 8.0, 9.0, 10.0};
  EXPECT_DOUBLE_EQ(wilcoxon_signed_rank(one_sided).p_value, 2.0 / 1024.0);
  const std::vector<double> balanced = {1.0, -1.5, 2.0, -2.5, 3.0, -3.5};
  EXPECT_GT(wilcoxon_signed_rank(balanced).p_value, 0.5);
}

TEST(Stats, WilcoxonExactCutoffAndNormalTail) {
  // n = kWilcoxonExactMax stays exact; one more sample switches to the
  // normal approximation, and the two agree closely at the boundary.
  std::vector<double> diffs;
  for (int i = 1; i <= kWilcoxonExactMax; ++i) {
    diffs.push_back(i % 3 == 0 ? -static_cast<double>(i)
                               : static_cast<double>(i));
  }
  const WilcoxonTest at_cutoff = wilcoxon_signed_rank(diffs);
  EXPECT_EQ(at_cutoff.n, kWilcoxonExactMax);
  EXPECT_TRUE(at_cutoff.exact);

  diffs.push_back(26.0);
  const WilcoxonTest beyond = wilcoxon_signed_rank(diffs);
  EXPECT_EQ(beyond.n, kWilcoxonExactMax + 1);
  EXPECT_FALSE(beyond.exact);
  EXPECT_GT(beyond.p_value, 0.0);
  EXPECT_LE(beyond.p_value, 1.0);
  EXPECT_NEAR(beyond.p_value, at_cutoff.p_value, 0.1);

  // Cross-check the exact tail against the normal approximation on a
  // moderately sized sample: they must agree to a few percent.
  std::vector<double> wide;
  for (int i = 1; i <= 20; ++i) {
    wide.push_back(i % 4 == 0 ? -static_cast<double>(i)
                              : static_cast<double>(i));
  }
  const WilcoxonTest exact_test = wilcoxon_signed_rank(wide);
  ASSERT_TRUE(exact_test.exact);
  const double normal_p =
      std::erfc(std::fabs(exact_test.z) / std::sqrt(2.0));
  EXPECT_NEAR(exact_test.p_value, normal_p, 0.02);
}

TEST(Stats, HolmBonferroniHandComputedCases) {
  // Classic worked example: sorted p (.005, .01, .03, .04) scale by
  // (4, 3, 2, 1) -> (.02, .03, .06, .04); the running max makes the last
  // step .06.  Results are returned in the input's order.
  const std::vector<double> p = {0.01, 0.04, 0.03, 0.005};
  const std::vector<double> adjusted = holm_bonferroni(p);
  ASSERT_EQ(adjusted.size(), 4u);
  EXPECT_DOUBLE_EQ(adjusted[0], 0.03);
  EXPECT_DOUBLE_EQ(adjusted[1], 0.06);
  EXPECT_DOUBLE_EQ(adjusted[2], 0.06);
  EXPECT_DOUBLE_EQ(adjusted[3], 0.02);

  // Adjusted values never shrink below the raw ones and cap at 1.
  const std::vector<double> large = {0.6, 0.5, 0.9};
  const std::vector<double> capped = holm_bonferroni(large);
  for (std::size_t i = 0; i < large.size(); ++i) {
    EXPECT_GE(capped[i], large[i]);
    EXPECT_LE(capped[i], 1.0);
  }
  EXPECT_DOUBLE_EQ(capped[2], 1.0);

  // A single test needs no correction; the empty family is empty.
  EXPECT_DOUBLE_EQ(holm_bonferroni(std::vector<double>{0.2})[0], 0.2);
  EXPECT_TRUE(holm_bonferroni({}).empty());

  // Monotone: the adjustment preserves the ordering of the raw p-values.
  const std::vector<double> raw = {0.001, 0.2, 0.05, 0.012};
  const std::vector<double> adj = holm_bonferroni(raw);
  EXPECT_LE(adj[0], adj[3]);
  EXPECT_LE(adj[3], adj[2]);
  EXPECT_LE(adj[2], adj[1]);
}

TEST(Csv, WritesFile) {
  CsvWriter csv({"k", "v"});
  csv.add_row({"x", "1"});
  const std::string path = ::testing::TempDir() + "/dagsched_csv_test.csv";
  ASSERT_TRUE(csv.write_file(path));
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  EXPECT_EQ(buffer.str(), "k,v\nx,1\n");
}

// --- json -------------------------------------------------------------------

TEST(JsonParse, ValuesAndExactIntegers) {
  const JsonValue doc = parse_json(
      R"({"name":"x \"quoted\"","n":-42,"big":9007199254740993,)"
      R"("pi":3.25,"flag":true,"nothing":null,"list":[1,[2,3],{}]})");
  ASSERT_EQ(doc.kind(), JsonValue::Kind::Object);
  EXPECT_EQ(doc.find("name")->as_string(), "x \"quoted\"");
  EXPECT_EQ(doc.find("n")->as_int64(), -42);
  // Past 2^53 a double round-trip would corrupt the value; the parser
  // keeps the raw token so integers stay exact.
  EXPECT_EQ(doc.find("big")->as_int64(), 9007199254740993LL);
  EXPECT_DOUBLE_EQ(doc.find("pi")->as_double(), 3.25);
  EXPECT_TRUE(doc.find("flag")->as_bool());
  EXPECT_EQ(doc.find("nothing")->kind(), JsonValue::Kind::Null);
  EXPECT_EQ(doc.find("missing"), nullptr);
  const JsonValue& list = *doc.find("list");
  ASSERT_EQ(list.items().size(), 3u);
  EXPECT_EQ(list.items()[1].items()[1].as_int64(), 3);
  EXPECT_EQ(list.items()[2].kind(), JsonValue::Kind::Object);
}

TEST(JsonParse, UnicodeEscapesAndErrors) {
  // 2-byte UTF-8 (U+00E9) and a surrogate pair (U+1F600, 4-byte UTF-8).
  const std::string escaped =
      std::string("\"a\\u00e9\\ud83d\\ude00b\"");
  EXPECT_EQ(parse_json(escaped).as_string(),
            "a\xc3\xa9\xf0\x9f\x98\x80"
            "b");
  EXPECT_EQ(parse_json("\"\\n\\t\\\\\\\"\\/\"").as_string(), "\n\t\\\"/");
  EXPECT_THROW(parse_json(""), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\":1,}"), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::invalid_argument);
  EXPECT_THROW(parse_json("nul"), std::invalid_argument);
  EXPECT_THROW(parse_json("[1,2"), std::invalid_argument);
  EXPECT_THROW(parse_json("123."), std::invalid_argument);
  EXPECT_THROW(parse_json(std::string(70, '[') + std::string(70, ']')),
               std::invalid_argument);  // depth cap
  // Type confusion is rejected, not coerced.
  EXPECT_THROW(parse_json("\"5\"").as_int64(), std::invalid_argument);
  EXPECT_THROW(parse_json("1.5").as_int64(), std::invalid_argument);
  EXPECT_THROW(parse_json("-1").as_uint64(), std::invalid_argument);
}

// parse_real/parse_int64 are strtod/strtoll without the locale: same
// bytes consumed, same ERANGE, same value.  glibc is the reference (the
// test binary runs in the "C" locale); the two places parse_real departs
// from it on purpose are pinned in NumberReadersDepartFromGlibcAtDblMin.
void expect_same_as_strtod(const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double want = std::strtod(text.c_str(), &end);
  const bool want_range = errno == ERANGE;
  const auto want_used = static_cast<std::size_t>(end - text.c_str());
  const ParsedReal got = parse_real(text);
  ASSERT_EQ(got.used, want_used) << "'" << text << "'";
  if (want_used == 0) return;
  EXPECT_EQ(got.out_of_range, want_range) << "'" << text << "'";
  // glibc's hex path misrounds some inexact subnormals (it gives
  // 0x0.e24381e92bfa4p-1022 for 0x7121c0f495fd26p-1077, where correct
  // rounding gives ...fa5); from_chars rounds correctly.  Both report
  // ERANGE on a subnormal, so callers never see the value.
  if (!(want_range && got.value != 0.0 &&
        std::fabs(got.value) < std::numeric_limits<double>::min())) {
    EXPECT_TRUE(std::memcmp(&want, &got.value, sizeof want) == 0 ||
                (std::isnan(want) && std::isnan(got.value)))
        << "'" << text << "': " << want << " vs " << got.value;
  }

  errno = 0;
  const long long want_int = std::strtoll(text.c_str(), &end, 10);
  const ParsedInt got_int = parse_int64(text);
  ASSERT_EQ(got_int.used, static_cast<std::size_t>(end - text.c_str()))
      << "'" << text << "'";
  if (got_int.used == 0) return;
  EXPECT_EQ(got_int.out_of_range, errno == ERANGE) << "'" << text << "'";
  EXPECT_EQ(got_int.value, want_int) << "'" << text << "'";
}

TEST(StringUtil, NumberReadersMatchStrtodAndStrtoll) {
  const char* const fixed[] = {
      "", " ", "+", "-", "+-1", "-+1", " \t\n\v\f\r5", "+0.5", "-0", "0.0",
      "1e", "1e+", "1.", ".5", ".", "-.5e3", "inf", "-INF", "Infinity",
      "infinit", "nan", "NaN(123)", "nan(", "0x10", "0X1P4", "0x", "0x.",
      "0x.8", "0xg", "0x-5", "0x1.8p-1074", "0x1p-1075",
      "0x1.0000000000001p-1075", "0x1.fffffffffffff8p-1023", "0x1.fffffffffffff9p-1023", "0x1p1024",
      "0x1.fffffffffffff8p1023", "1e400", "-1e400", "1e-400", "-1e-400",
      "4.9e-324", "1e-310", "2.2250738585072011e-308",
      "2.2250738585072013e-308", "2.2250738585072014e-308",
      "1.7976931348623158e308", "1.7976931348623159e308",
      "9223372036854775807", "9223372036854775808", "-9223372036854775808",
      "-9223372036854775809", "01", "0e-99999999999999999999",
      "1e-99999999999999999999", "0.00000000000000001e-300", "12abc", "1,5"};
  for (const char* text : fixed) expect_same_as_strtod(text);

  // Random tokens: short decimal subnormals and ordinary magnitudes.
  Rng rng = Rng::stream(20261017, 3);
  char buffer[64];
  for (int i = 0; i < 300; ++i) {
    const std::uint64_t bits = rng.next_u64() & ((std::uint64_t{1} << 52) - 1);
    double tiny = 0.0;
    std::memcpy(&tiny, &bits, sizeof tiny);
    std::snprintf(buffer, sizeof buffer, "%.*e",
                  static_cast<int>(rng.uniform_int(0, 25)), tiny);
    expect_same_as_strtod(buffer);
    std::snprintf(buffer, sizeof buffer, "%.*e",
                  static_cast<int>(rng.uniform_int(0, 19)),
                  std::ldexp(static_cast<double>(rng.next_u64()),
                             static_cast<int>(rng.uniform_int(-1100, 1000))));
    expect_same_as_strtod(buffer);
    expect_same_as_strtod(
        std::to_string(static_cast<std::int64_t>(rng.next_u64())));
  }
}

// Any nonzero result below DBL_MIN is out of range, exact or not, and
// DBL_MIN is not, however it was reached.  glibc differs on exact
// subnormals (no ERANGE) and on decimals that round up to DBL_MIN from
// below the midpoint of DBL_MIN and its 53-bit lower neighbour (ERANGE);
// no request carries either.
TEST(StringUtil, NumberReadersDepartFromGlibcAtDblMin) {
  const double dbl_min = std::numeric_limits<double>::min();
  const struct {
    const char* text;
    double value;
    bool out_of_range;
  } cases[] = {
      {"0x1p-1074", std::numeric_limits<double>::denorm_min(), true},
      {"0x0.fffffffffffffp-1022", dbl_min - 0x1p-1074, true},
      {"0x1.fffffffffffff7p-1023", dbl_min, false},
      {"2.2250738585072012e-308", dbl_min, false},
  };
  for (const auto& c : cases) {
    const ParsedReal got = parse_real(c.text);
    EXPECT_EQ(got.used, std::strlen(c.text)) << c.text;
    EXPECT_EQ(got.value, c.value) << c.text;
    EXPECT_EQ(got.out_of_range, c.out_of_range) << c.text;
  }
  // The value of an out-of-range token is strtod's: infinity or zero,
  // judged by the leading digit's place and the exponent together.
  EXPECT_EQ(parse_real("1" + std::string(400, '0') + "e-10").value,
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(parse_real("0." + std::string(400, '0') + "1e10").value, 0.0);
  EXPECT_EQ(parse_real("-100000000000000000000e-345").value, -0.0);
  EXPECT_TRUE(std::signbit(parse_real("-100000000000000000000e-345").value));
  EXPECT_EQ(parse_real("0x100p-1090").value, 0.0);
  EXPECT_EQ(parse_real("0x0.01p1040").value,
            std::numeric_limits<double>::infinity());
}

// --- parse_json vs the strtod parser it replaced ---------------------------

// A test-local copy of the parser as it was before numbers moved to
// std::from_chars: strtod/strtoll/strtoull, a std::string per token, one
// char appended at a time.  The differential tests below require the
// current parser to agree with it on kind, numeric accessors and error
// text.
namespace reference {

struct Value {
  JsonValue::Kind kind = JsonValue::Kind::Null;
  bool flag = false;
  double number = 0.0;
  std::string token;
  std::string text;
  std::vector<Value> items;
  std::vector<std::pair<std::string, Value>> members;

  std::int64_t as_int64() const {
    errno = 0;
    char* end = nullptr;
    const long long parsed = std::strtoll(token.c_str(), &end, 10);
    if (errno != 0 || end == token.c_str() || *end != '\0') {
      throw std::invalid_argument("json: '" + token +
                                  "' is not a 64-bit integer");
    }
    return parsed;
  }

  std::uint64_t as_uint64() const {
    errno = 0;
    char* end = nullptr;
    if (!token.empty() && token[0] == '-') {
      throw std::invalid_argument("json: '" + token +
                                  "' is not an unsigned integer");
    }
    const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
    if (errno != 0 || end == token.c_str() || *end != '\0') {
      throw std::invalid_argument("json: '" + token +
                                  "' is not an unsigned integer");
    }
    return parsed;
  }
};

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing content after document");
    return value;
  }

 private:
  [[noreturn]] void fail(const std::string& what) const {
    throw std::invalid_argument("json: " + what + " at offset " +
                                std::to_string(pos_));
  }
  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume_literal(const std::string& literal) {
    if (text_.compare(pos_, literal.size(), literal) != 0) return false;
    pos_ += literal.size();
    return true;
  }
  Value parse_value(int depth) {
    if (depth > 64) fail("nesting too deep");
    skip_whitespace();
    const char c = peek();
    Value value;
    if (c == '{') return parse_object(depth);
    if (c == '[') return parse_array(depth);
    if (c == '"') {
      value.kind = JsonValue::Kind::String;
      value.text = parse_string();
      return value;
    }
    if (c == 't' || c == 'f') {
      if (!consume_literal(c == 't' ? "true" : "false")) {
        fail("invalid literal");
      }
      value.kind = JsonValue::Kind::Bool;
      value.flag = c == 't';
      return value;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("invalid literal");
      return value;
    }
    if (c == '-' || (c >= '0' && c <= '9')) return parse_number();
    fail("unexpected character");
  }
  Value parse_object(int depth) {
    expect('{');
    Value value;
    value.kind = JsonValue::Kind::Object;
    skip_whitespace();
    if (peek() == '}') {
      ++pos_;
      return value;
    }
    while (true) {
      skip_whitespace();
      std::string name = parse_string();
      skip_whitespace();
      expect(':');
      value.members.emplace_back(std::move(name), parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return value;
      }
      fail("expected ',' or '}' in object");
    }
  }
  Value parse_array(int depth) {
    expect('[');
    Value value;
    value.kind = JsonValue::Kind::Array;
    skip_whitespace();
    if (peek() == ']') {
      ++pos_;
      return value;
    }
    while (true) {
      value.items.push_back(parse_value(depth + 1));
      skip_whitespace();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return value;
      }
      fail("expected ',' or ']' in array");
    }
  }
  std::string parse_string() {
    if (peek() != '"') fail("expected string");
    ++pos_;
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const unsigned char c = static_cast<unsigned char>(text_[pos_]);
      if (c == '"') {
        ++pos_;
        return out;
      }
      if (c < 0x20) fail("unescaped control character in string");
      if (c != '\\') {
        out += static_cast<char>(c);
        ++pos_;
        continue;
      }
      ++pos_;
      const char esc = peek();
      ++pos_;
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': append_unicode_escape(out); break;
        default: --pos_; fail("invalid escape");
      }
    }
  }
  unsigned parse_hex4() {
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = peek();
      ++pos_;
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else { --pos_; fail("invalid \\u escape"); }
    }
    return code;
  }
  void append_unicode_escape(std::string& out) {
    unsigned code = parse_hex4();
    if (code >= 0xd800 && code <= 0xdbff) {
      if (!consume_literal("\\u")) fail("unpaired surrogate");
      const unsigned low = parse_hex4();
      if (low < 0xdc00 || low > 0xdfff) fail("unpaired surrogate");
      code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
    } else if (code >= 0xdc00 && code <= 0xdfff) {
      fail("unpaired surrogate");
    }
    if (code < 0x80) {
      out += static_cast<char>(code);
    } else if (code < 0x800) {
      out += static_cast<char>(0xc0 | (code >> 6));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else if (code < 0x10000) {
      out += static_cast<char>(0xe0 | (code >> 12));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    } else {
      out += static_cast<char>(0xf0 | (code >> 18));
      out += static_cast<char>(0x80 | ((code >> 12) & 0x3f));
      out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
      out += static_cast<char>(0x80 | (code & 0x3f));
    }
  }
  bool digit_at(std::size_t at) const {
    return at < text_.size() && text_[at] >= '0' && text_[at] <= '9';
  }
  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (peek() == '0') {
      ++pos_;
    } else if (peek() >= '1' && peek() <= '9') {
      while (digit_at(pos_)) ++pos_;
    } else {
      fail("invalid number");
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit_at(pos_)) fail("invalid number");
      while (digit_at(pos_)) ++pos_;
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (!digit_at(pos_)) fail("invalid number");
      while (digit_at(pos_)) ++pos_;
    }
    Value value;
    value.kind = JsonValue::Kind::Number;
    value.token = text_.substr(start, pos_ - start);
    errno = 0;
    value.number = std::strtod(value.token.c_str(), nullptr);
    if (errno == ERANGE) fail("number out of range");
    return value;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace reference

/// "ok:<value>" or "error:<message>" of an accessor call.
template <typename Fn>
std::string outcome_of(Fn&& fn) {
  try {
    return "ok:" + std::to_string(fn());
  } catch (const std::invalid_argument& error) {
    return std::string("error:") + error.what();
  }
}

void expect_same_tree(const reference::Value& want, const JsonValue& got,
                      const std::string& where) {
  ASSERT_EQ(static_cast<int>(want.kind), static_cast<int>(got.kind()))
      << where;
  switch (want.kind) {
    case JsonValue::Kind::Null:
      break;
    case JsonValue::Kind::Bool:
      EXPECT_EQ(want.flag, got.as_bool()) << where;
      break;
    case JsonValue::Kind::Number: {
      // Bitwise, so -0 and the last ulp count.
      const double number = got.as_double();
      EXPECT_EQ(std::memcmp(&want.number, &number, sizeof number), 0)
          << where << ": " << want.token;
      EXPECT_EQ(outcome_of([&] { return want.as_int64(); }),
                outcome_of([&] { return got.as_int64(); }))
          << where;
      EXPECT_EQ(outcome_of([&] { return want.as_uint64(); }),
                outcome_of([&] { return got.as_uint64(); }))
          << where;
      break;
    }
    case JsonValue::Kind::String:
      EXPECT_EQ(want.text, got.as_string()) << where;
      break;
    case JsonValue::Kind::Array:
      ASSERT_EQ(want.items.size(), got.items().size()) << where;
      for (std::size_t i = 0; i < want.items.size(); ++i) {
        expect_same_tree(want.items[i], got.items()[i],
                         where + "[" + std::to_string(i) + "]");
      }
      break;
    case JsonValue::Kind::Object:
      ASSERT_EQ(want.members.size(), got.members().size()) << where;
      for (std::size_t i = 0; i < want.members.size(); ++i) {
        EXPECT_EQ(want.members[i].first, got.members()[i].first) << where;
        expect_same_tree(want.members[i].second, got.members()[i].second,
                         where + "." + want.members[i].first);
      }
      break;
  }
}

/// Parses `text` with both parsers and requires the same tree or the same
/// error text.
void expect_same_parse(const std::string& text) {
  std::string want_error;
  std::string got_error;
  reference::Value want;
  JsonValue got;
  try {
    want = reference::Parser(text).parse_document();
  } catch (const std::invalid_argument& error) {
    want_error = error.what();
  }
  try {
    got = parse_json(text);
  } catch (const std::invalid_argument& error) {
    got_error = error.what();
  }
  ASSERT_EQ(want_error, got_error) << "input: " << text;
  if (want_error.empty()) expect_same_tree(want, got, text.substr(0, 60));
}

/// A real-number token of a random shape: integers, fractions, exponents,
/// and 17-digit mantissas reaching into the subnormal and overflow ranges.
std::string random_real_token(Rng& rng) {
  switch (rng.uniform_int(0, 5)) {
    case 0:
      return std::to_string(rng.uniform_int(0, 100000));
    case 1:
      return std::to_string(rng.uniform_int(0, 999)) + "." +
             std::to_string(rng.uniform_int(0, 99999));
    case 2:
      return std::to_string(rng.uniform_int(1, 9)) + "." +
             std::to_string(rng.uniform_int(0, 999)) +
             (rng.bernoulli(0.5) ? "e" : "E") +
             (rng.bernoulli(0.5) ? "-" : "+") +
             std::to_string(rng.uniform_int(0, 12));
    case 3: {
      std::string token = rng.bernoulli(0.3) ? "-" : "";
      token += std::to_string(rng.uniform_int(1, 9)) + ".";
      for (int i = 0; i < 16; ++i) {
        token += static_cast<char>('0' + rng.uniform_int(0, 9));
      }
      return token + "e" + std::to_string(rng.uniform_int(-330, 310));
    }
    case 4:
      return "0." +
             std::string(static_cast<std::size_t>(rng.uniform_int(0, 6)),
                         '0') +
             std::to_string(rng.uniform_int(1, 999));
    default:
      return std::to_string(rng.next_u64());
  }
}

std::string random_name(Rng& rng) {
  // JSON-escaped pieces: quotes, backslashes, 2-, 3- and 4-byte UTF-8.
  static const char* const kPieces[] = {
      "split",  "work", "\\\"q\\\"",         "a\\\\b", "\\u00e9", "\\n",
      "\\t",    "\\/",  "\\ud83d\\ude00", "merge",  "\\u0041\\u20ac"};
  std::string name;
  const int pieces = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < pieces; ++i) {
    name += kPieces[rng.uniform_index(std::size(kPieces))];
  }
  return name;
}

/// One wire line shaped like a schedd request, with randomized numbers,
/// names and escapes.
std::string generated_request(Rng& rng, int index) {
  const int tasks = static_cast<int>(rng.uniform_int(1, 24));
  std::string line = "{\"id\":\"g" + std::to_string(index) +
                     "\",\"policy\":\"sa(wb=0.25)\",\"seed\":" +
                     std::to_string(rng.next_u64()) +
                     ",\"time_budget_ms\":" + random_real_token(rng) +
                     ",\"priority\":" +
                     std::to_string(rng.uniform_int(-3, 3)) +
                     ",\"topology\":\"hypercube:3\",\"comm\":{\"enabled\":" +
                     (rng.bernoulli(0.5) ? "true" : "false") +
                     ",\"sigma_us\":" + random_real_token(rng) +
                     ",\"tau_us\":" + random_real_token(rng) +
                     "},\"graph\":{\"name\":\"" + random_name(rng) +
                     "\",\"durations_us\":[";
  for (int t = 0; t < tasks; ++t) {
    line += (t == 0 ? "" : ",") + random_real_token(rng);
  }
  line += "],\"names\":[";
  for (int t = 0; t < tasks; ++t) {
    line += std::string(t == 0 ? "" : ", ") + "\"" + random_name(rng) + "\"";
  }
  line += "],\"edges\":[";
  for (int t = 1; t < tasks; ++t) {
    line += std::string(t == 1 ? "" : ",") + "[" +
            std::to_string(rng.uniform_int(0, t - 1)) + "," +
            std::to_string(t) + "," + random_real_token(rng) + "]";
  }
  return line + "],\"extra\":[null,true,{}]}}";
}

TEST(JsonParse, MatchesStrtodParserOnRequestStreams) {
  Rng rng = Rng::stream(20261017, 1);
  for (int i = 0; i < 500; ++i) expect_same_parse(generated_request(rng, i));

  std::ifstream fixture(std::string(DAGSCHED_SOURCE_DIR) +
                        "/tools/schedd_requests.jsonl");
  ASSERT_TRUE(fixture.good());
  std::string line;
  int lines = 0;
  while (std::getline(fixture, line)) {
    expect_same_parse(line);
    ++lines;
  }
  EXPECT_GE(lines, 10);
}

TEST(JsonParse, MatchesStrtodParserOnEveryPrefixAndBadInput) {
  Rng rng = Rng::stream(20261017, 2);
  const std::string request = generated_request(rng, 0);
  for (std::size_t n = 0; n <= request.size(); ++n) {
    expect_same_parse(request.substr(0, n));
  }
  const char* const bad[] = {
      "\"\\x\"",         "\"\\u12\"",       "\"\\u12g4\"",
      "\"\\ud800\"",     "\"\\ud800x\"",    "\"\\ud800\\u0041\"",
      "\"\\udc00\"",     "\"\\ud83d\\ude00\"", "\"a\\",
      "\"tab\there\"",   "\"\\u0000\"",     "[1,]",
      "{\"a\" 1}",       "{\"a\":1 \"b\"}", "{1:2}",
      "tru",             "nulls",           "[01]",
      "-",               "1.",              ".5",
      "1e",              "1e+",             "+1",
      "[1 2]",           "{\"a\":[}",       "  ",
  };
  for (const char* text : bad) expect_same_parse(text);
  // 64 levels parse, 65 hit the depth cap at the same offset.
  expect_same_parse(std::string(64, '[') + std::string(64, ']'));
  expect_same_parse(std::string(65, '[') + std::string(65, ']'));
  expect_same_parse(std::string(66, '[') + std::string(66, ']'));
  expect_same_parse(std::string(65, '{'));
}

TEST(JsonParse, MatchesStrtodParserOnEdgeNumbers) {
  const char* const tokens[] = {
      "0",
      "-0",
      "1e308",
      "1.7976931348623157e308",
      "1.7976931348623158e308",
      "1.7976931348623159e308",
      "1e-400",
      "4.9e-324",
      "1e-310",
      "2.2250738585072011e-308",
      "2.2250738585072014e-308",
      "9223372036854775807",
      "9223372036854775808",
      "-9223372036854775808",
      "-9223372036854775809",
      "18446744073709551615",
      "18446744073709551616",
      "9007199254740993",
      "01",
      "1.",
      "-",
      "1.5",
      "1e5",
      "-1",
      "0.1e-1",
  };
  for (const char* token : tokens) {
    expect_same_parse(token);
    expect_same_parse(std::string("[") + token + "]");
    expect_same_parse(std::string("{\"n\": ") + token + " }");
  }
}

// The parser's per-depth buffers outlive a parse; a parse that throws
// half way through a container must leave nothing behind for the next.
TEST(JsonParse, FailedParseLeavesNoElementsForTheNext) {
  EXPECT_THROW(parse_json("[[1,2,{\"a\":[3,4"), std::invalid_argument);
  EXPECT_THROW(parse_json("{\"k\":[5,6],\"j\":{\"x\":7,"),
               std::invalid_argument);
  const JsonValue doc = parse_json("[[8],{\"b\":[9]}]");
  ASSERT_EQ(doc.items().size(), 2u);
  ASSERT_EQ(doc.items()[0].items().size(), 1u);
  EXPECT_EQ(doc.items()[0].items()[0].as_int64(), 8);
  ASSERT_EQ(doc.items()[1].members().size(), 1u);
  EXPECT_EQ(doc.items()[1].find("b")->items().size(), 1u);
  EXPECT_EQ(doc.items()[1].find("b")->items()[0].as_int64(), 9);
}

TEST(JsonWriterStyles, CompactIsSingleLinePrettyUnchanged) {
  const auto build = [](JsonWriter& writer) {
    writer.begin_object();
    writer.key("a");
    writer.value(1);
    writer.key("b");
    writer.begin_array();
    writer.value("x");
    writer.end_array();
    writer.end_object();
  };
  JsonWriter compact(3, JsonWriter::Style::Compact);
  build(compact);
  EXPECT_EQ(compact.str(), "{\"a\":1,\"b\":[\"x\"]}");
  JsonWriter pretty(3);
  build(pretty);
  EXPECT_EQ(pretty.str(), "{\n  \"a\": 1,\n  \"b\": [\n    \"x\"\n  ]\n}\n");
}

}  // namespace
}  // namespace dagsched
