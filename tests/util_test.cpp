// Unit tests for the util module: checks, RNG, strings, CSV, tables, env.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <unordered_set>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace dstee {
namespace {

TEST(Check, PassesOnTrue) { EXPECT_NO_THROW(util::check(true, "fine")); }

TEST(Check, ThrowsOnFalseWithMessage) {
  try {
    util::check(false, "the message");
    FAIL() << "check(false) must throw";
  } catch (const util::CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("the message"), std::string::npos);
  }
}

TEST(Check, FailAlwaysThrows) {
  EXPECT_THROW(util::fail("boom"), util::CheckError);
}

TEST(Check, CheckExprIncludesExpression) {
  try {
    util::check_expr(false, "a < b", "ordering violated");
    FAIL();
  } catch (const util::CheckError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("a < b"), std::string::npos);
    EXPECT_NE(what.find("ordering violated"), std::string::npos);
  }
}

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_LT(same, 2);
}

TEST(Rng, ForkIsDeterministicAndIndependent) {
  util::Rng base(7);
  util::Rng f1 = base.fork("stream-a");
  util::Rng f2 = base.fork("stream-a");
  util::Rng f3 = base.fork("stream-b");
  EXPECT_EQ(f1.next_u64(), f2.next_u64());
  util::Rng f1b = base.fork("stream-a");
  EXPECT_NE(f1b.next_u64(), f3.next_u64());
}

TEST(Rng, ForkDoesNotAdvanceParent) {
  util::Rng a(9), b(9);
  (void)a.fork("x");
  (void)a.fork("y");
  EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  util::Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  util::Rng rng(5);
  for (int i = 0; i < 500; ++i) {
    const double u = rng.uniform(-3.0, 2.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 2.0);
  }
}

TEST(Rng, UniformIndexCoversRangeWithoutBias) {
  util::Rng rng(17);
  std::vector<int> counts(10, 0);
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) ++counts[rng.uniform_index(10)];
  for (const int c : counts) {
    EXPECT_NEAR(c, draws / 10, draws / 10 * 0.2);
  }
}

TEST(Rng, UniformIndexRejectsZero) {
  util::Rng rng(1);
  EXPECT_THROW(rng.uniform_index(0), util::CheckError);
}

TEST(Rng, NormalMomentsApproximatelyStandard) {
  util::Rng rng(23);
  double sum = 0.0, sum_sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.05);
  EXPECT_NEAR(sum_sq / n, 1.0, 0.05);
}

TEST(Rng, NormalWithParamsShiftsAndScales) {
  util::Rng rng(29);
  double sum = 0.0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 0.1);
  EXPECT_NEAR(sum / n, 5.0, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  util::Rng rng(31);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.bernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, PermutationIsAPermutation) {
  util::Rng rng(37);
  const auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, SampleWithoutReplacementDistinct) {
  util::Rng rng(41);
  const auto sample = rng.sample_without_replacement(50, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 20u);
  for (const auto s : sample) EXPECT_LT(s, 50u);
}

TEST(Rng, SampleWholePopulation) {
  util::Rng rng(43);
  const auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 10u);
}

// Floyd's algorithm with a hash set for the chosen items: the sampler's
// earlier form, kept as the reference its bitmap must reproduce draw for
// draw.
std::vector<std::size_t> floyd_reference(util::Rng& rng, std::size_t n,
                                         std::size_t k) {
  std::unordered_set<std::size_t> chosen;
  std::vector<std::size_t> out;
  out.reserve(k);
  for (std::size_t j = n - k; j < n; ++j) {
    const std::size_t t = static_cast<std::size_t>(rng.uniform_index(j + 1));
    if (chosen.insert(t).second) {
      out.push_back(t);
    } else {
      chosen.insert(j);
      out.push_back(j);
    }
  }
  return out;
}

TEST(Rng, SampleWithoutReplacementMatchesFloydReference) {
  const std::vector<std::pair<std::size_t, std::size_t>> cases{
      {0, 0},     {1, 0},       {1, 1},         {2, 1},      {2, 2},
      {63, 62},   {64, 0},      {64, 63},       {64, 64},    {65, 64},
      {100, 50},  {1000, 999},  {1000, 1000},   {4099, 410}, {4099, 4098},
      {147456, 8200},           {262144, 26214}};
  for (const std::uint64_t seed : {1ULL, 2ULL, 13ULL, 17ULL, 1234567ULL}) {
    for (const auto& [n, k] : cases) {
      util::Rng rng(seed);
      util::Rng ref(seed);
      EXPECT_EQ(rng.sample_without_replacement(n, k),
                floyd_reference(ref, n, k))
          << "seed " << seed << ", n " << n << ", k " << k;
      // Same number of draws: the streams continue in step.
      EXPECT_EQ(rng.next_u64(), ref.next_u64());
    }
  }
}

TEST(Rng, SampleRejectsOversizedRequest) {
  util::Rng rng(47);
  EXPECT_THROW(rng.sample_without_replacement(5, 6), util::CheckError);
}

TEST(Rng, ShuffleKeepsElements) {
  util::Rng rng(53);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7};
  auto copy = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, copy);
}

TEST(StringUtil, ToLower) { EXPECT_EQ(util::to_lower("AbC-D"), "abc-d"); }

TEST(StringUtil, SplitPreservesEmptyFields) {
  const auto parts = util::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(StringUtil, Trim) {
  EXPECT_EQ(util::trim("  x y  "), "x y");
  EXPECT_EQ(util::trim("\t\n"), "");
  EXPECT_EQ(util::trim(""), "");
}

TEST(StringUtil, FormatFixed) {
  EXPECT_EQ(util::format_fixed(3.14159, 2), "3.14");
  EXPECT_EQ(util::format_fixed(93.8, 2), "93.80");
}

TEST(StringUtil, FormatMultiple) {
  EXPECT_EQ(util::format_multiple(0.23, 2), "0.23x");
}

TEST(StringUtil, FormatMeanStd) {
  EXPECT_EQ(util::format_mean_std(93.84, 0.09, 2), "93.84 +/- 0.09");
}

TEST(StringUtil, StartsWith) {
  EXPECT_TRUE(util::starts_with("dst-ee", "dst"));
  EXPECT_FALSE(util::starts_with("dst", "dst-ee"));
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(util::csv_escape("plain"), "plain");
  EXPECT_EQ(util::csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(util::csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

// Each test uses its own scratch dir: ctest -j runs every TEST as a
// separate process in the same working directory.
TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "test_csv_out_rows/rows.csv";
  {
    util::CsvWriter w(path, {"method", "acc"});
    w.write_row({"DST-EE", "93.84"});
    w.write_row({"RigL", "93.38"});
    EXPECT_EQ(w.rows_written(), 2u);
    w.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "method,acc");
  std::getline(in, line);
  EXPECT_EQ(line, "DST-EE,93.84");
  std::filesystem::remove_all("test_csv_out_rows");
}

TEST(Csv, RejectsWrongWidth) {
  util::CsvWriter w("test_csv_out_width/w.csv", {"a", "b"});
  EXPECT_THROW(w.write_row({"only-one"}), util::CheckError);
  std::filesystem::remove_all("test_csv_out_width");
}

TEST(Table, RendersAlignedCells) {
  util::Table t({"Method", "Acc"});
  t.add_row({"RigL", "93.38"});
  t.add_separator();
  t.add_row({"DST-EE", "93.84"});
  const std::string out = t.render();
  EXPECT_NE(out.find("| Method "), std::string::npos);
  EXPECT_NE(out.find("| DST-EE "), std::string::npos);
  // separator between the two data rows → at least 4 horizontal lines
  std::size_t lines = 0, pos = 0;
  while ((pos = out.find("+--", pos)) != std::string::npos) {
    ++lines;
    pos += 3;
  }
  EXPECT_GE(lines, 4u);
}

TEST(Table, RejectsMismatchedRow) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), util::CheckError);
}

TEST(Env, FallbacksWhenUnset) {
  ::unsetenv("DSTEE_TEST_UNSET_VAR");
  EXPECT_EQ(util::env_string("DSTEE_TEST_UNSET_VAR", "dflt"), "dflt");
  EXPECT_EQ(util::env_int("DSTEE_TEST_UNSET_VAR", 12), 12);
  EXPECT_DOUBLE_EQ(util::env_double("DSTEE_TEST_UNSET_VAR", 2.5), 2.5);
}

TEST(Env, ReadsSetValues) {
  ::setenv("DSTEE_TEST_VAR", "41", 1);
  EXPECT_EQ(util::env_int("DSTEE_TEST_VAR", 0), 41);
  ::setenv("DSTEE_TEST_VAR", "2.75", 1);
  EXPECT_DOUBLE_EQ(util::env_double("DSTEE_TEST_VAR", 0.0), 2.75);
  ::unsetenv("DSTEE_TEST_VAR");
}

TEST(Env, ThrowsOnMalformedInteger) {
  ::setenv("DSTEE_TEST_VAR", "not-a-number", 1);
  EXPECT_THROW(util::env_int("DSTEE_TEST_VAR", 0), util::CheckError);
  ::unsetenv("DSTEE_TEST_VAR");
}

TEST(Timer, MeasuresNonNegativeTime) {
  util::Timer t;
  EXPECT_GE(t.seconds(), 0.0);
  t.reset();
  EXPECT_GE(t.millis(), 0.0);
}

}  // namespace
}  // namespace dstee
