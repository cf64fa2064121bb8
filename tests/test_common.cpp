// Unit tests for the common substrate: RNG, distributions, statistics,
// CDFs, table formatting and flags.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/cdf.hpp"
#include "common/flags.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "common/units.hpp"

namespace swallow::common {
namespace {

TEST(Units, NetworkSpeedsAreDecimalBits) {
  EXPECT_DOUBLE_EQ(mbps(100), 100e6 / 8.0);
  EXPECT_DOUBLE_EQ(gbps(10), 10e9 / 8.0);
}

TEST(Units, CompressionSpeedsAreBinaryBytes) {
  EXPECT_DOUBLE_EQ(mb_per_s(785), 785.0 * 1024 * 1024);
}

TEST(Units, SizeLiterals) {
  EXPECT_DOUBLE_EQ(kGB, 1024.0 * 1024 * 1024);
  EXPECT_DOUBLE_EQ(ms(10), 0.010);
}

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i)
    if (a.next_u64() == b.next_u64()) ++equal;
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformMeanIsHalf) {
  Rng rng(7);
  std::vector<double> v;
  for (int i = 0; i < 100000; ++i) v.push_back(rng.uniform());
  EXPECT_NEAR(mean(v), 0.5, 0.01);
}

TEST(Rng, UniformIntCoversRangeInclusive) {
  Rng rng(9);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(3, 7);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 7u);
    saw_lo |= v == 3;
    saw_hi |= v == 7;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntRejectsBadRange) {
  Rng rng(1);
  EXPECT_THROW(rng.uniform_int(5, 4), std::invalid_argument);
}

TEST(Rng, ExponentialMeanMatchesRate) {
  Rng rng(11);
  std::vector<double> v;
  for (int i = 0; i < 100000; ++i) v.push_back(rng.exponential(4.0));
  EXPECT_NEAR(mean(v), 0.25, 0.01);
}

TEST(Rng, BoundedParetoStaysInBounds) {
  Rng rng(17);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.bounded_pareto(1e3, 1e9, 0.3);
    EXPECT_GE(v, 1e3);
    EXPECT_LE(v, 1e9 * (1 + 1e-9));
  }
}

TEST(Rng, BoundedParetoIsHeavyTailedForSmallAlpha) {
  Rng rng(19);
  // With alpha < 1 a small fraction of samples carries most of the mass.
  std::vector<double> v;
  double total = 0;
  for (int i = 0; i < 20000; ++i) {
    v.push_back(rng.bounded_pareto(1e3, 1e9, 0.2));
    total += v.back();
  }
  std::sort(v.begin(), v.end());
  double top_decile = 0;
  for (std::size_t i = v.size() * 9 / 10; i < v.size(); ++i) top_decile += v[i];
  EXPECT_GT(top_decile / total, 0.7);
}

TEST(Rng, NormalMoments) {
  Rng rng(23);
  std::vector<double> v;
  for (int i = 0; i < 200000; ++i) v.push_back(rng.normal());
  const double m = mean(v);
  double squares = 0;
  for (const double x : v) squares += (x - m) * (x - m);
  EXPECT_NEAR(m, 0.0, 0.01);
  EXPECT_NEAR(std::sqrt(squares / static_cast<double>(v.size() - 1)), 1.0,
              0.01);
}

TEST(Rng, LognormalMedian) {
  Rng rng(29);
  std::vector<double> v;
  for (int i = 0; i < 50000; ++i) v.push_back(rng.lognormal(1.0, 0.5));
  EXPECT_NEAR(percentile(v, 0.5), std::exp(1.0), 0.05);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(31);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(hits / 100000.0, 0.3, 0.01);
}

TEST(Rng, ShufflePreservesElements) {
  Rng rng(37);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(Zipf, RanksWithinRange) {
  Rng rng(41);
  Zipf zipf(100, 1.1);
  for (int i = 0; i < 10000; ++i) {
    const auto r = zipf.sample(rng);
    EXPECT_GE(r, 1u);
    EXPECT_LE(r, 100u);
  }
}

TEST(Zipf, RankOneIsMostFrequent) {
  Rng rng(43);
  Zipf zipf(50, 1.2);
  std::vector<int> counts(51, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.sample(rng)];
  EXPECT_GT(counts[1], counts[2]);
  EXPECT_GT(counts[2], counts[10]);
}

TEST(Zipf, RejectsEmpty) { EXPECT_THROW(Zipf(0, 1.0), std::invalid_argument); }

TEST(Percentile, InterpolatesLinearly) {
  const std::vector<double> v{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10);
  EXPECT_DOUBLE_EQ(percentile(v, 1.0), 40);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 25);
}

TEST(Percentile, RejectsEmptyAndBadP) {
  EXPECT_THROW(percentile({}, 0.5), std::invalid_argument);
  EXPECT_THROW(percentile({1.0}, 1.5), std::invalid_argument);
}

TEST(Cdf, AtAndQuantile) {
  Cdf cdf({4.0, 1.0, 3.0, 2.0});
  EXPECT_DOUBLE_EQ(cdf.at(0.5), 0.0);
  EXPECT_DOUBLE_EQ(cdf.at(2.0), 0.5);
  EXPECT_DOUBLE_EQ(cdf.at(10.0), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(0.25), 1.0);
  EXPECT_DOUBLE_EQ(cdf.quantile(1.0), 4.0);
  EXPECT_DOUBLE_EQ(cdf.min(), 1.0);
  EXPECT_DOUBLE_EQ(cdf.max(), 4.0);
  EXPECT_DOUBLE_EQ(cdf.mean(), 2.5);
}

TEST(Cdf, MassFractionAbove) {
  Cdf cdf({1.0, 1.0, 8.0});
  EXPECT_NEAR(cdf.mass_fraction_above(2.0), 0.8, 1e-12);
  EXPECT_NEAR(cdf.mass_fraction_above(0.0), 1.0, 1e-12);
  EXPECT_NEAR(cdf.mass_fraction_above(100.0), 0.0, 1e-12);
}

TEST(Cdf, IncrementalAddMatchesConstructor) {
  Cdf a({3.0, 1.0, 2.0});
  Cdf b;
  b.add(3.0);
  b.add(1.0);
  b.add(2.0);
  b.finalize();
  EXPECT_DOUBLE_EQ(a.quantile(0.5), b.quantile(0.5));
}

TEST(Cdf, PointsAreMonotone) {
  Cdf cdf({5.0, 2.0, 9.0, 1.0, 7.0});
  const auto pts = cdf.points(5);
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 1; i < pts.size(); ++i) {
    EXPECT_LE(pts[i - 1].first, pts[i].first);
    EXPECT_LT(pts[i - 1].second, pts[i].second);
  }
  EXPECT_DOUBLE_EQ(pts.back().second, 1.0);
}

TEST(Cdf, EmptyThrows) {
  Cdf cdf;
  EXPECT_THROW(cdf.at(1.0), std::logic_error);
  EXPECT_THROW(cdf.quantile(0.5), std::logic_error);
}

TEST(Table, AlignsColumnsAndSeparators) {
  Table t({"Name", "Value"});
  t.add_row({"x", "1"});
  t.add_row({"longer", "22"});
  std::ostringstream oss;
  t.print(oss);
  const std::string out = oss.str();
  EXPECT_NE(out.find("| Name   | Value |"), std::string::npos);
  EXPECT_NE(out.find("| longer | 22    |"), std::string::npos);
  EXPECT_NE(out.find("|--------|-------|"), std::string::npos);
}

TEST(Table, RejectsMismatchedRow) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(TableFormatters, Render) {
  EXPECT_EQ(fmt_double(3.14159, 2), "3.14");
  EXPECT_EQ(fmt_percent(0.4841), "48.41%");
  EXPECT_EQ(fmt_speedup(1.47), "1.47x");
  EXPECT_EQ(fmt_int(79913), "79,913");
  EXPECT_EQ(fmt_int(1234567), "1,234,567");
  EXPECT_EQ(fmt_bytes(1536), "1.50 KB");
  EXPECT_EQ(fmt_bytes(2.5 * kGB), "2.50 GB");
}

TEST(Flags, ParsesKeysAndDefaults) {
  const char* argv[] = {"prog", "--alpha=0.5", "--name=test", "--verbose"};
  Flags flags(4, argv);
  EXPECT_TRUE(flags.has("alpha"));
  EXPECT_DOUBLE_EQ(flags.get_double("alpha", 0.0), 0.5);
  EXPECT_EQ(flags.get("name", ""), "test");
  EXPECT_TRUE(flags.get_bool("verbose", false));
  EXPECT_EQ(flags.get_int("missing", 42), 42);
}

TEST(Flags, RejectsPositional) {
  const char* argv[] = {"prog", "positional"};
  EXPECT_THROW(Flags(2, argv), std::invalid_argument);
}

TEST(Logging, LevelGatesMessages) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  // Below-threshold logging must be a no-op (no way to capture stderr here;
  // this asserts the level round-trips and the call is safe).
  log_info("suppressed");
  log_warn("suppressed");
  log_error("visible but harmless in test output");
  set_log_level(before);
}

}  // namespace
}  // namespace swallow::common
