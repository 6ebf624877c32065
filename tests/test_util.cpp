// Tests for utility primitives: stats, rng, units, strings, table, errors.
#include <gtest/gtest.h>

#include <cmath>

#include "deisa/util/error.hpp"
#include "deisa/util/rng.hpp"
#include "deisa/util/stats.hpp"
#include "deisa/util/strings.hpp"
#include "deisa/util/table.hpp"
#include "deisa/util/units.hpp"

namespace util = deisa::util;

namespace {

TEST(RunningStats, MeanAndStddev) {
  util::RunningStats rs;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) rs.add(x);
  EXPECT_EQ(rs.count(), 8u);
  EXPECT_DOUBLE_EQ(rs.mean(), 5.0);
  EXPECT_NEAR(rs.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(RunningStats, MergeMatchesCombined) {
  util::RunningStats a, b, all;
  for (int i = 0; i < 50; ++i) {
    const double x = std::sin(i * 0.7) * 10 + i;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, SingleSampleHasZeroVariance) {
  util::RunningStats rs;
  rs.add(3.14);
  EXPECT_DOUBLE_EQ(rs.variance(), 0.0);
  EXPECT_DOUBLE_EQ(rs.mean(), 3.14);
}

TEST(Percentile, InterpolatesLinearly) {
  std::vector<double> v{1, 2, 3, 4, 5};
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.5), 3.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.25), 2.0);
}

TEST(Percentile, EmptyReturnsZero) {
  EXPECT_DOUBLE_EQ(util::percentile({}, 0.5), 0.0);
  EXPECT_DOUBLE_EQ(util::percentile({}, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(util::percentile({}, 1.0), 0.0);
}

TEST(Percentile, SingleSampleIsThatSample) {
  EXPECT_DOUBLE_EQ(util::percentile({7.5}, 0.0), 7.5);
  EXPECT_DOUBLE_EQ(util::percentile({7.5}, 0.5), 7.5);
  EXPECT_DOUBLE_EQ(util::percentile({7.5}, 1.0), 7.5);
}

TEST(Percentile, ClampsQuantileOutOfRange) {
  std::vector<double> v{1, 2, 3};
  EXPECT_DOUBLE_EQ(util::percentile(v, -0.5), 1.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, 1.5), 3.0);
  EXPECT_DOUBLE_EQ(util::percentile(v, std::nan("")), 1.0);
}

TEST(Percentile, ExactEndpointsNoInterpolationArtifacts) {
  // q = 1 must return max exactly (no lo+1 read past the end, no
  // 0-weight interpolation rounding).
  std::vector<double> v{-3.0, 0.0, 1e18};
  EXPECT_DOUBLE_EQ(util::percentile(v, 1.0), 1e18);
  EXPECT_DOUBLE_EQ(util::percentile(v, 0.0), -3.0);
}

TEST(Summarize, FullSummary) {
  const auto s = util::summarize({4.0, 1.0, 3.0, 2.0});
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.median, 2.5);
}

TEST(Rng, DeterministicForSameSeed) {
  util::Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  util::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next_u64() == b.next_u64()) ++same;
  EXPECT_LT(same, 3);
}

TEST(Rng, UniformInRange) {
  util::Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(2.0, 5.0);
    EXPECT_GE(u, 2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximatelyCorrect) {
  util::Rng r(42);
  util::RunningStats rs;
  for (int i = 0; i < 20000; ++i) rs.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(rs.mean(), 10.0, 0.1);
  EXPECT_NEAR(rs.stddev(), 2.0, 0.1);
}

TEST(Rng, LognormalMeanIsLinearSpaceMean) {
  util::Rng r(42);
  util::RunningStats rs;
  for (int i = 0; i < 50000; ++i) rs.add(r.lognormal_mean(5.0, 0.3));
  EXPECT_NEAR(rs.mean(), 5.0, 0.1);
}

TEST(Rng, SplitStreamsAreIndependent) {
  util::Rng a(99);
  util::Rng child = a.split();
  // The child stream must not replay the parent stream.
  util::Rng parent_copy(99);
  (void)parent_copy.next_u64();  // advance past split draw
  EXPECT_NE(child.next_u64(), parent_copy.next_u64());
}

TEST(Units, FormatBytes) {
  EXPECT_EQ(util::format_bytes(512), "512 B");
  EXPECT_EQ(util::format_bytes(128 * util::kMiB), "128.00 MiB");
  EXPECT_EQ(util::format_bytes(8 * util::kGiB), "8.00 GiB");
}

TEST(Units, MibPerSecond) {
  EXPECT_DOUBLE_EQ(util::mib_per_second(256 * util::kMiB, 2.0), 128.0);
  EXPECT_DOUBLE_EQ(util::mib_per_second(100, 0.0), 0.0);
}

TEST(Strings, SplitAndTrim) {
  EXPECT_EQ(util::split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(util::trim("  hi \t\n"), "hi");
}

TEST(Table, AlignsColumns) {
  util::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("| name  | value |"), std::string::npos);
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos);
}

TEST(Table, RowWidthMismatchThrows) {
  util::Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), util::Error);
}

TEST(Error, CheckMacroThrowsWithContext) {
  try {
    DEISA_CHECK(1 == 2, "custom message " << 42);
    FAIL() << "expected throw";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("custom message 42"), std::string::npos);
    EXPECT_NE(what.find("1 == 2"), std::string::npos);
  }
}

TEST(Error, AssertMacroThrowsLogicError) {
  EXPECT_THROW(DEISA_ASSERT(false, "invariant"), util::LogicError);
}

}  // namespace
