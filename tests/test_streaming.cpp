// Tests for the streaming field-statistics model: exact merge semantics
// (property: merged chunk stats == whole-buffer stats, any split), the
// distributed monitoring graph over external tasks, and histogramming.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/ml/streaming.hpp"
#include "deisa/util/rng.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

std::vector<double> random_samples(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(n);
  for (double& x : v) x = rng.normal(50.0, 15.0);
  return v;
}

TEST(FieldStats, BasicMoments) {
  const std::vector<double> v{1, 2, 3, 4, 5, 6};
  const auto s = ml::FieldStats::of(v, 4, 0, 8);
  EXPECT_EQ(s.count, 6);
  EXPECT_DOUBLE_EQ(s.min, 1);
  EXPECT_DOUBLE_EQ(s.max, 6);
  EXPECT_DOUBLE_EQ(s.mean, 3.5);
  EXPECT_NEAR(s.variance(), 35.0 / 12.0, 1e-12);  // population variance
  // Histogram bins of width 2 over [0,8): {1}, {2,3}, {4,5}, {6}.
  EXPECT_EQ(s.histogram,
            (std::vector<std::uint64_t>{1, 2, 2, 1}));
}

TEST(FieldStats, OutOfRangeSamplesClampToEdgeBins) {
  const std::vector<double> v{-10, 0.25, 99};
  const auto s = ml::FieldStats::of(v, 2, 0, 1);
  EXPECT_EQ(s.histogram[0], 2u);  // -10 clamps down, 0.25 in bin 0
  EXPECT_EQ(s.histogram[1], 1u);  // 99 clamps up
  // At the monitor's default layout (16 bins over [0, 100)), quotients
  // beyond int64's range clamp too, and NaN counts in bin 0.
  const double inf = std::numeric_limits<double>::infinity();
  for (const double x : {1e20, 1e300, inf}) {
    const std::vector<double> one{x};
    EXPECT_EQ(ml::FieldStats::of(one, 16, 0, 100).histogram[15], 1u) << x;
  }
  for (const double x : {-1e20, -1e300, -inf, std::nan("")}) {
    const std::vector<double> one{x};
    EXPECT_EQ(ml::FieldStats::of(one, 16, 0, 100).histogram[0], 1u) << x;
  }
}

// Brute-force summary of a buffer: count, min, max and the histogram the
// way the monitor defines them, mean and m2 by a two-pass sum in long
// double.
struct Oracle {
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  long double mean = 0.0L;
  long double m2 = 0.0L;
  std::vector<std::uint64_t> histogram;
};

Oracle brute_force(const std::vector<double>& v, std::size_t bins, double lo,
                   double hi) {
  Oracle o;
  o.histogram.assign(bins, 0);
  if (v.empty()) return o;
  const double width = (hi - lo) / static_cast<double>(bins);
  o.min = v[0];
  o.max = v[0];
  long double sum = 0.0L;
  for (const double x : v) {
    ++o.count;
    o.min = std::min(o.min, x);
    o.max = std::max(o.max, x);
    sum += x;
    const double q = (x - lo) / width;
    std::size_t bin = 0;
    if (q >= static_cast<double>(bins)) {
      bin = bins - 1;
    } else if (q >= 0.0) {
      bin = static_cast<std::size_t>(q);
    }
    ++o.histogram[bin];
  }
  const long double n = static_cast<long double>(v.size());
  o.mean = sum / n;
  long double dev = 0.0L;
  for (const double x : v) {
    const long double d = x - o.mean;
    dev += d;
    o.m2 += d * d;
  }
  o.m2 -= dev * dev / n;
  o.mean += dev / n;
  return o;
}

struct Layout {
  std::size_t bins;
  double lo;
  double hi;
};

TEST(FieldStats, ChunkedKernelMatchesBruteForce) {
  constexpr std::size_t c = ml::FieldStats::kChunk;
  const auto seeded = [](std::size_t n, double offset) {
    Rng rng(n + 1);
    std::vector<double> v(n);
    for (double& x : v) x = offset + rng.uniform(-10.0, 110.0);
    return v;
  };
  // The monitor's default layout, and two where binning by a multiply
  // with 1 / width puts some edge sample in another bin than the
  // division does.
  for (const Layout& l : {Layout{16, 0.0, 100.0}, Layout{10, 0.0, 100.0},
                          Layout{16, -3.7, 101.3}}) {
    // Every interior bin edge and the double just below it.
    const double width = (l.hi - l.lo) / static_cast<double>(l.bins);
    std::vector<double> edges;
    for (std::size_t k = 1; k < l.bins; ++k) {
      const double edge = l.lo + static_cast<double>(k) * width;
      edges.push_back(edge);
      edges.push_back(
          std::nextafter(edge, -std::numeric_limits<double>::infinity()));
    }
    const auto tiled_edges = [&](std::size_t n) {
      std::vector<double> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = edges[i % edges.size()];
      return v;
    };
    for (const std::size_t n : {std::size_t{0}, std::size_t{1}, c - 1, c,
                                c + 1, 3 * c + 7, std::size_t{524288}}) {
      const std::vector<std::pair<std::string, std::vector<double>>> inputs{
          {"seeded", seeded(n, 0.0)},
          {"edges", tiled_edges(n)},
          {"constant", std::vector<double>(n, 0.1)},
          {"offset 1e9", seeded(n, 1e9)}};
      for (const auto& [name, v] : inputs) {
        SCOPED_TRACE(name + ", " + std::to_string(n) + " samples, " +
                     std::to_string(l.bins) + " bins from " +
                     std::to_string(l.lo));
        const auto got = ml::FieldStats::of(v, l.bins, l.lo, l.hi);
        const Oracle want = brute_force(v, l.bins, l.lo, l.hi);
        EXPECT_EQ(got.count, want.count);
        EXPECT_EQ(got.min, want.min);
        EXPECT_EQ(got.max, want.max);
        EXPECT_EQ(got.histogram, want.histogram);
        EXPECT_LE(std::abs(got.mean - want.mean),
                  1e-12L * std::abs(want.mean));
        EXPECT_LE(std::abs(got.m2 - want.m2), 1e-12L * std::abs(want.m2));
        if (name == "constant") {
          EXPECT_EQ(got.m2, 0.0);
        }
      }
    }
  }
}

class StatsMergeSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(StatsMergeSplit, MergeEqualsWholeBufferStats) {
  // Property: splitting a buffer at ANY point and merging the two chunk
  // summaries reproduces the whole-buffer summary exactly.
  const auto v = random_samples(200, 42);
  const std::size_t split = GetParam();
  const auto whole = ml::FieldStats::of(v, 8, 0, 100);
  const auto a = ml::FieldStats::of(
      std::span<const double>(v.data(), split), 8, 0, 100);
  const auto b = ml::FieldStats::of(
      std::span<const double>(v.data() + split, v.size() - split), 8, 0, 100);
  const auto merged = ml::FieldStats::merged(a, b);
  EXPECT_EQ(merged.count, whole.count);
  EXPECT_DOUBLE_EQ(merged.min, whole.min);
  EXPECT_DOUBLE_EQ(merged.max, whole.max);
  EXPECT_NEAR(merged.mean, whole.mean, 1e-12);
  EXPECT_NEAR(merged.m2, whole.m2, 1e-7);
  EXPECT_EQ(merged.histogram, whole.histogram);
}

INSTANTIATE_TEST_SUITE_P(Splits, StatsMergeSplit,
                         ::testing::Values(0u, 1u, 50u, 100u, 199u, 200u));

TEST(FieldStats, MergeIsAssociative) {
  const auto v = random_samples(99, 7);
  const auto a = ml::FieldStats::of({v.data(), 33}, 4, 0, 100);
  const auto b = ml::FieldStats::of({v.data() + 33, 33}, 4, 0, 100);
  const auto c = ml::FieldStats::of({v.data() + 66, 33}, 4, 0, 100);
  const auto left = ml::FieldStats::merged(ml::FieldStats::merged(a, b), c);
  const auto right = ml::FieldStats::merged(a, ml::FieldStats::merged(b, c));
  EXPECT_EQ(left.count, right.count);
  EXPECT_NEAR(left.m2, right.m2, 1e-7);
  EXPECT_EQ(left.histogram, right.histogram);
}

TEST(FieldStats, MergeLayoutMismatchThrows) {
  const auto a = ml::FieldStats::of({}, 4, 0, 1);
  auto b = ml::FieldStats::of({}, 8, 0, 1);
  // Empty summaries short-circuit; force counts to exercise the check.
  auto a2 = a;
  a2.count = 1;
  b.count = 1;
  EXPECT_THROW((void)ml::FieldStats::merged(a2, b), deisa::util::Error);
}

// ---- distributed monitoring graph ----

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 3) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn);
    rt->start();
    client = &rt->make_client(1);
  }
};

arr::NDArray block_of(std::int64_t t, std::int64_t i, const arr::Box& box) {
  arr::Index shape(box.ndim());
  for (std::size_t d = 0; d < shape.size(); ++d) shape[d] = box.extent(d);
  arr::NDArray blk(shape);
  Rng rng(static_cast<std::uint64_t>(t * 100 + i));
  for (double& x : blk.flat()) x = rng.uniform(0.0, 100.0) + double(t);
  return blk;
}

exec::Co<void> monitor_flow(TestCluster& tc, std::vector<ml::FieldStats>& out) {
  // 3 steps of 6x10 chunked (1,6,5): 2 chunks/step -> merge tree depth 1;
  // then a 5-chunk layout exercises the odd-carry path.
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "field", ix(3, 6, 10), ix(1, 6, 5));
  ml::MonitorOptions opts;
  opts.bins = 8;
  opts.hist_lo = 0;
  opts.hist_hi = 110;
  ml::InSituFieldMonitor monitor(*tc.client, opts);
  ml::ExternalArrayProvider provider(da);
  const ml::MonitorFit fit = co_await monitor.submit(provider);
  EXPECT_EQ(fit.step_keys.size(), 3u);

  for (std::int64_t lin = 0; lin < da.grid().num_chunks(); ++lin) {
    const arr::Index c = da.grid().coord_of(lin);
    arr::NDArray blk = block_of(c[0], c[2], da.grid().box_of(c));
    const std::uint64_t b = blk.bytes();
    co_await tc.client->scatter(da.key_of(c),
                                dts::Data::make<arr::NDArray>(std::move(blk), b),
                                da.worker_of(c), true);
  }
  out = co_await monitor.collect(fit);
  co_await tc.rt->shutdown();
}

TEST(Monitor, DistributedStatsMatchLocalReference) {
  TestCluster tc(3);
  std::vector<ml::FieldStats> stats;
  tc.eng.spawn(monitor_flow(tc, stats));
  tc.eng.run();
  ASSERT_EQ(stats.size(), 3u);

  arr::ChunkGrid grid(ix(3, 6, 10), ix(1, 6, 5));
  for (std::int64_t t = 0; t < 3; ++t) {
    // Local reference over the same blocks.
    std::vector<double> all;
    for (std::int64_t i = 0; i < 2; ++i) {
      const arr::NDArray blk = block_of(t, i, grid.box_of(ix(t, 0, i)));
      all.insert(all.end(), blk.flat().begin(), blk.flat().end());
    }
    const auto ref = ml::FieldStats::of(all, 8, 0, 110);
    const auto& got = stats[static_cast<std::size_t>(t)];
    EXPECT_EQ(got.count, ref.count) << t;
    EXPECT_DOUBLE_EQ(got.min, ref.min) << t;
    EXPECT_DOUBLE_EQ(got.max, ref.max) << t;
    EXPECT_NEAR(got.mean, ref.mean, 1e-12) << t;
    EXPECT_NEAR(got.variance(), ref.variance(), 1e-9) << t;
    EXPECT_EQ(got.histogram, ref.histogram) << t;
  }
}

exec::Co<void> monitor_odd_chunks(TestCluster& tc,
                                  std::vector<ml::FieldStats>& out) {
  // 5 chunks per step: merge tree must handle the odd carry.
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "odd", ix(2, 4, 10), ix(1, 4, 2));
  ml::MonitorOptions opts;
  opts.bins = 4;
  opts.hist_hi = 200;
  ml::InSituFieldMonitor monitor(*tc.client, opts);
  ml::ExternalArrayProvider provider(da);
  const ml::MonitorFit fit = co_await monitor.submit(provider);
  for (std::int64_t lin = 0; lin < da.grid().num_chunks(); ++lin) {
    const arr::Index c = da.grid().coord_of(lin);
    arr::NDArray blk(ix(1, 4, 2), static_cast<double>(lin));
    const std::uint64_t b = blk.bytes();
    co_await tc.client->scatter(da.key_of(c),
                                dts::Data::make<arr::NDArray>(std::move(blk), b),
                                da.worker_of(c), true);
  }
  out = co_await monitor.collect(fit);
  co_await tc.rt->shutdown();
}

TEST(Monitor, OddChunkCountMergesCompletely) {
  TestCluster tc(2);
  std::vector<ml::FieldStats> stats;
  tc.eng.spawn(monitor_odd_chunks(tc, stats));
  tc.eng.run();
  ASSERT_EQ(stats.size(), 2u);
  // Step 0 chunks hold constants 0..4 (8 cells each).
  EXPECT_EQ(stats[0].count, 40);
  EXPECT_DOUBLE_EQ(stats[0].min, 0.0);
  EXPECT_DOUBLE_EQ(stats[0].max, 4.0);
  EXPECT_DOUBLE_EQ(stats[0].mean, 2.0);
  // Step 1 chunks hold constants 5..9.
  EXPECT_DOUBLE_EQ(stats[1].min, 5.0);
  EXPECT_DOUBLE_EQ(stats[1].max, 9.0);
}

}  // namespace
