// Tests for PCA/IncrementalPCA math (sklearn-equivalent behaviour) and the
// distributed in-situ IPCA graphs (ahead-of-time vs per-step submission).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/ml/insitu.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/util/rng.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace la = deisa::linalg;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

/// Synthetic low-rank-plus-noise data with a known dominant structure.
la::Matrix make_data(std::size_t n, std::size_t f, std::uint64_t seed,
                     double noise = 0.05) {
  Rng rng(seed);
  la::Matrix x(n, f);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = rng.normal() * 3.0;  // strong direction
    const double b = rng.normal() * 1.0;  // weaker direction
    for (std::size_t j = 0; j < f; ++j) {
      const double jf = static_cast<double>(j);
      x(i, j) = a * std::sin(0.3 * jf) + b * std::cos(0.7 * jf) +
                noise * rng.normal() + 0.5 * jf;  // nonzero mean
    }
  }
  return x;
}

TEST(Pca, ExplainedVarianceSumsAndOrdering) {
  const auto x = make_data(200, 12, 1);
  ml::PcaOptions opts;
  opts.n_components = 4;
  ml::Pca pca(opts);
  pca.fit(x);
  ASSERT_EQ(pca.singular_values().size(), 4u);
  for (std::size_t i = 0; i + 1 < 4; ++i)
    EXPECT_GE(pca.explained_variance()[i], pca.explained_variance()[i + 1]);
  double ratio_sum = 0;
  for (double r : pca.explained_variance_ratio()) ratio_sum += r;
  EXPECT_LE(ratio_sum, 1.0 + 1e-9);
  EXPECT_GT(pca.explained_variance_ratio()[0], 0.4);
}

TEST(Pca, ComponentsAreOrthonormal) {
  const auto x = make_data(100, 8, 2);
  ml::PcaOptions opts;
  opts.n_components = 3;
  ml::Pca pca(opts);
  pca.fit(x);
  const la::Matrix c = pca.components();
  const la::Matrix cct = la::matmul(c, c.transposed());
  EXPECT_LT(la::max_abs_diff(cct, la::Matrix::identity(3)), 1e-9);
}

TEST(Pca, RandomizedRatioMatchesExact) {
  // 30 features, so the 12-column sketch is taken. It returns only the
  // two leading singular values; the ratios must still divide by the
  // data's whole variance, as the exact solver's do.
  const auto x = make_data(200, 30, 1);
  ml::PcaOptions exact_opts;
  exact_opts.n_components = 2;
  ml::PcaOptions rand_opts = exact_opts;
  rand_opts.randomized = true;
  ASSERT_LT(rand_opts.n_components + ml::kSketchOversample, x.cols());
  ml::Pca exact(exact_opts);
  ml::Pca sketch(rand_opts);
  exact.fit(x);
  sketch.fit(x);
  ASSERT_EQ(sketch.explained_variance_ratio().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(sketch.explained_variance_ratio()[i],
                exact.explained_variance_ratio()[i], 1e-9);
}

TEST(IncrementalPca, SingleBatchMatchesPca) {
  const auto x = make_data(150, 10, 4);
  ml::PcaOptions opts;
  opts.n_components = 3;
  ml::Pca pca(opts);
  pca.fit(x);
  ml::IncrementalPca ipca(opts);
  ipca.partial_fit(x);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_NEAR(ipca.singular_values()[i], pca.singular_values()[i],
                1e-6 * pca.singular_values()[0]);
    EXPECT_NEAR(ipca.explained_variance()[i], pca.explained_variance()[i],
                1e-6 * pca.explained_variance()[0]);
  }
}

class IpcaBatching : public ::testing::TestWithParam<int> {};

TEST_P(IpcaBatching, MultiBatchApproximatesBatchPca) {
  // Property: IPCA over B minibatches recovers the dominant subspace and
  // spectrum of exact PCA on the concatenated data.
  const int batches = GetParam();
  const std::size_t n_per = 40;
  const std::size_t f = 12;
  ml::PcaOptions opts;
  opts.n_components = 3;

  la::Matrix all;
  ml::IncrementalPca ipca(opts);
  for (int b = 0; b < batches; ++b) {
    const auto x = make_data(n_per, f, 100 + static_cast<std::uint64_t>(b));
    all = all.empty() ? x : all.vstack(x);
    ipca.partial_fit(x);
  }
  ml::Pca pca(opts);
  pca.fit(all);

  // Mean tracked exactly.
  for (std::size_t j = 0; j < f; ++j) {
    double mean = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) mean += all(i, j);
    mean /= static_cast<double>(all.rows());
    EXPECT_NEAR(ipca.mean()[j], mean, 1e-9);
  }
  // Dominant singular value within a few percent; component subspaces
  // aligned (|cos| close to 1 for the leading component).
  EXPECT_NEAR(ipca.singular_values()[0], pca.singular_values()[0],
              0.05 * pca.singular_values()[0]);
  double cos0 = 0;
  for (std::size_t j = 0; j < f; ++j)
    cos0 += ipca.components()(0, j) * pca.components()(0, j);
  EXPECT_GT(std::abs(cos0), 0.99);
}

INSTANTIATE_TEST_SUITE_P(Batches, IpcaBatching, ::testing::Values(2, 4, 8));

TEST(IncrementalPca, VarianceTrackingMatchesPopulationVariance) {
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca ipca(opts);
  la::Matrix all;
  for (int b = 0; b < 3; ++b) {
    const auto x = make_data(30, 6, 200 + static_cast<std::uint64_t>(b));
    all = all.empty() ? x : all.vstack(x);
    ipca.partial_fit(x);
  }
  for (std::size_t j = 0; j < 6; ++j) {
    double mean = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) mean += all(i, j);
    mean /= static_cast<double>(all.rows());
    double var = 0;
    for (std::size_t i = 0; i < all.rows(); ++i) {
      const double d = all(i, j) - mean;
      var += d * d;
    }
    var /= static_cast<double>(all.rows());
    EXPECT_NEAR(ipca.variance()[j], var, 1e-9 * std::max(1.0, var));
  }
}

TEST(IncrementalPca, FirstBatchSmallerThanComponentsThrows) {
  ml::PcaOptions opts;
  opts.n_components = 5;
  ml::IncrementalPca ipca(opts);
  EXPECT_THROW(ipca.partial_fit(make_data(3, 8, 5)), deisa::util::Error);
}

TEST(IncrementalPca, FeatureCountChangeThrows) {
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca ipca(opts);
  ipca.partial_fit(make_data(20, 8, 6));
  EXPECT_THROW(ipca.partial_fit(make_data(20, 9, 7)), deisa::util::Error);
}

TEST(IncrementalPca, RandomizedSolverCloseToExact) {
  ml::PcaOptions exact_opts;
  exact_opts.n_components = 3;
  ml::PcaOptions rand_opts = exact_opts;
  rand_opts.randomized = true;
  ml::IncrementalPca a(exact_opts);
  ml::IncrementalPca b(rand_opts);
  for (int i = 0; i < 4; ++i) {
    const auto x = make_data(50, 30, 300 + static_cast<std::uint64_t>(i));
    a.partial_fit(x);
    b.partial_fit(x);
  }
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(a.singular_values()[i], b.singular_values()[i],
                0.02 * a.singular_values()[0]);
}

TEST(IncrementalPca, RandomizedFitReproducesRecordedBits) {
  // Five 2-component randomized partial_fits of 192 x 48 batches: the
  // first solves the centered batch, the others heat2d-ipca's 195 x 48
  // [S.V; Xc; correction] stack. The constants were printed by this test
  // (a failure prints the values to record) when every linalg kernel
  // still ran one plain ascending loop per output element, and the
  // blocked kernels must reproduce them bit for bit. They hold for GCC at
  // the default x86-64 target (SSE2 doubles, no FMA) with glibc's libm.
  ml::PcaOptions opts;
  opts.n_components = 2;
  opts.randomized = true;
  ml::IncrementalPca ipca(opts);
  for (std::uint64_t b = 0; b < 5; ++b)
    ipca.partial_fit(make_data(192, 48, 910 + b));
  const auto literals = [](const std::vector<double>& xs) {
    std::ostringstream os;
    os << std::hexfloat;
    for (const double x : xs) os << x << ", ";
    return os.str();
  };
  const auto bits = [](const std::vector<double>& xs) {
    std::vector<std::uint64_t> out(xs.size());
    std::memcpy(out.data(), xs.data(), xs.size() * sizeof(double));
    return out;
  };
  const std::vector<double> sv = {0x1.c70620ac2656bp+8, 0x1.33fe5b40d82f7p+7};
  const std::vector<double> ev = {0x1.afcc18b650e54p+7, 0x1.8ba98ee9065d6p+4};
  EXPECT_EQ(bits(ipca.singular_values()), bits(sv))
      << literals(ipca.singular_values());
  EXPECT_EQ(bits(ipca.explained_variance()), bits(ev))
      << literals(ipca.explained_variance());
  std::uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a over the bit patterns
  for (const double x : ipca.components().data()) {
    std::uint64_t word = 0;
    std::memcpy(&word, &x, sizeof word);
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  EXPECT_EQ(h, 0x4eb96848be77ab84ull) << "components: 0x" << std::hex << h << "ull";
}

TEST(SvdFlip, MakesLargestComponentEntryPositive) {
  la::Matrix u = la::Matrix::identity(2);
  la::Matrix vt = la::Matrix::from_rows({{-3, 1}, {0.5, 2}});
  ml::svd_flip_v(u, vt);
  EXPECT_DOUBLE_EQ(vt(0, 0), 3);
  EXPECT_DOUBLE_EQ(vt(0, 1), -1);
  EXPECT_DOUBLE_EQ(vt(1, 1), 2);  // already positive: unchanged
  EXPECT_DOUBLE_EQ(u(0, 0), -1);  // u column flipped with component 0
}

// ---- distributed in-situ IPCA ----

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    p.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn);
    rt->start();
    client = &rt->make_client(1);
  }
};

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

ml::InSituIpcaOptions listing2_options(std::size_t k) {
  ml::InSituIpcaOptions o;
  o.pca.n_components = k;
  o.labels = {"t", "X", "Y"};
  o.feature_labels = {"X"};
  o.sample_labels = {"Y"};
  return o;
}

/// The simulation field used in functional end-to-end checks.
arr::NDArray make_block(const arr::Box& box, std::uint64_t seed) {
  arr::Index shape(box.ndim());
  for (std::size_t d = 0; d < shape.size(); ++d) shape[d] = box.extent(d);
  arr::NDArray blk(shape);
  Rng rng(seed);
  arr::Index gidx = box.lo;
  std::size_t flat = 0;
  // Deterministic function of the GLOBAL index so chunking cannot matter.
  for (std::int64_t t = 0; t < shape[0]; ++t)
    for (std::int64_t x = 0; x < shape[1]; ++x)
      for (std::int64_t y = 0; y < shape[2]; ++y) {
        const double gt = static_cast<double>(box.lo[0] + t);
        const double gx = static_cast<double>(box.lo[1] + x);
        const double gy = static_cast<double>(box.lo[2] + y);
        blk.flat()[flat++] = std::sin(0.2 * gx + 0.1 * gt) * (1.0 + 0.3 * gy) +
                             0.01 * gx * gy;
      }
  (void)rng;
  (void)gidx;
  return blk;
}

exec::Co<void> push_all_blocks(TestCluster& tc, const arr::DArray& da) {
  for (std::int64_t i = 0; i < da.grid().num_chunks(); ++i) {
    const arr::Index c = da.grid().coord_of(i);
    const arr::Box box = da.grid().box_of(c);
    arr::NDArray blk = make_block(box, 7);
    const std::uint64_t b = blk.bytes();
    co_await tc.client->scatter(da.key_of(c),
                                dts::Data::make<arr::NDArray>(std::move(blk), b),
                                da.worker_of(c), /*external=*/true);
  }
}

exec::Co<void> aot_fit_flow(TestCluster& tc, ml::IncrementalPca& out,
                            std::vector<double>& ev) {
  // Global array: 4 timesteps of 6x8, chunked (1, 3, 4) = 4 blocks/step.
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(4, 6, 8), ix(1, 3, 4));
  ml::InSituIncrementalPca ipca(*tc.client, listing2_options(2));
  ml::ExternalArrayProvider provider(da);
  // Whole fit graph submitted BEFORE any data exists.
  const ml::IpcaFit fit = co_await ipca.fit_ahead_of_time(provider);
  co_await push_all_blocks(tc, da);
  out = co_await ipca.collect_state(fit);
  ev = co_await ipca.collect_vector(fit.explained_variance_key);
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, AheadOfTimeFitMatchesLocalIpca) {
  TestCluster tc(2);
  ml::IncrementalPca distributed(ml::PcaOptions{});
  std::vector<double> ev;
  tc.eng.spawn(aot_fit_flow(tc, distributed, ev));
  tc.eng.run();

  // Reference: run the same math locally over the same slabs.
  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca local(opts);
  for (std::int64_t t = 0; t < 4; ++t) {
    const arr::Box slab_box(ix(t, 0, 0), ix(t + 1, 6, 8));
    const arr::NDArray slab = make_block(slab_box, 7);
    const arr::NDArray m2d = slab.reshape_2d({0, 2});  // rows = (t, Y)
    la::Matrix x(static_cast<std::size_t>(m2d.shape()[0]),
                 static_cast<std::size_t>(m2d.shape()[1]));
    for (std::int64_t r = 0; r < m2d.shape()[0]; ++r)
      for (std::int64_t c = 0; c < m2d.shape()[1]; ++c)
        x(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            m2d.at(arr::Index{r, c});
    local.partial_fit(x);
  }
  ASSERT_EQ(ev.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(distributed.singular_values()[i], local.singular_values()[i],
                1e-9 * std::max(1.0, local.singular_values()[0]));
    EXPECT_NEAR(ev[i], local.explained_variance()[i],
                1e-9 * std::max(1.0, local.explained_variance()[0]));
  }
}

exec::Co<void> per_step_fit_flow(TestCluster& tc, ml::IncrementalPca& out,
                                 int& submissions) {
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(3, 6, 8), ix(1, 3, 4));
  // Old IPCA: data must arrive before each per-step submission completes;
  // push everything first, then drive the per-step fit.
  co_await push_all_blocks(tc, da);
  ml::InSituIpcaOptions o = listing2_options(2);
  o.name = "ipca-old";
  ml::InSituIncrementalPca ipca(*tc.client, o);
  ml::ExternalArrayProvider provider(da);
  const ml::IpcaFit fit = co_await ipca.fit_per_step(provider);
  submissions = fit.submissions;
  out = co_await ipca.collect_state(fit);
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, PerStepFitMatchesAheadOfTime) {
  // Old and new IPCA compute the same model — only the submission pattern
  // differs (one graph per step vs one graph total).
  TestCluster tc1(2);
  ml::IncrementalPca per_step(ml::PcaOptions{});
  int submissions = 0;
  tc1.eng.spawn(per_step_fit_flow(tc1, per_step, submissions));
  tc1.eng.run();
  EXPECT_EQ(submissions, 4);  // 3 steps + outputs

  ml::PcaOptions opts;
  opts.n_components = 2;
  ml::IncrementalPca local(opts);
  for (std::int64_t t = 0; t < 3; ++t) {
    const arr::Box slab_box(ix(t, 0, 0), ix(t + 1, 6, 8));
    const arr::NDArray slab = make_block(slab_box, 7);
    const arr::NDArray m2d = slab.reshape_2d({0, 2});
    la::Matrix x(static_cast<std::size_t>(m2d.shape()[0]),
                 static_cast<std::size_t>(m2d.shape()[1]));
    for (std::int64_t r = 0; r < m2d.shape()[0]; ++r)
      for (std::int64_t c = 0; c < m2d.shape()[1]; ++c)
        x(static_cast<std::size_t>(r), static_cast<std::size_t>(c)) =
            m2d.at(arr::Index{r, c});
    local.partial_fit(x);
  }
  for (std::size_t i = 0; i < 2; ++i)
    EXPECT_NEAR(per_step.singular_values()[i], local.singular_values()[i],
                1e-9 * std::max(1.0, local.singular_values()[0]));
}

exec::Co<void> synthetic_aot_flow(TestCluster& tc, double& done_at) {
  arr::DArray da = co_await arr::DArray::from_external(
      *tc.client, "temp", ix(3, 6, 8), ix(1, 3, 4));
  ml::InSituIpcaOptions o = listing2_options(2);
  o.name = "ipca-syn";
  ml::InSituIncrementalPca ipca(*tc.client, o);
  ml::ExternalArrayProvider provider(da);
  const ml::IpcaFit fit = co_await ipca.fit_ahead_of_time(provider);
  // Push size-only blocks (synthetic mode: same code path, no payload).
  for (std::int64_t i = 0; i < da.grid().num_chunks(); ++i) {
    const arr::Index c = da.grid().coord_of(i);
    co_await tc.client->scatter(da.key_of(c), dts::Data::sized(96),
                                da.worker_of(c), true);
  }
  co_await tc.client->wait_key(fit.singular_values_key);
  done_at = tc.eng.now();
  co_await tc.rt->shutdown();
}

TEST(InSituIpca, SyntheticModeRunsSameGraphWithoutPayloads) {
  TestCluster tc(2);
  double done_at = 0;
  tc.eng.spawn(synthetic_aot_flow(tc, done_at));
  tc.eng.run();
  EXPECT_GT(done_at, 0.0);
}


// ---- ExternalArrayProvider over a box ----

/// Drain a TestCluster whose runtime started but whose engine never ran.
void shut_down(TestCluster& tc) {
  tc.eng.spawn(tc.rt->shutdown());
  tc.eng.run();
}

/// By brute force: the keys of step t's chunks of `da` that lie within
/// `box`, in row-major order.
std::vector<dts::Key> keys_in_box(const arr::DArray& da, const arr::Box& box,
                                  std::int64_t t) {
  std::vector<dts::Key> keys;
  for (std::int64_t i = 0; i < da.grid().num_chunks(); ++i) {
    const arr::Index c = da.grid().coord_of(i);
    const arr::Box cb = da.grid().box_of(c);
    bool inside = c[0] == t;
    for (std::size_t d = 0; d < c.size(); ++d)
      inside = inside && cb.lo[d] >= box.lo[d] && cb.hi[d] <= box.hi[d];
    if (inside) keys.push_back(da.key_of(c));
  }
  return keys;
}

TEST(ExternalArrayProvider, AlignedBoxKeysMatchBruteForce) {
  TestCluster tc(2);
  // 3 steps of 8 x 9 chunked (1, 2, 3): 4 x 3 chunks per step; the box
  // holds 2 x 2 of them, away from the origin.
  const arr::DArray da =
      arr::DArray::descriptor(*tc.client, "temp", ix(3, 8, 9), ix(1, 2, 3));
  const arr::Box box(ix(0, 2, 3), ix(3, 6, 9));
  ml::ExternalArrayProvider provider(da, box);
  EXPECT_EQ(provider.grid(), arr::ChunkGrid(ix(3, 4, 6), ix(1, 2, 3)));
  std::vector<dts::TaskSpec> tasks;
  for (std::int64_t t = 0; t < 3; ++t) {
    const std::vector<dts::Key> keys = provider.chunks(0, t, tasks);
    EXPECT_EQ(keys.size(), 4u);
    EXPECT_EQ(keys, keys_in_box(da, box, t)) << t;
  }
  EXPECT_TRUE(tasks.empty());  // external chunks need no tasks
  shut_down(tc);
}

TEST(ExternalArrayProvider, UnalignedBoxThrows) {
  TestCluster tc(2);
  const arr::DArray da =
      arr::DArray::descriptor(*tc.client, "temp", ix(3, 8, 9), ix(1, 2, 3));
  // Start off a chunk boundary, end off one, end past the array.
  const arr::Box off_start(ix(0, 1, 0), ix(3, 4, 9));
  const arr::Box off_end(ix(0, 0, 0), ix(3, 8, 8));
  const arr::Box past_edge(ix(0, 0, 0), ix(3, 10, 9));
  for (const arr::Box* box : {&off_start, &off_end, &past_edge})
    EXPECT_THROW(ml::ExternalArrayProvider(da, *box), deisa::util::Error);
  shut_down(tc);
}

TEST(ExternalArrayProvider, RaggedArrayWalksStepChunks) {
  TestCluster tc(2);
  // 2 steps of 7 x 5 chunked (1, 3, 2): the last chunk of both spatial
  // dimensions is short.
  const arr::DArray da =
      arr::DArray::descriptor(*tc.client, "temp", ix(2, 7, 5), ix(1, 3, 2));
  ml::ExternalArrayProvider whole(da);
  EXPECT_EQ(whole.grid(), da.grid());
  // A box may end at the array's ragged edge, even inside one chunk.
  const arr::Box edge(ix(0, 3, 4), ix(2, 7, 5));
  ml::ExternalArrayProvider corner(da, edge);
  std::vector<dts::TaskSpec> tasks;
  for (std::int64_t t = 0; t < 2; ++t) {
    std::vector<dts::Key> expected;
    for (const arr::Index& c :
         da.grid().chunks_overlapping(arr::Box(ix(t, 0, 0), ix(t + 1, 7, 5))))
      expected.push_back(da.key_of(c));
    EXPECT_EQ(expected.size(), 9u);
    EXPECT_EQ(whole.chunks(0, t, tasks), expected) << t;
    const std::vector<dts::Key> keys = corner.chunks(0, t, tasks);
    EXPECT_EQ(keys.size(), 2u);
    EXPECT_EQ(keys, keys_in_box(da, edge, t)) << t;
  }
  shut_down(tc);
}

// ---- recorded graph of the step builders ----

/// One line per task: key, deps, cost as a hex float, out_bytes, and
/// whether the task carries a callable.
std::string graph_listing(const std::vector<dts::TaskSpec>& tasks) {
  std::string out;
  for (const dts::TaskSpec& s : tasks) {
    char cost[32];
    std::snprintf(cost, sizeof cost, "%a", s.cost);
    out += s.key + " <-";
    for (const dts::Key& d : s.deps) out += " " + d;
    out += " | " + std::string(cost) + " | " + std::to_string(s.out_bytes) +
           (s.fn ? " | fn\n" : " | -\n");
  }
  return out;
}

/// The graph of 3 steps of a (3, 4, 6) array chunked (1, 2, 3), so 2 x 2
/// chunks per step, plus the outputs. The distributed update builds each
/// step as its own submission, as fit_per_step does, and prices the old
/// IPCA's exact solver (cost_multiplier 2.5), as the harness does.
std::string pinned_graph(bool distributed) {
  TestCluster tc(2);
  const arr::DArray da =
      arr::DArray::descriptor(*tc.client, "temp", ix(3, 4, 6), ix(1, 2, 3));
  ml::InSituIpcaOptions o = listing2_options(2);
  o.distributed_update = distributed;
  if (distributed) o.cost.cost_multiplier = 2.5;
  ml::InSituIncrementalPca ipca(*tc.client, o);
  ml::ExternalArrayProvider provider(da);
  std::vector<dts::TaskSpec> tasks;
  for (std::int64_t t = 0; t < 3; ++t)
    ipca.build_step(provider, distributed ? static_cast<int>(t) : 0, t,
                    tasks);
  ipca.build_outputs(tasks, 3);
  shut_down(tc);
  return graph_listing(tasks);
}

TEST(InSituIpcaPins, StepGraphsMatchRecording) {
  // Recorded constants of both update kinds: keys, dependency order
  // (previous state first), costs to the bit, output sizes and which
  // tasks carry a callable.
  EXPECT_EQ(pinned_graph(false), R"(ipca/slab/s0/t0 <- deisa-temp|0,0,0 deisa-temp|0,0,1 deisa-temp|0,1,0 deisa-temp|0,1,1 | 0x1.9c511dc3a41dfp-25 | 192 | fn
ipca/state/t0 <- ipca/slab/s0/t0 | 0x1.5be4711d12794p-19 | 320 | fn
ipca/slab/s0/t1 <- deisa-temp|1,0,0 deisa-temp|1,0,1 deisa-temp|1,1,0 deisa-temp|1,1,1 | 0x1.9c511dc3a41dfp-25 | 192 | fn
ipca/state/t1 <- ipca/state/t0 ipca/slab/s0/t1 | 0x1.5be4711d12794p-19 | 320 | fn
ipca/slab/s0/t2 <- deisa-temp|2,0,0 deisa-temp|2,0,1 deisa-temp|2,1,0 deisa-temp|2,1,1 | 0x1.9c511dc3a41dfp-25 | 192 | fn
ipca/state/t2 <- ipca/state/t1 ipca/slab/s0/t2 | 0x1.5be4711d12794p-19 | 320 | fn
ipca/explained_variance <- ipca/state/t2 | 0x0p+0 | 16 | fn
ipca/singular_values <- ipca/state/t2 | 0x0p+0 | 16 | fn
)");
  EXPECT_EQ(pinned_graph(true), R"(ipca/sketch/s0/t0/c0 <- deisa-temp|0,0,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s0/t0/c1 <- deisa-temp|0,0,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s0/t0/c2 <- deisa-temp|0,1,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s0/t0/c3 <- deisa-temp|0,1,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/state/t0 <- ipca/sketch/s0/t0/c0 ipca/sketch/s0/t0/c1 ipca/sketch/s0/t0/c2 ipca/sketch/s0/t0/c3 | 0x1.21e908ed8f651p-19 | 8192 | -
ipca/sketch/s1/t1/c0 <- deisa-temp|1,0,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s1/t1/c1 <- deisa-temp|1,0,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s1/t1/c2 <- deisa-temp|1,1,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s1/t1/c3 <- deisa-temp|1,1,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/state/t1 <- ipca/state/t0 ipca/sketch/s1/t1/c0 ipca/sketch/s1/t1/c1 ipca/sketch/s1/t1/c2 ipca/sketch/s1/t1/c3 | 0x1.21e908ed8f651p-19 | 8192 | -
ipca/sketch/s2/t2/c0 <- deisa-temp|2,0,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s2/t2/c1 <- deisa-temp|2,0,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s2/t2/c2 <- deisa-temp|2,1,0 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/sketch/s2/t2/c3 <- deisa-temp|2,1,1 | 0x1.21e908ed8f651p-20 | 1152 | -
ipca/state/t2 <- ipca/state/t1 ipca/sketch/s2/t2/c0 ipca/sketch/s2/t2/c1 ipca/sketch/s2/t2/c2 ipca/sketch/s2/t2/c3 | 0x1.21e908ed8f651p-19 | 8192 | -
ipca/explained_variance <- ipca/state/t2 | 0x0p+0 | 16 | fn
ipca/singular_values <- ipca/state/t2 | 0x0p+0 | 16 | fn
)");
}

}  // namespace
