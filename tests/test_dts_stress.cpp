// Stress tests for the scheduler's hot path at scale: ingest-and-drain a
// 100k-task layered graph whose external leaves complete in a scrambled
// order, assert the wall-clock cost grows linear-ish with graph size (a
// quadratic regression in the ready queue / ingestion path fails the
// ratio), and verify the scheduler holds zero transient state afterwards
// — every record terminal, no queued ready tasks, no blocked waiters, no
// pending re-pushes.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/util/rng.hpp"

namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::Rng;

// Sanitizer builds run the same logic an order of magnitude smaller: the
// leak/drain assertions still bite, the timing ratio stays meaningful,
// and the suite stays inside the per-test timeout.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DEISA_STRESS_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DEISA_STRESS_SANITIZED 1
#endif
#endif

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kWorkers = 4;
constexpr int kLayerWidth = 64;

#ifdef DEISA_STRESS_SANITIZED
constexpr int kSmall = 2000;
constexpr int kLarge = 16000;
#else
constexpr int kSmall = 12500;
constexpr int kLarge = 100000;
#endif

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit Fixture(bool release_consumed = false, int shards = 1) {
    net::ClusterParams cp;
    cp.physical_nodes = kWorkers + 4;
    cluster = std::make_unique<net::Cluster>(eng, cp);
    std::vector<int> wn;
    for (int i = 0; i < kWorkers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    // Near-zero simulated service: wall time measures the scheduler's
    // data structures, not the modelled Python-scheduler service model.
    rp.scheduler.service_base = 1e-9;
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.scheduler.release_consumed = release_consumed;
    rp.worker.heartbeat_interval = 0;  // no background chatter
    rp.shards = shards;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

/// Layered reduce-shaped DAG over external leaves, mirroring the bench
/// and the paper's per-timestep analytics graphs: n compute tasks in
/// layers of kLayerWidth, each depending on two previous-layer tasks (or
/// an external leaf for the first layer).
struct Graph {
  std::vector<dts::Key> leaves;
  std::vector<int> leaf_workers;
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> sinks;
};

Graph make_graph(int n) {
  Graph g;
  const int nleaves = std::max(1, n / 16);
  for (int i = 0; i < nleaves; ++i) {
    g.leaves.push_back("ext" + std::to_string(i));
    g.leaf_workers.push_back(i % kWorkers);
  }
  g.tasks.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    std::vector<dts::Key> deps;
    if (i < kLayerWidth) {
      deps.push_back(g.leaves[static_cast<std::size_t>(i % nleaves)]);
    } else {
      const int layer_base = (i / kLayerWidth - 1) * kLayerWidth;
      const int col = i % kLayerWidth;
      deps.push_back("t" + std::to_string(layer_base + col));
      deps.push_back("t" +
                     std::to_string(layer_base + (col + 1) % kLayerWidth));
    }
    g.tasks.emplace_back("t" + std::to_string(i), std::move(deps),
                         dts::TaskFn{}, /*cost=*/0.0, /*out_bytes=*/64);
  }
  const int last_layer_base = ((n - 1) / kLayerWidth) * kLayerWidth;
  for (int i = last_layer_base; i < n; ++i)
    g.sinks.push_back("t" + std::to_string(i));
  return g;
}

/// Ingest the whole graph up front (the paper's submit-ahead trick), then
/// complete the external leaves in a seeded random order and drain to the
/// sinks.
exec::Co<void> ingest_and_drain(Fixture& fx, Graph g, std::uint64_t seed) {
  const std::vector<dts::Key> leaves = g.leaves;
  const std::vector<int> targets = g.leaf_workers;
  co_await fx.client->external_futures(std::move(g.leaves),
                                       std::move(g.leaf_workers));
  co_await fx.client->submit(std::move(g.tasks));

  // Out-of-order completion: Fisher-Yates over the leaf indices.
  std::vector<std::size_t> order(leaves.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i)
    std::swap(order[i - 1], order[rng.uniform_index(i)]);
  for (const std::size_t i : order)
    (void)co_await fx.client->scatter(leaves[i], dts::Data::sized(64),
                                      targets[i], /*external=*/true);

  for (const dts::Key& k : g.sinks) (void)co_await fx.client->wait_key(k);
  co_await fx.rt->shutdown();
}

/// Wall-clock seconds for one full ingest-and-drain of an n-task graph
/// (best of `reps` runs to damp machine noise).
double run_once(int n, std::uint64_t seed, int reps,
                const dts::Scheduler** out_sched,
                std::unique_ptr<Fixture>* keep) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) {
    auto fx = std::make_unique<Fixture>();
    fx->eng.spawn(ingest_and_drain(*fx, make_graph(n), seed + rep));
    const auto t0 = Clock::now();
    fx->eng.run();
    best = std::min(
        best, std::chrono::duration<double>(Clock::now() - t0).count());
    if (out_sched != nullptr) *out_sched = &fx->rt->scheduler();
    if (keep != nullptr) *keep = std::move(fx);
  }
  return best;
}

TEST(SchedStress, HundredThousandTaskGraphDrainsWithoutLeaks) {
  const int n = kLarge;
  std::unique_ptr<Fixture> fx;
  const dts::Scheduler* sched = nullptr;
  (void)run_once(n, /*seed=*/42, /*reps=*/1, &sched, &fx);
  ASSERT_NE(sched, nullptr);

  const std::size_t nleaves = static_cast<std::size_t>(std::max(1, n / 16));
  const std::size_t total = static_cast<std::size_t>(n) + nleaves;
  // All records exist exactly once and every one of them is terminal: the
  // whole graph (leaves included) ended in memory, nothing erred, nothing
  // is still waiting or in flight.
  EXPECT_EQ(sched->task_count(), total);
  EXPECT_EQ(sched->count_in_state(dts::TaskState::kMemory), total);
  EXPECT_EQ(sched->count_in_state(dts::TaskState::kErred), 0u);
  // Zero transient scheduler state after close.
  EXPECT_EQ(sched->ready_queue_size(), 0u);
  EXPECT_EQ(sched->pending_waiters(), 0u);
}

// ---- refcount GC: bounded residency over a long timestep loop ----

/// The DEISA2/3 shape at its simplest: per timestep, one external block
/// is pushed and one consumer task reduces it. Without the refcount GC
/// the worker's store accretes every step's block; with it, the block is
/// released as soon as its consumer finishes.
exec::Co<void> external_timestep_loop(Fixture& fx, int steps,
                                      std::uint64_t block) {
  for (int t = 0; t < steps; ++t) {
    const std::string st = std::to_string(t);
    std::vector<dts::Key> ext;
    ext.push_back("s" + st);
    std::vector<int> tgt;
    tgt.push_back(0);
    co_await fx.client->external_futures(std::move(ext), std::move(tgt));
    std::vector<dts::TaskSpec> tasks;
    std::vector<dts::Key> deps;
    deps.push_back("s" + st);
    tasks.emplace_back("r" + st, std::move(deps), dts::TaskFn{}, /*cost=*/0.0,
                       /*out_bytes=*/64);
    std::vector<dts::Key> wants;
    wants.push_back("r" + st);
    co_await fx.client->submit(std::move(tasks), std::move(wants));
    (void)co_await fx.client->scatter("s" + st, dts::Data::sized(block),
                                      /*worker=*/0, /*external=*/true);
    (void)co_await fx.client->wait_key("r" + st);
  }
  co_await fx.rt->shutdown();
}

std::uint64_t peak_after_loop(bool gc, int steps, std::uint64_t block,
                              std::uint64_t* released = nullptr,
                              int shards = 1) {
  Fixture fx(gc, shards);
  fx.eng.spawn(external_timestep_loop(fx, steps, block));
  fx.eng.run();
  std::uint64_t peak = 0;
  for (int i = 0; i < kWorkers; ++i)
    peak = std::max(peak, fx.rt->worker(i).peak_memory_bytes());
  if (released != nullptr) *released = fx.rt->sharded().keys_released();
  return peak;
}

TEST(SchedStress, RefcountGcBoundsWorkerResidency) {
  constexpr std::uint64_t kBlock = 256 * 1024;
  constexpr int kShort = 12;
  constexpr int kLong = 36;
  // Without GC every step's block stays resident: peak grows with steps.
  const std::uint64_t off = peak_after_loop(false, kLong, kBlock);
  EXPECT_GE(off, static_cast<std::uint64_t>(kLong) * kBlock);
  // With GC the peak is a few blocks regardless of the step count.
  std::uint64_t released_short = 0;
  std::uint64_t released_long = 0;
  const std::uint64_t on_short =
      peak_after_loop(true, kShort, kBlock, &released_short);
  const std::uint64_t on_long =
      peak_after_loop(true, kLong, kBlock, &released_long);
  EXPECT_EQ(released_short, static_cast<std::uint64_t>(kShort));
  EXPECT_EQ(released_long, static_cast<std::uint64_t>(kLong));
  EXPECT_LE(on_long, 3 * kBlock);
  EXPECT_LT(on_long, on_short + kBlock);  // growth independent of steps
}

TEST(SchedStress, RefcountGcBoundsWorkerResidencyShardedFour) {
  // Same bound as above, but with the key space sharded four ways: the
  // external block and its consumer usually land on different shards, so
  // the release now needs the full cross-shard accounting round trip
  // (charge on the subscription slice, drain ack back to the owner). The
  // residency bound and the released-everything invariant must hold
  // exactly as in the single-scheduler run.
  constexpr std::uint64_t kBlock = 256 * 1024;
  constexpr int kShort = 12;
  constexpr int kLong = 36;
  std::uint64_t released_short = 0;
  std::uint64_t released_long = 0;
  const std::uint64_t on_short =
      peak_after_loop(true, kShort, kBlock, &released_short, /*shards=*/4);
  const std::uint64_t on_long =
      peak_after_loop(true, kLong, kBlock, &released_long, /*shards=*/4);
  EXPECT_EQ(released_short, static_cast<std::uint64_t>(kShort));
  EXPECT_EQ(released_long, static_cast<std::uint64_t>(kLong));
  EXPECT_LE(on_long, 3 * kBlock);
  EXPECT_LT(on_long, on_short + kBlock);  // growth independent of steps
}

TEST(SchedStress, IngestAndDrainScalesLinearish) {
  // Warm-up run so first-touch page faults and lazy allocations don't
  // land on the small measurement.
  (void)run_once(kSmall, 7, 1, nullptr, nullptr);
  const double t_small = run_once(kSmall, 11, 2, nullptr, nullptr);
  const double t_large = run_once(kLarge, 13, 2, nullptr, nullptr);
  const double per_task_small = t_small / kSmall;
  const double per_task_large = t_large / kLarge;
  // An 8x bigger graph may not cost more than ~4x per task: linear-ish
  // with generous headroom for machine noise, but a quadratic ready
  // queue or ingestion path blows well past it.
  EXPECT_LT(per_task_large, 4.0 * per_task_small)
      << "small: " << t_small << " s for " << kSmall
      << " tasks, large: " << t_large << " s for " << kLarge << " tasks";
}

}  // namespace
