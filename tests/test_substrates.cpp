// Substrate equivalence and threaded-backend tests.
//
// The execution-substrate seam promises that actor code produces the same
// *functional* results whether it runs on the deterministic simulator or
// on real threads (timings differ — wall clock vs model — but every byte
// of analytics output must match). These tests pin that contract:
//
//   * ThreadedExecutor primitives behave like their sim counterparts
//     (channels, events, when_all, timers, strand exclusion), a
//     zero-cost serve takes no executor hop, and a ring of strands loses
//     no wake-up.
//   * An awaited Co that finishes without suspending returns inline: a
//     million such children, or a zero-cost scheduler draining a large
//     backlog, keep a flat stack on both substrates.
//   * heat2d-style functional scenarios (real Heat2D data, real IPCA
//     math) produce byte-identical singular values / explained variance
//     on both substrates.
//   * The streaming-moments monitor produces byte-identical FieldStats
//     on both substrates (the merge tree is fixed by the graph, so
//     floating-point reduction order cannot drift).
//   * A many-producers / one-scheduler stress run exercises the threaded
//     transport and scheduler under real contention; CI runs this suite
//     under ThreadSanitizer.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "deisa/array/darray.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/dts/scheduler.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/harness/scenario.hpp"
#include "deisa/ml/streaming.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/rt/threaded_transport.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/util/rng.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace harness = deisa::harness;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace rt = deisa::rt;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

/// Model seconds per wall second is 1/time_scale; scenarios scripted in
/// model seconds finish in a fraction of real time at this scale.
constexpr double kTestTimeScale = 0.01;

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

// ---- ThreadedExecutor primitives ----

TEST(ThreadedExecutor, DelayAdvancesModelTime) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, 0.05});
  double woke_at = -1.0;
  auto actor = [](rt::ThreadedExecutor& e, double& out) -> exec::Co<void> {
    co_await e.delay(1.0);
    out = e.now();
  };
  ex.spawn(actor(ex, woke_at));
  ex.run();
  EXPECT_GE(woke_at, 1.0);
  EXPECT_LT(woke_at, 10.0);  // generous: scheduling noise, not drift
}

TEST(ThreadedExecutor, ChannelRoundtripAcrossStrands) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{4, kTestTimeScale});
  exec::Channel<int> req(ex);
  exec::Channel<int> rsp(ex);
  constexpr int kN = 200;
  auto server = [](exec::Channel<int>& in,
                   exec::Channel<int>& out) -> exec::Co<void> {
    for (int i = 0; i < kN; ++i) {
      const int v = co_await in.recv();
      out.send(v * 2);
    }
  };
  int sum = 0;
  auto client = [](exec::Channel<int>& out, exec::Channel<int>& in,
                   int& acc) -> exec::Co<void> {
    for (int i = 0; i < kN; ++i) {
      out.send(i);
      acc += co_await in.recv();
    }
  };
  ex.spawn_on(ex.new_strand(), server(req, rsp));
  ex.spawn_on(ex.new_strand(), client(req, rsp, sum));
  ex.run();
  EXPECT_EQ(sum, kN * (kN - 1));  // 2 * sum(0..N-1)
}

TEST(ThreadedExecutor, WhenAllJoinsConcurrentActors) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{4, kTestTimeScale});
  std::atomic<int> done{0};
  auto parent = [](rt::ThreadedExecutor& e,
                   std::atomic<int>& n) -> exec::Co<void> {
    std::vector<exec::Co<void>> kids;
    auto child_of = [](rt::ThreadedExecutor& ee, std::atomic<int>& nn,
                       double dt) -> exec::Co<void> {
      co_await ee.delay(dt);
      nn.fetch_add(1);
    };
    for (int i = 0; i < 8; ++i)
      kids.push_back(child_of(e, n, 0.01 * (i + 1)));
    co_await exec::when_all(e, std::move(kids));
    EXPECT_EQ(n.load(), 8);
  };
  ex.spawn(parent(ex, done));
  ex.run();
  EXPECT_EQ(done.load(), 8);
}

TEST(ThreadedExecutor, StrandSerializesUnlockedState) {
  // Two actors hammering one plain (unlocked) counter from the same
  // strand never race: the strand guarantees mutual exclusion, which is
  // exactly what the actor layer relies on. TSan validates this test.
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{4, kTestTimeScale});
  void* strand = ex.new_strand();
  long counter = 0;  // deliberately not atomic
  auto bump = [](rt::ThreadedExecutor& e, long& c) -> exec::Co<void> {
    for (int i = 0; i < 500; ++i) {
      ++c;
      co_await e.delay(0.0);
    }
  };
  ex.spawn_on(strand, bump(ex, counter));
  ex.spawn_on(strand, bump(ex, counter));
  ex.run();
  EXPECT_EQ(counter, 1000);
}

TEST(ThreadedExecutor, RunUntilReportsNonQuiescence) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, 1.0});
  auto sleeper = [](rt::ThreadedExecutor& e) -> exec::Co<void> {
    co_await e.delay(3600.0);  // far beyond the horizon below
  };
  ex.spawn(sleeper(ex));
  EXPECT_FALSE(ex.run_until(0.05));
  ex.shutdown();  // drop the outstanding timer and its actor
}

TEST(ThreadedExecutor, ZeroCostServeOnAFreeServerAddsNoResume) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, kTestTimeScale});
  exec::FifoServer server(ex, 1);
  auto serves = [](exec::FifoServer& srv, int n) -> exec::Co<void> {
    for (int i = 0; i < n; ++i) co_await srv.serve(0.0);
  };
  ex.spawn(serves(server, 0));
  ex.run();
  const std::uint64_t spawn_only = ex.stats().resumes;
  ex.spawn(serves(server, 1000));
  ex.run();
  // The second root costs what the first did: its spawn, and no hop for
  // any of its 1000 serves.
  EXPECT_EQ(ex.stats().resumes, 2 * spawn_only);
}

// ---- inline completion (the stack stays flat; ASan and TSan targets) ----

exec::Co<void> count_inline(long& n) {
  ++n;
  co_return;
}

/// Awaits `count` children that all finish without suspending. Were each
/// awaited child resumed by an untransformed symmetric transfer, the stack
/// would grow by a few frames per child and overflow long before a million.
exec::Co<void> await_inline_children(long& n, long count) {
  for (long i = 0; i < count; ++i) co_await count_inline(n);
}

constexpr long kInlineChildren = 1'000'000;

TEST(InlineCompletion, MillionInlineChildrenOnSim) {
  sim::Engine eng;
  long n = 0;
  eng.spawn(await_inline_children(n, kInlineChildren));
  eng.run();
  EXPECT_EQ(n, kInlineChildren);
  EXPECT_EQ(eng.events_processed(), 1u);
}

TEST(InlineCompletion, MillionInlineChildrenOnThreads) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, kTestTimeScale});
  long n = 0;
  ex.spawn(await_inline_children(n, kInlineChildren));
  ex.run();
  EXPECT_EQ(n, kInlineChildren);
  EXPECT_EQ(ex.stats().resumes, 1u);
}

TEST(InlineCompletion, ZeroCostSchedulerDrainsBacklogWithoutSuspending) {
  // With every service cost 0, the scheduler loop takes each queued
  // message, serves it and handles it without one suspension, so the
  // whole backlog drains inside the loop's first resume.
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, kTestTimeScale});
  rt::ThreadedTransport transport(ex, rt::ThreadedTransportParams{1});
  dts::SchedulerParams params;
  params.service_base = 0.0;
  params.service_per_task = 0.0;
  params.service_per_key = 0.0;
  params.service_queue_extra = 0.0;
  dts::Scheduler sched(ex, transport, 0, params);
  constexpr std::uint64_t kBacklog = 100'000;
  for (std::uint64_t i = 0; i < kBacklog; ++i)
    sched.inbox().send(dts::SchedMsg(dts::SchedMsgKind::kHeartbeatBridge));
  sched.inbox().send(dts::SchedMsg(dts::SchedMsgKind::kShutdown));
  ex.spawn_on(ex.new_strand(), sched.run());
  ex.run();
  EXPECT_EQ(sched.total_messages(), kBacklog + 1);
  EXPECT_EQ(sched.messages_received(dts::SchedMsgKind::kHeartbeatBridge),
            kBacklog);
  EXPECT_EQ(ex.stats().resumes, 1u);
}

// ---- conditional worker wake-ups (TSan target) ----

using Ring = std::vector<std::unique_ptr<exec::Channel<int>>>;

/// Link `i` of the ring: once `go` is set, passes `rounds` tokens from its
/// channel to the next link's, adding one to each.
exec::Co<void> ring_link(exec::Event& go, Ring& ring, std::size_t i,
                         int rounds, std::atomic<int>& delivered) {
  co_await go.wait();
  exec::Channel<int>& in = *ring[i];
  exec::Channel<int>& out = *ring[(i + 1) % ring.size()];
  for (int r = 0; r < rounds; ++r) {
    const int token = co_await in.recv();
    delivered.fetch_add(1, std::memory_order_relaxed);
    out.send(token + 1);
  }
}

TEST(ThreadedExecutor, RingOfStrandsLosesNoWakeup) {
  // Four workers and 64 strands hand tokens around a ring of channels, so
  // runnable strands outnumber workers and workers keep going idle and
  // being signalled. The spawns and the event that starts the ring come
  // from threads that are not workers, while every worker is asleep: a
  // wake-up lost there leaves strands queued that no worker takes, and
  // run_until() then times out instead of going quiescent.
  constexpr int kLinks = 64;
  constexpr int kRounds = 16;
  constexpr int kRepeats = 200;
  constexpr double kDeadline = 30.0;  // model = wall seconds here
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{4, 1.0});
  std::vector<void*> strands;
  for (int i = 0; i < kLinks; ++i) strands.push_back(ex.new_strand());
  for (int rep = 0; rep < kRepeats; ++rep) {
    exec::Event go(ex);
    Ring ring;
    for (int i = 0; i < kLinks; ++i)
      ring.push_back(std::make_unique<exec::Channel<int>>(ex));
    for (auto& link : ring) link->send(0);
    std::atomic<int> delivered{0};
    for (std::size_t i = 0; i < ring.size(); ++i)
      ex.spawn_on(strands[i], ring_link(go, ring, i, kRounds, delivered));
    // Every link parks on the event.
    ASSERT_TRUE(ex.run_until(ex.now() + kDeadline)) << "repetition " << rep;
    ASSERT_EQ(delivered.load(), 0) << "repetition " << rep;
    std::thread setter([&go] { go.set(); });
    setter.join();
    ASSERT_TRUE(ex.run_until(ex.now() + kDeadline)) << "repetition " << rep;
    ASSERT_EQ(delivered.load(), kLinks * kRounds) << "repetition " << rep;
    int hops = 0;
    for (auto& link : ring) {
      const std::optional<int> token = link->try_recv();
      ASSERT_TRUE(token.has_value()) << "repetition " << rep;
      hops += *token;
    }
    EXPECT_EQ(hops, kLinks * kRounds) << "repetition " << rep;
    EXPECT_EQ(ex.live_roots(), 0u) << "repetition " << rep;
  }
}

// ---- functional scenario equivalence (sim vs threads) ----

harness::ScenarioParams equivalence_params(harness::Substrate substrate) {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);  // real math stays tiny
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  p.substrate = substrate;
  p.time_scale = kTestTimeScale;
  return p;
}

void expect_bitwise_equal(const std::vector<double>& a,
                          const std::vector<double>& b, const char* what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  ASSERT_FALSE(a.empty()) << what;
  for (std::size_t i = 0; i < a.size(); ++i) {
    // memcmp, not ==: bit-identical, including signed zeros / NaN bits.
    EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0)
        << what << "[" << i << "]: " << a[i] << " vs " << b[i];
  }
}

class SubstrateEquivalence
    : public ::testing::TestWithParam<harness::Pipeline> {};

TEST_P(SubstrateEquivalence, AnalyticsOutputsMatchBitForBit) {
  const auto pipeline = GetParam();
  const auto r_sim = harness::run_scenario(
      pipeline, equivalence_params(harness::Substrate::kSim));
  const auto r_thr = harness::run_scenario(
      pipeline, equivalence_params(harness::Substrate::kThreads));

  expect_bitwise_equal(r_sim.singular_values, r_thr.singular_values,
                       "singular_values");
  expect_bitwise_equal(r_sim.explained_variance, r_thr.explained_variance,
                       "explained_variance");
  // Functional invariants that do not depend on timing.
  EXPECT_EQ(r_sim.bridge_blocks_sent, r_thr.bridge_blocks_sent);
  EXPECT_EQ(r_sim.bridge_blocks_filtered, r_thr.bridge_blocks_filtered);
  EXPECT_EQ(r_thr.workers_killed, 0u);
}

INSTANTIATE_TEST_SUITE_P(Pipelines, SubstrateEquivalence,
                         ::testing::Values(harness::Pipeline::kDeisa3,
                                           harness::Pipeline::kDeisa2,
                                           harness::Pipeline::kDeisa1),
                         [](const auto& info) {
                           return std::string(
                               harness::to_string(info.param));
                         });

TEST(SubstrateEquivalence, FaultPlansRequireSim) {
  auto p = equivalence_params(harness::Substrate::kThreads);
  p.faults.kills.emplace_back(0, 1.0);
  EXPECT_THROW((void)harness::run_scenario(harness::Pipeline::kDeisa3, p),
               deisa::util::Error);
}

// ---- streaming-moments equivalence over the raw runtime ----

/// A dts runtime over either substrate, built directly on the seam.
struct SeamCluster {
  std::unique_ptr<sim::Engine> sim_engine;
  std::unique_ptr<rt::ThreadedExecutor> thr_engine;
  std::unique_ptr<net::Cluster> sim_cluster;
  std::unique_ptr<rt::ThreadedTransport> thr_cluster;
  std::unique_ptr<dts::Runtime> runtime;
  dts::Client* client = nullptr;

  SeamCluster(bool threads, int workers) {
    const int nodes = workers + 4;
    if (threads) {
      thr_engine = std::make_unique<rt::ThreadedExecutor>(
          rt::ThreadedExecutorParams{0, kTestTimeScale});
      thr_cluster = std::make_unique<rt::ThreadedTransport>(
          *thr_engine, rt::ThreadedTransportParams{nodes});
    } else {
      sim_engine = std::make_unique<sim::Engine>();
      net::ClusterParams p;
      p.physical_nodes = nodes;
      sim_cluster = std::make_unique<net::Cluster>(*sim_engine, p);
    }
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    runtime = std::make_unique<dts::Runtime>(engine(), cluster(), 0, wn);
    runtime->start();
    client = &runtime->make_client(1);
  }

  ~SeamCluster() {
    if (thr_engine) thr_engine->shutdown();
  }

  exec::Executor& engine() {
    return sim_engine ? static_cast<exec::Executor&>(*sim_engine)
                      : *thr_engine;
  }
  exec::Transport& cluster() {
    return sim_cluster ? static_cast<exec::Transport&>(*sim_cluster)
                       : *thr_cluster;
  }
};

arr::NDArray monitor_block(std::int64_t t, std::int64_t i,
                           const arr::Box& box) {
  arr::Index shape(box.ndim());
  for (std::size_t d = 0; d < shape.size(); ++d) shape[d] = box.extent(d);
  arr::NDArray blk(shape);
  Rng rng(static_cast<std::uint64_t>(t * 100 + i + 1));
  for (double& x : blk.flat()) x = rng.uniform(0.0, 100.0) + double(t);
  return blk;
}

exec::Co<void> monitor_flow(SeamCluster& sc,
                            std::vector<ml::FieldStats>& out) {
  arr::DArray da = co_await arr::DArray::from_external(
      *sc.client, "field", ix(3, 6, 10), ix(1, 6, 5));
  ml::MonitorOptions opts;
  opts.bins = 8;
  opts.hist_lo = 0;
  opts.hist_hi = 110;
  ml::InSituFieldMonitor monitor(*sc.client, opts);
  ml::ExternalArrayProvider provider(da);
  const ml::MonitorFit fit = co_await monitor.submit(provider);
  for (std::int64_t lin = 0; lin < da.grid().num_chunks(); ++lin) {
    const arr::Index c = da.grid().coord_of(lin);
    arr::NDArray blk = monitor_block(c[0], c[2], da.grid().box_of(c));
    const std::uint64_t b = blk.bytes();
    co_await sc.client->scatter(
        da.key_of(c), dts::Data::make<arr::NDArray>(std::move(blk), b),
        da.worker_of(c), true);
  }
  out = co_await monitor.collect(fit);
  co_await sc.runtime->shutdown();
}

std::vector<ml::FieldStats> run_monitor(bool threads) {
  SeamCluster sc(threads, 3);
  std::vector<ml::FieldStats> stats;
  sc.engine().spawn_on(sc.engine().new_strand(), monitor_flow(sc, stats));
  sc.engine().run();
  if (sc.thr_engine) sc.thr_engine->shutdown();
  return stats;
}

TEST(SubstrateEquivalence, StreamedMomentsMatchBitForBit) {
  const auto s_sim = run_monitor(/*threads=*/false);
  const auto s_thr = run_monitor(/*threads=*/true);
  ASSERT_EQ(s_sim.size(), 3u);
  ASSERT_EQ(s_thr.size(), 3u);
  for (std::size_t t = 0; t < 3; ++t) {
    const auto& a = s_sim[t];
    const auto& b = s_thr[t];
    EXPECT_EQ(a.count, b.count) << t;
    EXPECT_EQ(std::memcmp(&a.min, &b.min, sizeof(double)), 0) << t;
    EXPECT_EQ(std::memcmp(&a.max, &b.max, sizeof(double)), 0) << t;
    EXPECT_EQ(std::memcmp(&a.mean, &b.mean, sizeof(double)), 0) << t;
    EXPECT_EQ(std::memcmp(&a.m2, &b.m2, sizeof(double)), 0) << t;
    EXPECT_EQ(a.histogram, b.histogram) << t;
  }
}

// ---- threaded transport / scheduler stress (TSan target) ----

exec::Co<void> stress_producer(SeamCluster& sc, arr::DArray& da, int rank,
                               int producers,
                               std::atomic<int>& scattered) {
  // Each producer owns the chunk rows r, r+producers, r+2*producers, ...
  for (std::int64_t lin = rank; lin < da.grid().num_chunks();
       lin += producers) {
    const arr::Index c = da.grid().coord_of(lin);
    arr::Index shape(c.size());
    for (std::size_t d = 0; d < shape.size(); ++d)
      shape[d] = da.grid().box_of(c).extent(d);
    arr::NDArray blk(shape, static_cast<double>(lin));
    const std::uint64_t b = blk.bytes();
    co_await sc.client->scatter(
        da.key_of(c), dts::Data::make<arr::NDArray>(std::move(blk), b),
        da.worker_of(c), true);
    scattered.fetch_add(1, std::memory_order_relaxed);
  }
}

exec::Co<void> stress_root(SeamCluster& sc, int producers,
                           std::atomic<int>& scattered,
                           std::vector<ml::FieldStats>& out) {
  // 8 steps x 8 chunks: 64 external blocks pushed from `producers`
  // concurrent strands into one scheduler and 4 workers.
  arr::DArray da = co_await arr::DArray::from_external(
      *sc.client, "stress", ix(8, 8, 32), ix(1, 8, 4));
  ml::MonitorOptions opts;
  opts.bins = 4;
  opts.hist_hi = 70.0;
  ml::InSituFieldMonitor monitor(*sc.client, opts);
  ml::ExternalArrayProvider provider(da);
  const ml::MonitorFit fit = co_await monitor.submit(provider);

  std::vector<exec::Co<void>> tasks;
  for (int r = 0; r < producers; ++r)
    tasks.push_back(stress_producer(sc, da, r, producers, scattered));
  co_await exec::when_all(sc.engine(), std::move(tasks));

  out = co_await monitor.collect(fit);
  co_await sc.runtime->shutdown();
}

TEST(ThreadedStress, ManyProducersOneScheduler) {
  SeamCluster sc(/*threads=*/true, /*workers=*/4);
  constexpr int kProducers = 16;
  std::atomic<int> scattered{0};
  std::vector<ml::FieldStats> stats;
  sc.engine().spawn_on(sc.engine().new_strand(),
                       stress_root(sc, kProducers, scattered, stats));
  sc.engine().run();
  sc.thr_engine->shutdown();

  EXPECT_EQ(scattered.load(), 64);
  ASSERT_EQ(stats.size(), 8u);
  for (std::size_t t = 0; t < stats.size(); ++t) {
    // Every step merges all 8 of its chunks: 8 * (8*4) samples.
    EXPECT_EQ(stats[t].count, 8 * 8 * 4) << t;
  }
}

}  // namespace
