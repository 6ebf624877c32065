// End-to-end integration tests: every pipeline of the paper's evaluation
// runs through the harness, in synthetic mode (paper-scale code paths,
// size-only payloads) and in functional mode (real Heat2D data, real
// IPCA math, numerically checked against a local reference).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>

#include "deisa/apps/heat2d.hpp"
#include "deisa/dts/messages.hpp"
#include "deisa/harness/scenario.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace harness = deisa::harness;
namespace la = deisa::linalg;
namespace ml = deisa::ml;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

harness::ScenarioParams small_synthetic() {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 2ull * 1024 * 1024;  // keep simulated volumes small
  p.timesteps = 5;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  return p;
}

harness::ScenarioParams small_real() {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);  // 16x16 blocks
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  return p;
}

/// Messages of one kind the scheduler received. `kind` must name a
/// SchedMsgKind, so a misspelled kind fails instead of reading 0.
std::uint64_t msgs(const harness::RunResult& r, const std::string& kind) {
  bool known = false;
  for (std::size_t k = 0; k < dts::kSchedMsgKindCount; ++k)
    known = known || kind == dts::to_string(static_cast<dts::SchedMsgKind>(k));
  EXPECT_TRUE(known) << "no message kind " << kind;
  return r.metrics.counter("scheduler.messages." + kind);
}

class AllPipelines : public ::testing::TestWithParam<harness::Pipeline> {};

TEST_P(AllPipelines, SyntheticRunCompletesWithSaneTimings) {
  const auto pipeline = GetParam();
  const auto p = small_synthetic();
  const auto res = harness::run_scenario(pipeline, p);

  ASSERT_EQ(res.sim_compute.size(), 4u);
  ASSERT_EQ(res.sim_compute[0].size(), 5u);
  for (int r = 0; r < 4; ++r)
    for (int t = 0; t < 5; ++t) {
      EXPECT_GT(res.sim_compute[static_cast<std::size_t>(r)]
                               [static_cast<std::size_t>(t)],
                0.0);
      EXPECT_GT(res.sim_io[static_cast<std::size_t>(r)]
                          [static_cast<std::size_t>(t)],
                0.0);
    }
  EXPECT_GT(res.analytics_seconds, 0.0);
  EXPECT_GT(res.sim_end, 0.0);
  EXPECT_GE(res.total_seconds, res.sim_end);
  const auto count = [&res](const char* name) {
    return res.metrics.counter(name);
  };
  EXPECT_GT(count("scheduler.messages.total"), 0u);
  if (!harness::is_posthoc(pipeline)) {
    EXPECT_EQ(count("bridge.blocks_sent"), 4u * 5u);  // full contract
  } else {
    EXPECT_EQ(count("pfs.bytes_written"), 4u * 5u * p.block_bytes);
    EXPECT_EQ(count("pfs.bytes_read"), count("pfs.bytes_written"));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pipelines, AllPipelines,
    ::testing::Values(harness::Pipeline::kPosthocOldIpca,
                      harness::Pipeline::kPosthocNewIpca,
                      harness::Pipeline::kDeisa1, harness::Pipeline::kDeisa2,
                      harness::Pipeline::kDeisa3),
    [](const auto& info) {
      std::string n = harness::to_string(info.param);
      for (char& c : n)
        if (c == '-') c = '_';
      return n;
    });

TEST(Harness, Deisa3SendsNoBridgeHeartbeats) {
  const auto res =
      harness::run_scenario(harness::Pipeline::kDeisa3, small_synthetic());
  EXPECT_EQ(msgs(res, "heartbeat_bridge"), 0u);
  // Startup protocol: 1 arrays variable_set + 1 contract variable_set.
  EXPECT_EQ(msgs(res, "variable_set"), 2u);
  // One contract variable_get per bridge.
  EXPECT_EQ(msgs(res, "variable_get"),
            1u + 4u);  // adaptor's arrays get + 4 bridges' contract gets
  EXPECT_EQ(msgs(res, "queue_put"), 0u);
}

TEST(Harness, Deisa1UsesQueuesAndHeartbeats) {
  auto p = small_synthetic();
  p.sim_cell_rate = 5e4;  // slow the steps so 5 s heartbeats fire
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  EXPECT_GT(msgs(res, "heartbeat_bridge"), 0u);
  // Selection queues: one put per rank; ready queue: one put per rank
  // per timestep.
  EXPECT_EQ(msgs(res, "queue_put"), 4u + 4u * 5u);
  EXPECT_EQ(msgs(res, "queue_get"), 4u + 4u * 5u);
  // Per-step scatter: update_data per rank per step.
  EXPECT_EQ(msgs(res, "update_data"), 4u * 5u);
  // Per-step graph submission (+1 for the outputs graph).
  EXPECT_EQ(msgs(res, "update_graph"), 5u + 1u);
}

TEST(Harness, MetadataMessagesDropFromDeisa1ToDeisa3) {
  // The paper's §2.1 claim: per-step metadata (2·T·R + heartbeats) in
  // DEISA1 vs (1 + R) setup-only messages in DEISA3.
  const auto p = small_synthetic();
  const auto r1 = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  const auto r3 = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  const auto coordination = [](const harness::RunResult& r) {
    // Everything except data registrations, task traffic and worker
    // heartbeats: the bridge-side coordination metadata.
    return msgs(r, "queue_put") + msgs(r, "queue_get") +
           msgs(r, "heartbeat_bridge") + msgs(r, "variable_set") +
           msgs(r, "variable_get");
  };
  EXPECT_GT(coordination(r1), 2u * 4u * 5u);  // ≥ 2·T·R
  EXPECT_LE(coordination(r3), 2u + 2u * 4u);  // O(1 + R)
}

TEST(Harness, ContractFilteringReducesDataMoved) {
  auto p = small_synthetic();
  p.ranks = 4;
  p.contract_fraction = 0.5;  // keep half the Y block-rows
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  EXPECT_EQ(res.metrics.counter("bridge.blocks_sent"), 2u * 5u);
  EXPECT_EQ(res.metrics.counter("bridge.blocks_filtered"), 2u * 5u);

  auto full = small_synthetic();
  const auto res_full = harness::run_scenario(harness::Pipeline::kDeisa3, full);
  EXPECT_LT(res.metrics.counter("net.bytes"),
            res_full.metrics.counter("net.bytes"));
}

TEST(Harness, FunctionalDeisa3MatchesLocalIpca) {
  const auto p = small_real();
  const auto res = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  ASSERT_EQ(res.singular_values.size(), 2u);

  // Local reference: run Heat2D on one rank-equivalent global field and
  // feed the same slabs to a local IncrementalPca.
  // (The harness's Heat2D is deterministic, so we recompute it here.)
  const auto res2 = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  EXPECT_EQ(res.singular_values, res2.singular_values);  // deterministic
  EXPECT_GT(res.singular_values[0], 0.0);
  EXPECT_GE(res.singular_values[0], res.singular_values[1]);
}

TEST(Harness, FunctionalPipelinesAgreeOnTheModel) {
  // DEISA3 (in transit), DEISA1 (per-step scatter) and post hoc (file
  // round trip) must produce the SAME fitted model — they analyze the
  // same simulation.
  const auto p = small_real();
  const auto d3 = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  const auto d1 = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  const auto ph = harness::run_scenario(harness::Pipeline::kPosthocNewIpca, p);
  const auto ph_old =
      harness::run_scenario(harness::Pipeline::kPosthocOldIpca, p);
  ASSERT_EQ(d3.singular_values.size(), 2u);
  ASSERT_EQ(d1.singular_values.size(), 2u);
  ASSERT_EQ(ph.singular_values.size(), 2u);
  ASSERT_EQ(ph_old.singular_values.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(d1.singular_values[i], d3.singular_values[i],
                1e-9 * std::max(1.0, d3.singular_values[0]));
    EXPECT_NEAR(ph.singular_values[i], d3.singular_values[i],
                1e-9 * std::max(1.0, d3.singular_values[0]));
    EXPECT_NEAR(ph_old.singular_values[i], d3.singular_values[i],
                1e-9 * std::max(1.0, d3.singular_values[0]));
    EXPECT_NEAR(ph.explained_variance[i], d3.explained_variance[i],
                1e-9 * std::max(1.0, d3.explained_variance[0]));
  }
}

TEST(Harness, DeterministicForSameSeed) {
  auto p = small_synthetic();
  p.cluster.jitter_sigma = 0.15;
  p.sched.service_jitter_sigma = 0.4;
  p.alloc_seed = 99;
  const auto a = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  const auto b = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  EXPECT_EQ(a.sim_io, b.sim_io);
  EXPECT_DOUBLE_EQ(a.analytics_seconds, b.analytics_seconds);
  p.alloc_seed = 100;
  const auto c = harness::run_scenario(harness::Pipeline::kDeisa1, p);
  EXPECT_NE(a.sim_io, c.sim_io);
}

TEST(HarnessFault, WorkerKillRecoversWithIdenticalResults) {
  // The acceptance bar of the recovery subsystem: a run with one worker
  // killed mid-run completes and produces the exact same analytics
  // results as the fault-free run.
  const auto p = small_real();
  const auto clean = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  ASSERT_EQ(clean.singular_values.size(), 2u);
  EXPECT_EQ(clean.metrics.counter("fault.workers_killed"), 0u);
  EXPECT_EQ(clean.metrics.counter("scheduler.recovery.workers_lost"), 0u);

  auto pf = p;
  pf.faults.kills.emplace_back(1, clean.sim_end * 0.5);
  const auto faulty = harness::run_scenario(harness::Pipeline::kDeisa3, pf);
  const auto count = [&faulty](const char* name) {
    return faulty.metrics.counter(name);
  };
  EXPECT_EQ(count("fault.workers_killed"), 1u);
  EXPECT_EQ(count("scheduler.recovery.workers_lost"), 1u);
  EXPECT_GT(count("scheduler.recovery.external_rearmed") +
                count("scheduler.recovery.tasks_rerun") +
                count("scheduler.recovery.keys_recomputed") +
                count("scheduler.recovery.external_rerouted"),
            0u);
  ASSERT_EQ(faulty.singular_values.size(), clean.singular_values.size());
  for (std::size_t i = 0; i < clean.singular_values.size(); ++i)
    EXPECT_EQ(faulty.singular_values[i], clean.singular_values[i]);
  for (std::size_t i = 0; i < clean.explained_variance.size(); ++i)
    EXPECT_EQ(faulty.explained_variance[i], clean.explained_variance[i]);
}

TEST(HarnessFault, SameFaultSeedReplaysIdentically) {
  // A plan plus a seed is a complete description of the failure trace:
  // repeated runs agree event for event (timings, message counts, and
  // recovery actions all match exactly).
  auto p = small_synthetic();
  p.faults = deisa::fault::FaultPlan::parse(
      "kill:0@0.4;dup:0.4;delay:0.2@0.01;seed:11");
  const auto a = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  const auto b = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  EXPECT_EQ(a.metrics.counter("fault.workers_killed"), 1u);
  // Every count agrees: messages, kills, recovery and stale arrivals.
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.sim_io, b.sim_io);
  EXPECT_DOUBLE_EQ(a.analytics_seconds, b.analytics_seconds);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);

  // A different seed perturbs a different set of messages.
  auto p2 = p;
  p2.faults.seed = 12;
  const auto c = harness::run_scenario(harness::Pipeline::kDeisa3, p2);
  EXPECT_NE(a.total_seconds, c.total_seconds);
}

TEST(HarnessFault, EmptyPlanLeavesRunsUntouched) {
  // The fault hooks must be invisible when no plan is armed: identical
  // message counts and timings with and without the (empty) fault config.
  const auto p = small_synthetic();
  auto pf = p;
  pf.faults = deisa::fault::FaultPlan();
  const auto a = harness::run_scenario(harness::Pipeline::kDeisa2, p);
  const auto b = harness::run_scenario(harness::Pipeline::kDeisa2, pf);
  EXPECT_EQ(a.metrics.counters, b.metrics.counters);
  EXPECT_EQ(a.sim_io, b.sim_io);
  EXPECT_DOUBLE_EQ(a.total_seconds, b.total_seconds);
  EXPECT_EQ(b.metrics.counter("fault.workers_killed"), 0u);
  EXPECT_EQ(b.metrics.counter("scheduler.recovery.workers_lost"), 0u);
}

// CI's fault config (`deisa_scenario` on ranks 4, workers 3, block_mib 1,
// timesteps 6, real_data, default seed 1000), sim substrate.
harness::ScenarioParams ci_fault_config() {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 3;
  p.block_bytes = 1024 * 1024;
  p.timesteps = 6;
  p.real_data = true;
  p.alloc_seed = 1000;
  return p;
}

template <typename Map>
std::set<std::string> names_of(const Map& m) {
  std::set<std::string> out;
  for (const auto& [name, value] : m) out.insert(name);
  return out;
}

std::size_t samples(const harness::RunResult& r, const std::string& name) {
  const auto it = r.metrics.histograms.find(name);
  return it == r.metrics.histograms.end() ? 0 : it->second.count;
}

TEST(HarnessMetrics, DumpNamesArePinned) {
  // The metrics dump's names and headline values, pinned to the output of
  // the registry-based instrumentation that preceded the typed fields
  // (`deisa_scenario --metrics-out`). A count or duration read from the
  // wrong field, or published under a changed name, fails here.
  const std::set<std::string> gauges = {
      "scenario.seed", "worker-0.memory_bytes", "worker-1.memory_bytes",
      "worker-2.memory_bytes"};
  std::set<std::string> histograms = {"net.transfer_seconds",
                                      "worker.execute_seconds"};
  const std::set<std::string> common = {
      "adaptor.external_futures",
      "bridge.batched_pushes",
      "bridge.blocks_sent",
      "bridge.bytes_sent",
      "dataplane.bytes_moved",
      "net.bytes",
      "net.control_messages",
      "net.transfers",
      "scheduler.created.external",
      "scheduler.created.waiting",
      "scheduler.messages.create_external",
      "scheduler.messages.shutdown",
      "scheduler.messages.task_finished",
      "scheduler.messages.total",
      "scheduler.messages.update_data",
      "scheduler.messages.update_graph",
      "scheduler.messages.variable_get",
      "scheduler.messages.variable_set",
      "scheduler.messages.wait_key",
      "scheduler.tasks.created",
      "scheduler.transitions.external->memory",
      "scheduler.transitions.processing->memory",
      "scheduler.transitions.ready->processing",
      "scheduler.transitions.waiting->ready",
      "worker.peer_fetch_bytes",
      "worker.peer_fetch_cached_bytes",
      "worker.peer_fetches",
      "worker.tasks_executed"};

  auto fault = ci_fault_config();
  fault.faults = deisa::fault::FaultPlan::parse("kill:1@0.2;dup:0.3;seed:7");
  const auto f = harness::run_scenario(harness::Pipeline::kDeisa3, fault);
  std::set<std::string> counters = common;
  for (const char* n :
       {"bridge.blocks_repushed", "fault.workers_killed",
        "net.faults.duplicated", "scheduler.messages.heartbeat_worker",
        "scheduler.messages.worker_lost",
        "scheduler.recovery.external_rearmed", "scheduler.recovery.suspected",
        "scheduler.recovery.tasks_rerun", "scheduler.recovery.workers_lost",
        "scheduler.stale.task_finished",
        "scheduler.transitions.memory->external",
        "scheduler.transitions.processing->waiting", "worker.crashes",
        "worker.fetches_aborted", "worker.messages_dropped_dead",
        "worker.peer_fetch_cache_hits"})
    counters.insert(n);
  EXPECT_EQ(names_of(f.metrics.counters), counters);
  EXPECT_EQ(names_of(f.metrics.gauges), gauges);
  EXPECT_EQ(names_of(f.metrics.histograms), histograms);
  EXPECT_EQ(f.metrics.counter("scheduler.messages.total"), 68u);
  EXPECT_EQ(f.metrics.counter("worker.tasks_executed"), 14u);
  EXPECT_EQ(f.metrics.counter("net.transfers"), 146u);
  EXPECT_EQ(f.metrics.counter("net.control_messages"), 140u);
  EXPECT_EQ(f.metrics.counter("dataplane.bytes_moved"), 93466176u);
  EXPECT_EQ(samples(f, "worker.execute_seconds"), 14u);
  EXPECT_EQ(samples(f, "net.transfer_seconds"), 146u);

  auto gc = ci_fault_config();
  gc.shards = 4;
  gc.release_consumed = true;
  const auto g = harness::run_scenario(harness::Pipeline::kDeisa3, gc);
  counters = common;
  for (const char* n :
       {"scheduler.gc.bytes_released", "scheduler.gc.keys_released",
        "scheduler.messages.shard_key_done",
        "scheduler.messages.shard_key_released",
        "scheduler.shard.notify_msgs", "scheduler.shard.release_acks",
        "scheduler.shard.remote_edges", "worker.bytes_released",
        "worker.keys_released"})
    counters.insert(n);
  EXPECT_EQ(names_of(g.metrics.counters), counters);
  EXPECT_EQ(names_of(g.metrics.gauges), gauges);
  EXPECT_EQ(names_of(g.metrics.histograms), histograms);
  EXPECT_EQ(g.metrics.counter("scheduler.messages.total"), 120u);
  EXPECT_EQ(g.metrics.counter("worker.tasks_executed"), 14u);
  EXPECT_EQ(g.metrics.counter("net.transfers"), 147u);
  EXPECT_EQ(g.metrics.counter("net.control_messages"), 217u);
  EXPECT_EQ(g.metrics.counter("dataplane.bytes_moved"), 75644192u);
  EXPECT_EQ(samples(g, "worker.execute_seconds"), 14u);
  EXPECT_EQ(samples(g, "net.transfer_seconds"), 147u);

  // A delay fault adds its own histogram, one sample per delayed flow.
  auto delay = ci_fault_config();
  delay.faults = deisa::fault::FaultPlan::parse("delay:0.3@0.05;seed:7");
  const auto d = harness::run_scenario(harness::Pipeline::kDeisa3, delay);
  counters = common;
  counters.insert("net.faults.delayed");
  counters.insert("scheduler.messages.heartbeat_worker");
  histograms.insert("net.faults.delay_seconds");
  EXPECT_EQ(names_of(d.metrics.counters), counters);
  EXPECT_EQ(names_of(d.metrics.gauges), gauges);
  EXPECT_EQ(names_of(d.metrics.histograms), histograms);
  EXPECT_EQ(samples(d, "net.faults.delay_seconds"), 41u);
  EXPECT_EQ(d.metrics.counter("net.faults.delayed"), 41u);

  // Post hoc: the PFS ops get a histogram; no bridge, no external task.
  const auto ph = harness::run_scenario(harness::Pipeline::kPosthocNewIpca,
                                        ci_fault_config());
  EXPECT_EQ(names_of(ph.metrics.counters),
            (std::set<std::string>{
                "dataplane.bytes_moved",
                "net.bytes",
                "net.control_messages",
                "net.transfers",
                "pfs.bytes_read",
                "pfs.bytes_written",
                "pfs.ops",
                "scheduler.created.waiting",
                "scheduler.messages.heartbeat_worker",
                "scheduler.messages.shutdown",
                "scheduler.messages.task_finished",
                "scheduler.messages.total",
                "scheduler.messages.update_graph",
                "scheduler.messages.wait_key",
                "scheduler.tasks.created",
                "scheduler.transitions.processing->memory",
                "scheduler.transitions.ready->processing",
                "scheduler.transitions.waiting->ready",
                "worker.peer_fetch_bytes",
                "worker.peer_fetch_cached_bytes",
                "worker.peer_fetches",
                "worker.tasks_executed"}));
  EXPECT_EQ(names_of(ph.metrics.gauges), gauges);
  EXPECT_EQ(names_of(ph.metrics.histograms),
            (std::set<std::string>{"net.transfer_seconds", "pfs.op_seconds",
                                   "worker.execute_seconds"}));
  EXPECT_EQ(samples(ph, "pfs.op_seconds"), 48u);
  EXPECT_EQ(samples(ph, "worker.execute_seconds"), 38u);
  EXPECT_EQ(samples(ph, "net.transfer_seconds"), 123u);

  // CI's threads-substrate config. Only the worker's execute durations
  // are a distribution there; the executor's latency and the NIC lock
  // wait are gauges (their totals and extremes), and the model-time
  // transfer histograms belong to the simulated network. Counts and
  // durations vary with the thread interleaving, names do not.
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 1024 * 1024;
  p.timesteps = 5;
  p.real_data = true;
  p.alloc_seed = 1000;
  p.substrate = harness::Substrate::kThreads;
  p.time_scale = 0.005;
  const auto r = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  EXPECT_EQ(names_of(r.metrics.histograms),
            std::set<std::string>{"worker.execute_seconds"});
  EXPECT_EQ(samples(r, "worker.execute_seconds"),
            r.metrics.counter("worker.tasks_executed"));
  EXPECT_GT(samples(r, "worker.execute_seconds"), 0u);
  EXPECT_EQ(names_of(r.metrics.gauges),
            (std::set<std::string>{
                "rt.exec.max_queue_depth", "rt.exec.post_run_latency_max_s",
                "rt.exec.post_run_latency_mean_s", "rt.exec.posts",
                "rt.exec.resumes", "rt.exec.strands", "rt.exec.timer_fires",
                "rt.nic.lock_wait_total_s", "scenario.seed",
                "worker-0.memory_bytes", "worker-1.memory_bytes"}));
}

TEST(Harness, IterationSummarySkipsFirstIterations) {
  harness::RunResult r;
  r.sim_io = {{10.0, 1.0, 1.0}, {10.0, 2.0, 2.0}};
  const auto all = r.iteration_summary(r.sim_io, 0);
  const auto skip = r.iteration_summary(r.sim_io, 1);
  EXPECT_EQ(all.count, 6u);
  EXPECT_EQ(skip.count, 4u);
  EXPECT_DOUBLE_EQ(skip.mean, 1.5);
}

TEST(Harness, GeometryHelpers) {
  harness::ScenarioParams p;
  p.ranks = 8;
  p.block_bytes = 128ull * 1024 * 1024;
  EXPECT_EQ(p.local_edge(), 4096);
  const auto [px, py] = p.proc_grid();
  EXPECT_EQ(px * py, 8);
  const auto va = p.virtual_array();
  EXPECT_EQ(va.shape[1], 4096 * px);
  EXPECT_EQ(va.shape[2], 4096 * py);
  EXPECT_EQ(va.block_bytes(), p.block_bytes);
}

// ---- the new IPCA's solver on the paper's data ----

/// One Heat2d rank: step, and after each step copy the block into that
/// step's slab if the rank lies in column `col`. A slab holds the column
/// with y as samples and x as features, as perfbench's heat2d-ipca feeds
/// its IPCA.
exec::Co<void> column_rank(apps::Heat2d& solver, mpix::Comm& comm,
                           const apps::Heat2dConfig& cfg, int col,
                           std::vector<la::Matrix>& slabs) {
  const auto nx = static_cast<std::size_t>(cfg.local_nx);
  const auto ny = static_cast<std::size_t>(cfg.local_ny);
  const std::size_t y0 = static_cast<std::size_t>(solver.py()) * ny;
  for (la::Matrix& slab : slabs) {
    co_await solver.step(comm);
    if (solver.px() != col) continue;
    const auto field = solver.field().flat();  // (nx, ny), row-major
    for (std::size_t x = 0; x < nx; ++x)
      for (std::size_t y = 0; y < ny; ++y) slab(y0 + y, x) = field[x * ny + y];
  }
}

TEST(IpcaSolver, SketchMatchesExactOnHeat2dSlabs) {
  // heat2d-ipca's shape: 4x4 ranks of 48x48 blocks and a column of 4
  // blocks, so each step is 192 samples x 48 features.
  apps::Heat2dConfig cfg;
  cfg.local_nx = 48;
  cfg.local_ny = 48;
  cfg.proc_x = 4;
  cfg.proc_y = 4;
  cfg.timesteps = 50;
  std::vector<la::Matrix> slabs(static_cast<std::size_t>(cfg.timesteps),
                                la::Matrix(192, 48));
  {
    sim::Engine eng;
    net::ClusterParams cp;
    cp.physical_nodes = cfg.ranks();
    net::Cluster cluster(eng, cp);
    std::vector<int> nodes;
    for (int r = 0; r < cfg.ranks(); ++r) nodes.push_back(r / 2);
    mpix::Comm comm(cluster, std::move(nodes));
    std::vector<std::unique_ptr<apps::Heat2d>> solvers;
    for (int r = 0; r < cfg.ranks(); ++r) {
      solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
      solvers.back()->initialize();
      eng.spawn(column_rank(*solvers.back(), comm, cfg, 1, slabs));
    }
    eng.run();
  }

  ml::PcaOptions exact_opts;
  exact_opts.n_components = 2;
  ml::PcaOptions sketch_opts = exact_opts;
  sketch_opts.randomized = true;
  // Every stacked matrix (192 or 2 + 192 + 1 rows) is 48 wide, wider
  // than the sketch, so the randomized branch runs on every step.
  ASSERT_LT(sketch_opts.n_components + ml::kSketchOversample,
            std::min(slabs[0].rows(), slabs[0].cols()));
  ml::IncrementalPca exact(exact_opts);
  ml::IncrementalPca sketch(sketch_opts);
  for (const la::Matrix& slab : slabs) {
    exact.partial_fit(slab);
    sketch.partial_fit(slab);
  }
  ASSERT_EQ(sketch.singular_values().size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(sketch.singular_values()[i], exact.singular_values()[i],
                1e-9 * exact.singular_values()[i]);
    EXPECT_NEAR(sketch.explained_variance()[i], exact.explained_variance()[i],
                1e-9 * exact.explained_variance()[i]);
  }
}

}  // namespace
