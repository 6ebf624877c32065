// Experiment harness: one entry point per workflow pipeline of the
// paper's evaluation (post hoc with old/new IPCA, DEISA1/2/3), shared by
// every figure bench. A scenario is fully described by ScenarioParams;
// run_scenario() builds the simulated cluster, places the actors exactly
// as §3.3.2 describes (scheduler on the first allocation node, client on
// the second, workers next, simulation ranks last, two ranks per node),
// drives the workflow to completion, and returns per-rank per-iteration
// timings plus the run's metrics snapshot.
#pragma once

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "deisa/core/contract.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/fault/fault.hpp"
#include "deisa/io/pfs.hpp"
#include "deisa/ml/insitu.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/util/stats.hpp"

namespace deisa::harness {

enum class Pipeline {
  kPosthocOldIpca,  // DASK: write to PFS, read back, per-batch IPCA
  kPosthocNewIpca,  // DASK: write to PFS, read back, single-graph IPCA
  kDeisa1,          // HiPC'21 prototype: per-step scatter + queues + 5 s hb
  kDeisa2,          // this paper, 60 s heartbeats
  kDeisa3,          // this paper, heartbeats off
};

const char* to_string(Pipeline p);
bool is_posthoc(Pipeline p);

/// Which Executor/Transport backend runs the actor code.
enum class Substrate {
  kSim,      // deterministic virtual-time simulation (all paper figures)
  kThreads,  // real threads + wall clock (rt::ThreadedExecutor)
};

const char* to_string(Substrate s);

/// Node layout of the paper's experiments: two simulation ranks per node
/// and one Dask worker per node.
inline constexpr int kRanksPerNode = 2;
inline constexpr int kWorkersPerNode = 1;

struct ScenarioParams {
  // ---- workload geometry ----
  int ranks = 4;
  int workers = 2;
  std::uint64_t block_bytes = 128ull * 1024 * 1024;  // per process
  int timesteps = 10;
  std::size_t n_components = 2;
  /// Fraction of the Y dimension selected by the contract (1.0 = all).
  double contract_fraction = 1.0;
  /// Virtual arrays published per run (multi-array workflows: every rank
  /// pushes a block of each array per timestep and the adaptor fits one
  /// IPCA per array). Requires the external-task pipelines (DEISA2/3).
  int arrays = 1;

  // ---- machine calibration (defaults ≈ Irene skylake + its Lustre) ----
  net::ClusterParams cluster = irene_cluster();
  io::PfsParams pfs;
  dts::SchedulerParams sched = paper_scheduler();
  ml::AnalyticsCostModel analytics;
  /// Effective stencil update rate of the solver (cells/s); chosen so a
  /// 128 MiB block costs ≈ 2.4 s per iteration as in Figure 2a.
  double sim_cell_rate = 7.0e6;
  double worker_heartbeat_interval = 1.0;
  /// Refcount GC: release a key from worker memory once every consumer
  /// task has finished (bounded residency over long runs), including
  /// consumers ingested on other shards. Off by default — incompatible
  /// with lineage recomputation under faults.
  bool release_consumed = false;
  /// Scheduler shards: partition the key space across N scheduler actors
  /// (dts::ShardedScheduler). 1 is bit-identical to the single
  /// scheduler; N > 1 composes with fault plans (shard 0 is the
  /// liveness authority) and with release_consumed (cross-shard
  /// consumer accounting).
  int shards = 1;

  /// Allocation seed: different submissions get different node placements
  /// (the run-to-run variability axis of Figure 5).
  std::uint64_t alloc_seed = 1;

  /// Provenance of generator-built scenarios (src/testkit): the corpus
  /// seed that fully determines these params. Recorded in RunResult,
  /// trace metadata and bench JSON so any corpus failure replays with
  /// `deisa_scenario --scenario-seed=`. 0 = hand-written scenario.
  std::uint64_t scenario_seed = 0;

  /// Functional mode: move real Heat2D data through the whole pipeline
  /// and run the real IPCA math (small problems only).
  bool real_data = false;

  /// Ablation: force per-step graph submission in DEISA2/3 (isolates the
  /// ahead-of-time-graph contribution from the external-task transport).
  bool force_per_step_analytics = false;

  /// Record a full event trace of the run (spans/instants in sim time,
  /// exportable as Chrome trace JSON). Metrics are always collected; the
  /// trace recorder is only attached when this is set.
  bool trace = false;
  /// Ring-buffer capacity of the trace recorder (bounded memory; oldest
  /// events are evicted beyond this, and `trace.dropped_events` counts
  /// them).
  std::size_t trace_capacity = obs::Recorder::kDefaultCapacity;

  /// Fault plan armed against the run (worker kills, message drop/dup,
  /// push delays). With a non-empty plan the scheduler's failure detector
  /// is auto-enabled unless `sched.heartbeat_timeout` was set explicitly.
  fault::FaultPlan faults;

  // ---- execution substrate ----
  /// kSim reproduces the paper's modeled timings deterministically;
  /// kThreads runs the same actor code on real threads (functional
  /// outputs identical, wall-clock timings are not model predictions).
  /// Fault plans require kSim.
  Substrate substrate = Substrate::kSim;
  /// kThreads: worker threads (0 = hardware concurrency).
  int substrate_threads = 0;
  /// kThreads: wall seconds per model second. Scenarios are scripted in
  /// model seconds (solver costs, heartbeat intervals); a small scale
  /// compresses those sleeps so functional runs finish quickly.
  double time_scale = 0.05;

  static net::ClusterParams irene_cluster();
  static dts::SchedulerParams paper_scheduler();
  /// Per-rank local block edge (square blocks of doubles).
  std::int64_t local_edge() const;
  /// Process grid (x fastest), roughly square.
  std::pair<int, int> proc_grid() const;
  /// The virtual array describing the produced temperature field.
  core::VirtualArray virtual_array() const { return virtual_array(0); }
  /// Array `index` of a multi-array workflow (same geometry, distinct
  /// name/key space; index 0 keeps the classic "G_temp" name).
  core::VirtualArray virtual_array(int index) const;
  /// All `arrays` virtual arrays of the run.
  std::vector<core::VirtualArray> virtual_arrays() const;
  int nodes_needed() const;
};

struct RunResult {
  Pipeline pipeline{};
  /// Copied from ScenarioParams: generator seed (0 = hand-written) —
  /// replay provenance.
  std::uint64_t scenario_seed = 0;
  /// Per-rank, per-iteration solver compute seconds.
  std::vector<std::vector<double>> sim_compute;
  /// Per-rank, per-iteration data-movement seconds (deisa send or PFS
  /// write, depending on the pipeline).
  std::vector<std::vector<double>> sim_io;
  /// Analytics wall time (contract signed → final result in memory for
  /// deisa; read start → final result for post hoc).
  double analytics_seconds = 0.0;
  /// End of the simulation phase (all ranks done).
  double sim_end = 0.0;
  double total_seconds = 0.0;

  /// Scheduler shards the run used (1 = the single-scheduler layout).
  int shards = 1;
  /// Messages handled by each shard (size == shards; [0] equals the
  /// `scheduler.messages.total` counter at shards == 1).
  std::vector<std::uint64_t> shard_messages;
  /// Per-shard recovery breakdown (size == shards); the sums over shards
  /// are the `scheduler.recovery.*` and `scheduler.stale.*` counters.
  std::vector<dts::RecoveryCounters> shard_recovery;
  /// Highest per-worker store residency over the run.
  std::uint64_t worker_peak_bytes = 0;

  /// Every counter, gauge and histogram of the run, read from the actors'
  /// typed fields once the run is over.
  obs::MetricsSnapshot metrics;
  /// Event trace of the run (only set when ScenarioParams::trace).
  std::shared_ptr<obs::Recorder> trace;

  // Functional-mode outputs (real_data only).
  std::vector<double> singular_values;
  std::vector<double> explained_variance;

  /// Mean/stddev of per-iteration values over ranks and iterations,
  /// skipping `skip_first` iterations (the paper drops the first post-hoc
  /// iteration, dominated by file creation).
  util::Summary iteration_summary(
      const std::vector<std::vector<double>>& series, int skip_first = 0) const;
  /// Per-rank mean and stddev over iterations (Figure 5 panels).
  std::vector<std::pair<double, double>> per_rank_io() const;
};

/// Run one workflow end to end. Throws on any internal inconsistency.
RunResult run_scenario(Pipeline pipeline, const ScenarioParams& params);

}  // namespace deisa::harness
