// Real-cost DEISA3 benchmark driver. One process runs one workload once
// and prints one JSON object as its last line; perfbench/run.py repeats it
// and aggregates.
//
//   deisa_perfbench --workload NAME --seed N [--trace 0|1] [--trace-out F]
//   deisa_perfbench --workload heat2d-ipca --seed N --reference
//   deisa_perfbench --workload NAME --seed N --setup-only
//
// Real-cost mode: every modeled cost is zeroed through public parameters
// (scheduler service model and jitter, analytics cost model, monitor scan
// rate, worker heartbeats) and model time runs kTimeScale times wall time,
// so the delays left are the C++ code itself. The workflow is wired from
// the public APIs of dts, core, ml, apps, mpix and rt, the way
// examples/heat2d_insitu.cpp does, so each layer call can be timed.
//
// Load model: closed loop. R producer ranks and one analytics client run
// as coroutines on the workload's executor threads (2, or 1 where two
// threads measure the host's thread scheduling rather than the program;
// see perfbench/README.md). A rank starts its next step only
// after its push has returned and the step barrier has completed. Setup
// ends at the start event: every rank holds the contract and every
// scheduler shard has answered a round trip sent after the ahead-of-time
// graph submit.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "deisa/apps/heat2d.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/ml/insitu.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/ml/streaming.hpp"
#include "deisa/mpix/comm.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/rt/threaded_transport.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/util/stats.hpp"
#include "spans.hpp"

namespace {

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace ml = deisa::ml;
namespace mpix = deisa::mpix;
namespace rt = deisa::rt;
namespace util = deisa::util;
using perfbench::Scope;
using perfbench::since_start_s;
using perfbench::SpanLog;

/// Wall seconds per model second. src/rt/threaded_executor.cpp rejects 0;
/// at this floor the only hard-coded model delay left (the monitor's 1e-6
/// model-second merge cost) is 1e-12 wall seconds, below the clock's
/// resolution, so no resume ever goes through the timer thread.
constexpr double kTimeScale = 1e-6;
/// Relative tolerance on the monitor's mean and variance: the merge tree
/// combines per-block moments (Chan et al.), the check sums in one pass.
constexpr double kMomentRtol = 1e-9;
/// Monitored values lie in [kValueLo - 1, kValueHi + 1); the histogram
/// covers [0, 100), so both edge bins also collect clamped out-of-range
/// samples.
constexpr double kValueLo = -10.0;
constexpr double kValueHi = 110.0;

struct Workload {
  const char* name;
  int roi_blocks;  // > 0: Heat2d ranks, a contract selecting this many
                   // neighbouring blocks along y, and IPCA on them;
                   // 0: seeded blocks, full contract, field monitor
  int proc_x;
  int proc_y;
  std::int64_t local_nx;
  std::int64_t local_ny;
  int steps;
  int workers;
  int shards;
  bool release_consumed;
  // Executor threads. On a 4-vCPU host at most two, leaving room for the
  // timer thread and the main thread.
  int threads;

  int ranks() const { return proc_x * proc_y; }
  bool heat2d() const { return roi_blocks > 0; }
};

// Why each workload exists is recorded in perfbench/README.md.
constexpr Workload kWorkloads[] = {
    {"heat2d-ipca", 4, 4, 4, 48, 48, 200, 2, 1, false, 2},
    {"wide-monitor", 0, 4, 4, 32, 32, 2000, 4, 1, false, 2},
    {"wide-monitor-shard4", 0, 4, 4, 32, 32, 2000, 4, 4, true, 1},
    {"bulk-monitor-gc", 0, 2, 2, 1024, 512, 60, 2, 1, true, 2},
};

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads)
    if (name == w.name) return &w;
  return nullptr;
}

std::uint64_t splitmix64(std::uint64_t& s) {
  std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Seeded monitor payloads: a table of values drawn from the seed, read
/// at a per-(rank, step) offset and shifted per (rank, step). Filling a
/// block costs about a copy, so a producer's cost stays with the bytes it
/// moves; the check regenerates the same values instead of keeping them.
class Payloads {
public:
  explicit Payloads(std::uint64_t seed) : seed_(seed), table_(kTable) {
    std::uint64_t s = seed;
    for (double& v : table_)
      v = kValueLo + (kValueHi - kValueLo) * unit(splitmix64(s));
  }

  void fill(std::span<double> out, int rank, int step) const {
    std::uint64_t s = seed_ * 0x2545f4914f6cdd1dULL ^
                      (static_cast<std::uint64_t>(rank) << 32) ^
                      static_cast<std::uint64_t>(step);
    const std::size_t off = splitmix64(s) & (kTable - 1);
    const double shift = 2.0 * unit(splitmix64(s)) - 1.0;
    for (std::size_t i = 0; i < out.size(); ++i)
      out[i] = table_[(off + i) & (kTable - 1)] + shift;
  }

private:
  static constexpr std::size_t kTable = 8192;  // power of two
  static double unit(std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  }
  std::uint64_t seed_;
  std::vector<double> table_;
};

/// Block coordinates (x, y) of the first block of heat2d-ipca's region of
/// interest; the region runs w.roi_blocks blocks along y from there.
std::pair<int, int> roi_origin(const Workload& w, std::uint64_t seed) {
  std::uint64_t s = seed;
  const auto xs = static_cast<std::uint64_t>(w.proc_x);
  const auto ys = static_cast<std::uint64_t>(w.proc_y - w.roi_blocks + 1);
  const auto pick = splitmix64(s);
  return {static_cast<int>(pick % xs), static_cast<int>((pick / xs) % ys)};
}

/// Whether `rank`'s block lies in the region of interest.
bool in_roi(const Workload& w, std::pair<int, int> origin, int rank) {
  const int x = rank % w.proc_x;  // block_coord: x varies fastest
  const int y = rank / w.proc_x;
  return x == origin.first && y >= origin.second &&
         y < origin.second + w.roi_blocks;
}

core::VirtualArray virtual_array(const Workload& w) {
  arr::Index shape;
  shape.push_back(w.steps);
  shape.push_back(w.local_nx * w.proc_x);
  shape.push_back(w.local_ny * w.proc_y);
  arr::Index sub;
  sub.push_back(1);
  sub.push_back(w.local_nx);
  sub.push_back(w.local_ny);
  return core::VirtualArray("G_temp", shape, sub, 0);
}

apps::Heat2dConfig heat_config(const Workload& w) {
  apps::Heat2dConfig hc;
  hc.local_nx = w.local_nx;
  hc.local_ny = w.local_ny;
  hc.proc_x = w.proc_x;
  hc.proc_y = w.proc_y;
  hc.timesteps = w.steps;
  return hc;
}

// Node layout: scheduler 0, analytics client 1, one node per worker, two
// ranks per node (the paper's runs).
int worker_node(int i) { return 2 + i; }
int rank_node(const Workload& w, int r) { return 2 + w.workers + r / 2; }
int node_count(const Workload& w) { return 2 + w.workers + (w.ranks() + 1) / 2; }

std::vector<int> rank_nodes(const Workload& w) {
  std::vector<int> nodes;
  for (int r = 0; r < w.ranks(); ++r) nodes.push_back(rank_node(w, r));
  return nodes;
}

/// The new IPCA (randomized solver, 2 components) with its cost model
/// zeroed.
ml::InSituIpcaOptions ipca_options() {
  ml::InSituIpcaOptions o;
  o.pca.n_components = 2;
  o.pca.randomized = true;
  o.labels = {"t", "X", "Y"};
  o.feature_labels = {"X"};
  o.sample_labels = {"Y"};
  o.cost.cost_multiplier = 0.0;
  o.cost.assemble_bytes_rate = std::numeric_limits<double>::infinity();
  o.name = "ipca";
  return o;
}

ml::MonitorOptions monitor_options() {
  ml::MonitorOptions o;
  o.scan_bytes_rate = std::numeric_limits<double>::infinity();
  return o;
}

dts::RuntimeParams runtime_params(const Workload& w) {
  dts::RuntimeParams rp;
  rp.scheduler.service_base = 0.0;
  rp.scheduler.service_per_task = 0.0;
  rp.scheduler.service_per_key = 0.0;
  rp.scheduler.service_queue_extra = 0.0;
  rp.scheduler.service_jitter_sigma = 0.0;
  rp.scheduler.heartbeat_timeout = 0.0;
  rp.scheduler.release_consumed = w.release_consumed;
  rp.worker.heartbeat_interval = 0.0;
  rp.data_plane = dts::DataPlane::kCopy;
  rp.shards = w.shards;
  return rp;
}

/// The region of interest as a box of the virtual array.
arr::Box roi_box(const Workload& w, std::pair<int, int> origin,
                 const core::VirtualArray& va) {
  arr::Box box;
  box.lo.assign(3, 0);
  box.hi = va.shape;
  box.lo[1] = origin.first * w.local_nx;
  box.hi[1] = box.lo[1] + w.local_nx;
  box.lo[2] = origin.second * w.local_ny;
  box.hi[2] = box.lo[2] + w.roi_blocks * w.local_ny;
  return box;
}

/// heat2d-ipca's analytics input: the region-of-interest blocks of every
/// step, as a grid of their own whose chunks map onto the contract's.
class RoiProvider final : public ml::ChunkProvider {
public:
  RoiProvider(const arr::DArray& da, const arr::Box& roi,
              const core::VirtualArray& va)
      : darray_(&da), roi_(roi) {
    arr::Index shape = roi.hi;
    for (std::size_t d = 0; d < shape.size(); ++d) shape[d] -= roi.lo[d];
    grid_ = arr::ChunkGrid(shape, va.subsize);
  }
  const arr::ChunkGrid& grid() const override { return grid_; }
  std::vector<dts::Key> chunks(int /*submission*/, std::int64_t t,
                               std::vector<dts::TaskSpec>& /*tasks*/) override {
    arr::Box step;
    step.lo.assign(grid_.ndim(), 0);
    step.hi = grid_.shape();
    step.lo[0] = t;
    step.hi[0] = t + 1;
    std::vector<dts::Key> keys;
    for (arr::Index c : grid_.chunks_overlapping(step)) {
      for (std::size_t d = 1; d < c.size(); ++d)
        c[d] += roi_.lo[d] / grid_.chunk_shape()[d];
      keys.push_back(darray_->key_of(c));
    }
    return keys;
  }

private:
  const arr::DArray* darray_;
  arr::Box roi_;
  arr::ChunkGrid grid_;
};

/// Forwards to the monitor's input provider and notes when the graph
/// builder asks for each step's chunks: InSituFieldMonitor::submit builds
/// and submits in one call, and these callbacks split the two.
class BuildClock final : public ml::ChunkProvider {
public:
  explicit BuildClock(ml::ChunkProvider& inner) : inner_(&inner) {}
  const arr::ChunkGrid& grid() const override { return inner_->grid(); }
  std::vector<dts::Key> chunks(int submission, std::int64_t t,
                               std::vector<dts::TaskSpec>& tasks) override {
    last_call_s = since_start_s();
    tasks_before_last = tasks.size();
    return inner_->chunks(submission, t, tasks);
  }
  double last_call_s = 0.0;
  std::size_t tasks_before_last = 0;

private:
  ml::ChunkProvider* inner_;
};

/// Wrap a task body in a span (traced run only).
void time_task(dts::TaskSpec& spec, SpanLog* log, const char* name) {
  spec.fn = [inner = std::move(spec.fn), log,
             name](const std::vector<dts::Data>& in) {
    Scope span(log, name);
    return inner(in);
  };
}

/// One run of a workload: the cluster, the producers, the analytics client
/// and everything they measure.
struct Run {
  Run(const Workload& w_, std::uint64_t seed_, SpanLog* log_, bool setup_only_)
      : w(w_),
        seed(seed_),
        log(log_),
        setup_only(setup_only_),
        ex(rt::ThreadedExecutorParams{w_.threads, kTimeScale}),
        transport(ex, rt::ThreadedTransportParams{node_count(w_)}),
        timed(log_ != nullptr
                  ? std::make_unique<perfbench::TimedTransport>(transport,
                                                                *log_)
                  : nullptr),
        runtime(ex,
                timed ? static_cast<exec::Transport&>(*timed) : transport, 0,
                [&] {
                  std::vector<int> nodes;
                  for (int i = 0; i < w_.workers; ++i)
                    nodes.push_back(worker_node(i));
                  return nodes;
                }(),
                runtime_params(w_)),
        comm(transport, rank_nodes(w_)),
        va(virtual_array(w_)),
        contract_held(ex),
        client_ready(ex),
        start(ex),
        sim_done(ex),
        analytics_done(ex),
        rank_end(static_cast<std::size_t>(w_.ranks()), 0.0),
        rank_last_push(static_cast<std::size_t>(w_.ranks()), 0.0),
        payloads(seed_) {
    proc_grid.push_back(w.proc_x);
    proc_grid.push_back(w.proc_y);
    roi = roi_origin(w, seed);
    // One variable name per scheduler shard for the post-submit round trip.
    const dts::ShardMapper& mapper = runtime.sharded().mapper();
    for (int s = 0; s < w.shards; ++s)
      for (int i = 0;; ++i) {
        std::string name = "perfbench/ingest/" + std::to_string(i);
        if (mapper.shard_of(name) == s) {
          shard_probe.push_back(std::move(name));
          break;
        }
      }
  }
  // Join the executor threads before the actors' state is destroyed.
  ~Run() { ex.shutdown(); }
  Run(const Run&) = delete;
  Run& operator=(const Run&) = delete;

  const Workload& w;
  std::uint64_t seed;
  SpanLog* log;
  bool setup_only;  // stop at the start event
  rt::ThreadedExecutor ex;
  rt::ThreadedTransport transport;
  std::unique_ptr<perfbench::TimedTransport> timed;
  dts::Runtime runtime;
  mpix::Comm comm;
  core::VirtualArray va;
  std::vector<int> proc_grid;
  std::pair<int, int> roi;
  std::vector<std::string> shard_probe;
  std::vector<std::unique_ptr<core::Bridge>> bridges;
  std::unique_ptr<core::Adaptor> adaptor;
  arr::DArray darray;

  exec::Event contract_held;
  exec::Event client_ready;
  exec::Event start;
  exec::Event sim_done;
  exec::Event analytics_done;
  std::atomic<int> ranks_ready{0};
  std::atomic<int> ranks_done{0};

  // Seconds since work start; each rank writes only its own slots.
  double t_start = 0.0;
  double t_done = 0.0;
  std::vector<double> rank_end;
  std::vector<double> rank_last_push;
  Payloads payloads;

  // Client-side phases.
  double contract_s = 0.0;
  double graph_build_s = 0.0;
  double submit_s = 0.0;
  double ingest_s = 0.0;
  double gather_s = 0.0;
  std::size_t graph_tasks = 0;
  std::vector<double> step_result_at;

  // Outputs.
  std::vector<double> sv;
  std::vector<double> ev;
  std::vector<ml::FieldStats> stats;
};

exec::Co<void> rank_actor(Run& r, int rank) {
  const Workload& w = r.w;
  core::Bridge& bridge = *r.bridges[static_cast<std::size_t>(rank)];
  std::unique_ptr<apps::Heat2d> solver;
  if (w.heat2d()) {
    solver = std::make_unique<apps::Heat2d>(heat_config(w), rank);
    solver->initialize();
  }
  arr::Index coord = core::block_coord(r.va, r.proc_grid, rank, 0);
  if (rank == 0) {
    std::vector<core::VirtualArray> arrays;
    arrays.push_back(r.va);
    co_await bridge.publish_arrays(std::move(arrays));
  }
  co_await bridge.wait_contract();
  if (++r.ranks_ready == w.ranks()) r.contract_held.set();
  co_await r.start.wait();
  if (r.setup_only) co_return;

  for (int t = 0; t < w.steps; ++t) {
    Scope step(r.log, "rank.step", -1, rank, t);
    arr::NDArray block(r.va.subsize);
    if (solver) {
      {
        Scope span(r.log, "apps.heat2d_step", step.id(), rank, t);
        co_await solver->step(r.comm);
      }
      const auto field = solver->field().flat();
      std::copy(field.begin(), field.end(), block.flat().begin());
    } else {
      Scope span(r.log, "gen.block", step.id(), rank, t);
      r.payloads.fill(block.flat(), rank, t);
    }
    const std::uint64_t bytes = block.bytes();
    coord[0] = t;
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    blocks.emplace_back(coord,
                        dts::Data::make<arr::NDArray>(std::move(block), bytes));
    {
      Scope span(r.log, "core.send_blocks", step.id(), rank, t);
      const std::size_t sent =
          co_await bridge.send_blocks(r.va, std::move(blocks));
      span.rename(sent > 0 ? "core.push" : "core.filter");
      if (sent > 0)
        r.rank_last_push[static_cast<std::size_t>(rank)] = since_start_s();
    }
    {
      Scope span(r.log, "mpix.barrier", step.id(), rank, t);
      co_await r.comm.barrier(rank);
    }
  }
  r.rank_end[static_cast<std::size_t>(rank)] = since_start_s();
  if (++r.ranks_done == w.ranks()) r.sim_done.set();
}

exec::Co<void> client_actor(Run& r) {
  const Workload& w = r.w;
  core::Adaptor& adaptor = *r.adaptor;
  dts::Client& client = adaptor.client();
  Scope client_span(r.log, "client");
  const std::int32_t parent = client_span.id();

  (void)co_await adaptor.get_deisa_arrays();
  const arr::Box roi = roi_box(w, r.roi, r.va);
  if (w.heat2d()) {
    adaptor.select(r.va.name, arr::Selection(roi));
  } else {
    adaptor.select_all(r.va.name);
  }
  {
    Scope span(r.log, "core.validate_contract", parent);
    const double t0 = since_start_s();
    auto darrays = co_await adaptor.validate_contract();
    r.darray = darrays.at(r.va.name);
    r.contract_s = since_start_s() - t0;
  }

  std::vector<dts::Key> step_keys;
  std::unique_ptr<ml::InSituIncrementalPca> ipca;
  std::unique_ptr<ml::InSituFieldMonitor> monitor;
  ml::IpcaFit ipca_fit;
  ml::MonitorFit monitor_fit;
  if (w.heat2d()) {
    RoiProvider provider(r.darray, roi, r.va);
    ipca = std::make_unique<ml::InSituIncrementalPca>(client, ipca_options());
    std::vector<dts::TaskSpec> tasks;
    {
      Scope span(r.log, "ml.graph_build", parent);
      const double t0 = since_start_s();
      for (int t = 0; t < w.steps; ++t)
        ipca->build_step(provider, /*submission=*/0, t, tasks);
      ipca->build_outputs(tasks, w.steps);
      r.graph_build_s = since_start_s() - t0;
    }
    if (r.log != nullptr)
      for (dts::TaskSpec& spec : tasks) {
        if (spec.key.find("/slab/") != std::string::npos)
          time_task(spec, r.log, "array.slab");
        else if (spec.key.find("/state/") != std::string::npos)
          time_task(spec, r.log, "ml.partial_fit");
      }
    r.graph_tasks = tasks.size();
    ipca_fit = ipca->fit_info(w.steps, 1);
    std::vector<dts::Key> wants;
    wants.push_back(ipca_fit.explained_variance_key);
    wants.push_back(ipca_fit.singular_values_key);
    for (int t = 0; t < w.steps; ++t) step_keys.push_back(ipca->state_key(t));
    Scope span(r.log, "dts.submit", parent);
    const double t0 = since_start_s();
    co_await client.submit(std::move(tasks), std::move(wants));
    r.submit_s = since_start_s() - t0;
  } else {
    ml::ExternalArrayProvider inner(r.darray);
    BuildClock provider(inner);
    monitor = std::make_unique<ml::InSituFieldMonitor>(client,
                                                       monitor_options());
    Scope span(r.log, "ml.monitor_submit", parent);
    const double t0 = since_start_s();
    monitor_fit = co_await monitor->submit(provider);
    const double t1 = since_start_s();
    // Steps 0..T-2 were built by the time the last step's chunks were
    // requested; the last step is one more step of the same size.
    const double per_step =
        (provider.last_call_s - t0) / static_cast<double>(w.steps - 1);
    r.graph_build_s = provider.last_call_s - t0 + per_step;
    r.submit_s = std::max(0.0, t1 - t0 - r.graph_build_s);
    r.graph_tasks = provider.tasks_before_last +
                    provider.tasks_before_last /
                        static_cast<std::size_t>(w.steps - 1);
    step_keys = monitor_fit.step_keys;
  }
  {
    Scope span(r.log, "dts.ingest", parent);
    const double t0 = since_start_s();
    for (const std::string& name : r.shard_probe) {
      co_await client.variable_set(name, dts::Data::make<int>(1, 8));
      (void)co_await client.variable_get(name);
    }
    r.ingest_s = since_start_s() - t0;
  }
  r.client_ready.set();
  co_await r.start.wait();
  if (r.setup_only) co_return;

  for (const dts::Key& key : step_keys) {
    Scope span(r.log, "ml.wait_step", parent);
    (void)co_await client.wait_key(key);
    r.step_result_at.push_back(since_start_s());
  }
  {
    Scope span(r.log, "dts.gather", parent);
    const double t0 = since_start_s();
    if (w.heat2d()) {
      r.sv = co_await ipca->collect_vector(ipca_fit.singular_values_key);
      r.ev = co_await ipca->collect_vector(ipca_fit.explained_variance_key);
    } else {
      r.stats = co_await monitor->collect(monitor_fit);
    }
    r.t_done = since_start_s();
    r.gather_s = r.t_done - t0;
  }
  r.analytics_done.set();
}

exec::Co<void> orchestrator(Run& r) {
  co_await r.contract_held.wait();
  co_await r.client_ready.wait();
  r.t_start = since_start_s();
  r.start.set();
  if (!r.setup_only) {
    co_await r.sim_done.wait();
    co_await r.analytics_done.wait();
  }
  co_await r.runtime.shutdown();
}

struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mib = 0.0;
  double minflt = 0.0;
  double ctx_switches = 0.0;
};

Usage usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Usage u;
  u.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  u.peak_rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  u.minflt = static_cast<double>(ru.ru_minflt);
  u.ctx_switches = static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw);
  return u;
}

bool close_rel(double got, double want, double rtol) {
  return std::abs(got - want) <= rtol * std::max(1.0, std::abs(want));
}

/// Brute-force per-step statistics over the regenerated blocks. Returns
/// the number of steps whose result differs; count, min, max and the
/// histogram must match exactly, mean and variance within kMomentRtol.
std::size_t check_monitor(const Run& r, const ml::MonitorOptions& opts,
                          double* serial_s) {
  const Workload& w = r.w;
  const double t0 = since_start_s();
  std::size_t wrong = 0;
  std::vector<double> block(static_cast<std::size_t>(w.local_nx * w.local_ny));
  const double width =
      (opts.hist_hi - opts.hist_lo) / static_cast<double>(opts.bins);
  const auto last_bin = static_cast<std::int64_t>(opts.bins) - 1;
  for (int t = 0; t < w.steps; ++t) {
    std::int64_t count = 0;
    double mn = std::numeric_limits<double>::infinity();
    double mx = -mn;
    long double sum = 0.0L;
    long double sumsq = 0.0L;
    std::vector<std::uint64_t> hist(opts.bins, 0);
    for (int rank = 0; rank < w.ranks(); ++rank) {
      r.payloads.fill(block, rank, t);
      for (double x : block) {
        ++count;
        mn = std::min(mn, x);
        mx = std::max(mx, x);
        sum += x;
        sumsq += static_cast<long double>(x) * x;
        auto bin = static_cast<std::int64_t>((x - opts.hist_lo) / width);
        bin = std::clamp<std::int64_t>(bin, 0, last_bin);
        ++hist[static_cast<std::size_t>(bin)];
      }
    }
    const double mean = static_cast<double>(sum / count);
    const double var =
        static_cast<double>(sumsq / count - (sum / count) * (sum / count));
    if (static_cast<std::size_t>(t) >= r.stats.size()) {
      ++wrong;
      continue;
    }
    const ml::FieldStats& got = r.stats[static_cast<std::size_t>(t)];
    const bool ok = got.count == count && got.min == mn && got.max == mx &&
                    got.histogram == hist &&
                    close_rel(got.mean, mean, kMomentRtol) &&
                    close_rel(got.variance(), var, kMomentRtol);
    if (!ok) ++wrong;
  }
  *serial_s = since_start_s() - t0;
  return wrong;
}

double p(std::vector<double> v, double q) {
  return util::percentile(std::move(v), q);
}

void put(std::ostringstream& os, const char* key, double v, bool& first) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << (first ? "" : ", ") << '"' << key << "\": " << buf;
  first = false;
}

void put_array(std::ostringstream& os, const char* key,
               const std::vector<double>& v) {
  os << ", \"" << key << "\": [";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v[i]);
    os << (i ? ", " : "") << buf;
  }
  os << ']';
}

int run_workload(const Workload& w, std::uint64_t seed, bool traced,
                 const std::string& trace_out, bool setup_only) {
  std::unique_ptr<SpanLog> log = traced ? std::make_unique<SpanLog>() : nullptr;
  Run r(w, seed, log.get(), setup_only);
  r.runtime.start();
  std::vector<void*> strands;
  for (int rank = 0; rank < w.ranks(); ++rank) {
    strands.push_back(r.ex.new_strand());
    dts::Client& c = r.runtime.make_client(rank_node(w, rank));
    // The bridge's constructor spawns its re-push listener: keep it on the
    // rank's strand with the rank actor.
    exec::StrandScope scope(r.ex, strands.back());
    r.bridges.push_back(std::make_unique<core::Bridge>(
        c, core::Mode::kDeisa3, rank, w.ranks()));
  }
  r.adaptor = std::make_unique<core::Adaptor>(r.runtime.make_client(1),
                                              core::Mode::kDeisa3);
  for (int rank = 0; rank < w.ranks(); ++rank)
    r.ex.spawn_on(strands[static_cast<std::size_t>(rank)], rank_actor(r, rank));
  r.ex.spawn_on(r.ex.new_strand(), client_actor(r));
  r.ex.spawn_on(r.ex.new_strand(), orchestrator(r));
  r.ex.run();
  r.ex.shutdown();
  const Usage u = usage();
  if (setup_only) {
    if (r.t_start == 0.0) {
      std::cerr << "setup did not complete\n";
      return 1;
    }
    std::ostringstream os;
    bool first = true;
    os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
       << ", \"timer_fires\": " << r.ex.stats().timer_fires << ", ";
    put(os, "setup_s", r.t_start, first);
    os << '}';
    std::cout << os.str() << std::endl;
    return 0;
  }
  if (!r.sim_done.is_set() || !r.analytics_done.is_set()) {
    std::cerr << "run did not complete\n";
    return 1;
  }

  // ---- outputs and failure accounting ----
  const rt::RuntimeStats ex_stats = r.ex.stats();
  const dts::ShardedScheduler& sched = r.runtime.sharded();
  std::uint64_t erred = 0;
  for (int s = 0; s < sched.num_shards(); ++s)
    erred += sched.shard(s).count_in_state(dts::TaskState::kErred);
  std::uint64_t sent = 0, filtered = 0, discarded = 0, repushed = 0;
  for (const auto& b : r.bridges) {
    sent += b->blocks_sent();
    filtered += b->blocks_filtered();
    discarded += b->blocks_discarded();
    repushed += b->blocks_repushed();
  }
  const std::uint64_t offered =
      static_cast<std::uint64_t>(w.ranks()) * static_cast<std::uint64_t>(w.steps);
  const std::uint64_t want_sent =
      w.heat2d() ? static_cast<std::uint64_t>(w.steps * w.roi_blocks) : offered;
  std::uint64_t failed = erred + discarded + repushed +
                         (sent > want_sent ? sent - want_sent : want_sent - sent);
  double serial_s = 0.0;
  if (!w.heat2d()) failed += check_monitor(r, monitor_options(), &serial_s);
  const std::uint64_t attempted = offered + r.graph_tasks;

  const double sim_end = *std::max_element(r.rank_end.begin(), r.rank_end.end());
  const double last_push =
      *std::max_element(r.rank_last_push.begin(), r.rank_last_push.end());

  std::ostringstream os;
  os.precision(17);
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed
     << ", \"traced\": " << (traced ? 1 : 0)
     << ", \"time_scale\": " << kTimeScale
     << ", \"threads\": " << w.threads
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"timer_fires\": " << ex_stats.timer_fires << ", \"e2e\": {";
  bool first = true;
  put(os, "setup_s", r.t_start, first);
  put(os, "makespan_s", r.t_done - r.t_start, first);
  put(os, "sim_s", sim_end - r.t_start, first);
  put(os, "cpu_s", u.cpu_s, first);
  put(os, "peak_rss_mib", u.peak_rss_mib, first);
  os << "}, \"layers\": {";
  first = true;
  // Counters, read from public accessors after the run.
  std::uint64_t worker_tasks = 0, peer_fetches = 0, cache_hits = 0,
                peak_store = 0;
  for (int i = 0; i < r.runtime.num_workers(); ++i) {
    dts::Worker& wk = r.runtime.worker(i);
    worker_tasks += wk.tasks_executed();
    peer_fetches += wk.peer_fetches();
    cache_hits += wk.peer_fetch_cache_hits();
    peak_store = std::max(peak_store, wk.peak_memory_bytes());
  }
  const double blocks = static_cast<double>(std::max<std::uint64_t>(sent, 1));
  const exec::TransferStats ts = r.transport.stats();
  put(os, "core.blocks_sent", static_cast<double>(sent), first);
  put(os, "core.blocks_filtered", static_cast<double>(filtered), first);
  put(os, "ml.graph_tasks", static_cast<double>(r.graph_tasks), first);
  put(os, "core.contract_s", r.contract_s, first);
  put(os, "ml.graph_build_s", r.graph_build_s, first);
  put(os, "dts.submit_s", r.submit_s, first);
  put(os, "dts.ingest_s", r.ingest_s, first);
  put(os, "dts.gather_ms", r.gather_s * 1e3, first);
  put(os, "ml.drain_s", r.t_done - last_push, first);
  std::vector<double> intervals;
  for (std::size_t i = 1; i < r.step_result_at.size(); ++i)
    intervals.push_back(r.step_result_at[i] - r.step_result_at[i - 1]);
  put(os, "ml.step_result_ms.p50", p(intervals, 0.5) * 1e3, first);
  put(os, "dts.sched.msgs_per_block",
      static_cast<double>(sched.total_messages()) / blocks, first);
  put(os, "dts.sched.update_data",
      static_cast<double>(sched.messages_received(dts::SchedMsgKind::kUpdateData)),
      first);
  put(os, "dts.sched.task_finished",
      static_cast<double>(
          sched.messages_received(dts::SchedMsgKind::kTaskFinished)),
      first);
  put(os, "dts.sched.update_graph",
      static_cast<double>(
          sched.messages_received(dts::SchedMsgKind::kUpdateGraph)),
      first);
  put(os, "dts.shard.notify_msgs", static_cast<double>(sched.notify_msgs()),
      first);
  put(os, "dts.shard.release_acks", static_cast<double>(sched.release_acks()),
      first);
  put(os, "dts.shard.remote_edges", static_cast<double>(sched.remote_edges()),
      first);
  put(os, "dts.sched.keys_released",
      static_cast<double>(sched.keys_released()), first);
  put(os, "dts.worker.peak_store_mib",
      static_cast<double>(peak_store) / (1024.0 * 1024.0), first);
  put(os, "dts.worker.tasks", static_cast<double>(worker_tasks), first);
  put(os, "dts.worker.peer_fetches", static_cast<double>(peer_fetches), first);
  put(os, "dts.worker.fetch_cache_hits", static_cast<double>(cache_hits),
      first);
  put(os, "rt.transfer_mib",
      static_cast<double>(ts.bytes) / (1024.0 * 1024.0), first);
  put(os, "rt.transfers", static_cast<double>(ts.count), first);
  put(os, "rt.nic_lock_wait_ms", r.transport.nic_lock_wait_seconds() * 1e3,
      first);
  put(os, "rt.exec.resumes_per_block",
      static_cast<double>(ex_stats.resumes) / blocks, first);
  put(os, "rt.exec.queue_wait_us.mean",
      ex_stats.post_run_latency_mean_s() * 1e6, first);
  put(os, "rt.exec.timer_fires", static_cast<double>(ex_stats.timer_fires),
      first);
  put(os, "proc.minflt", u.minflt, first);
  put(os, "proc.ctx_switches", u.ctx_switches, first);
  if (!w.heat2d()) put(os, "ref.serial_s", serial_s, first);
  std::map<std::string, perfbench::LayerRow> rows;
  if (log) {
    log->add("run.setup", 0.0, r.t_start);
    log->add("run.sim", r.t_start, sim_end);
    log->add("run.makespan", r.t_start, r.t_done);
    const std::vector<perfbench::SpanRecord> spans = log->snapshot();
    const auto ms = [&](const char* name, double q) {
      return p(perfbench::durations(spans, name), q) * 1e3;
    };
    put(os, "mpix.barrier_ms.p50", ms("mpix.barrier", 0.5), first);
    const std::vector<double> push = perfbench::durations(spans, "core.push");
    put(os, "core.push_ms.p50", p(push, 0.5) * 1e3, first);
    put(os, "core.push_ms.p90", p(push, 0.9) * 1e3, first);
    put(os, "core.push_samples", static_cast<double>(push.size()), first);
    put(os, "rt.transfer_ms.p50", ms("rt.transfer", 0.5), first);
    if (w.heat2d()) {
      put(os, "apps.heat2d_step_ms.p50", ms("apps.heat2d_step", 0.5), first);
      put(os, "core.filter_us.p50", ms("core.filter", 0.5) * 1e3, first);
      put(os, "ml.partial_fit_ms.p50", ms("ml.partial_fit", 0.5), first);
      put(os, "array.slab_ms.p50", ms("array.slab", 0.5), first);
    }
    rows = perfbench::self_times(spans);
    if (!trace_out.empty()) {
      std::ofstream f(trace_out);
      perfbench::write_csv(f, spans);
    }
  }
  os << "}";
  if (!rows.empty()) {
    os << ", \"spans\": [";
    bool first_row = true;
    for (const auto& [name, row] : rows) {
      char buf[256];
      std::snprintf(buf, sizeof buf,
                    "%s{\"name\": \"%s\", \"count\": %zu, \"total_s\": %.9g, "
                    "\"self_s\": %.9g}",
                    first_row ? "" : ", ", name.c_str(), row.count,
                    row.total_s, row.self_s);
      os << buf;
      first_row = false;
    }
    os << ']';
  }
  if (w.heat2d()) {
    put_array(os, "sv", r.sv);
    put_array(os, "ev", r.ev);
  }
  os << '}';
  std::cout << os.str() << std::endl;
  return 0;
}

/// heat2d-ipca's reference: a plain single-threaded run of the same
/// Heat2d ranks (simulator executor, modeled network) and a serial
/// ml::IncrementalPca over the region of interest of every step.
exec::Co<void> reference_rank(mpix::Comm& comm, const Workload& w, int rank,
                              std::pair<int, int> roi,
                              const core::VirtualArray& va,
                              std::vector<arr::NDArray>& slabs) {
  apps::Heat2d solver(heat_config(w), rank);
  solver.initialize();
  const bool mine = in_roi(w, roi, rank);
  arr::Box box;  // this rank's block within a slab
  box.lo.assign(3, 0);
  box.hi = va.subsize;
  box.lo[2] = (rank / w.proc_x - roi.second) * w.local_ny;
  box.hi[2] = box.lo[2] + w.local_ny;
  for (int t = 0; t < w.steps; ++t) {
    co_await solver.step(comm);
    if (!mine) continue;
    arr::NDArray block(va.subsize);
    const auto field = solver.field().flat();
    std::copy(field.begin(), field.end(), block.flat().begin());
    slabs[static_cast<std::size_t>(t)].insert(box, block);
  }
}

int run_reference(const Workload& w, std::uint64_t seed) {
  if (!w.heat2d()) {
    std::cerr << "--reference applies to heat2d-ipca only\n";
    return 2;
  }
  const double t0 = since_start_s();
  const core::VirtualArray va = virtual_array(w);
  const std::pair<int, int> roi = roi_origin(w, seed);
  arr::Index slab_shape = va.subsize;
  slab_shape[2] *= w.roi_blocks;
  std::vector<arr::NDArray> slabs(static_cast<std::size_t>(w.steps),
                                  arr::NDArray(slab_shape));
  {
    deisa::sim::Engine engine;
    deisa::net::ClusterParams cp;
    cp.physical_nodes = node_count(w);
    deisa::net::Cluster cluster(engine, cp);
    mpix::Comm comm(cluster, rank_nodes(w));
    for (int rank = 0; rank < w.ranks(); ++rank)
      engine.spawn(reference_rank(comm, w, rank, roi, va, slabs));
    engine.run();
  }
  const ml::InSituIpcaOptions opts = ipca_options();
  ml::IncrementalPca model(opts.pca);
  std::vector<std::size_t> rows;
  rows.push_back(0);
  rows.push_back(2);  // (t, Y) are samples, X is features
  for (const arr::NDArray& slab : slabs) {
    const arr::NDArray m2d = slab.reshape_2d(rows);
    model.partial_fit(deisa::linalg::Matrix::from_row_major(
        static_cast<std::size_t>(m2d.shape()[0]),
        static_cast<std::size_t>(m2d.shape()[1]), m2d.flat()));
  }
  const double serial_s = since_start_s() - t0;
  std::ostringstream os;
  bool first = true;
  os << "{\"workload\": \"" << w.name << "\", \"seed\": " << seed << ", ";
  put(os, "serial_s", serial_s, first);
  put_array(os, "sv", model.singular_values());
  put_array(os, "ev", model.explained_variance());
  os << '}';
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  (void)perfbench::work_start();
  std::string workload;
  std::string trace_out;
  std::uint64_t seed = 0;
  bool seed_given = false;
  bool traced = false;
  bool reference = false;
  bool setup_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--workload" && has_value) {
      workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      seed = std::stoull(argv[++i]);
      seed_given = true;
    } else if (a == "--trace" && has_value) {
      traced = std::string(argv[++i]) == "1";
    } else if (a == "--trace-out" && has_value) {
      trace_out = argv[++i];
    } else if (a == "--reference") {
      reference = true;
    } else if (a == "--setup-only") {
      setup_only = true;
    } else {
      std::cerr << "unknown or incomplete argument: " << a << "\n";
      return 2;
    }
  }
  const Workload* w = find_workload(workload);
  if (w == nullptr || !seed_given) {
    std::cerr << "usage: deisa_perfbench --workload NAME --seed N "
                 "[--trace 0|1] [--trace-out FILE] [--reference | "
                 "--setup-only]\n";
    return 2;
  }
  try {
    return reference ? run_reference(*w, seed)
                     : run_workload(*w, seed, traced, trace_out, setup_only);
  } catch (const std::exception& e) {
    std::cerr << "deisa_perfbench: " << e.what() << "\n";
    return 1;
  }
}
