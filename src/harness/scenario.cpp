#include "deisa/harness/scenario.hpp"

#include <atomic>
#include <cmath>

#include "deisa/apps/heat2d.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/io/posthoc.hpp"
#include "deisa/mpix/comm.hpp"
#include "deisa/obs/observation.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/rt/threaded_transport.hpp"

namespace deisa::harness {

namespace arr = array;

const char* to_string(Substrate s) {
  switch (s) {
    case Substrate::kSim: return "sim";
    case Substrate::kThreads: return "threads";
  }
  return "?";
}

const char* to_string(Pipeline p) {
  switch (p) {
    case Pipeline::kPosthocOldIpca: return "posthoc-old-ipca";
    case Pipeline::kPosthocNewIpca: return "posthoc-new-ipca";
    case Pipeline::kDeisa1: return "DEISA1";
    case Pipeline::kDeisa2: return "DEISA2";
    case Pipeline::kDeisa3: return "DEISA3";
  }
  return "?";
}

bool is_posthoc(Pipeline p) {
  return p == Pipeline::kPosthocOldIpca || p == Pipeline::kPosthocNewIpca;
}

namespace {
core::Mode mode_of(Pipeline p) {
  switch (p) {
    case Pipeline::kDeisa1: return core::Mode::kDeisa1;
    case Pipeline::kDeisa2: return core::Mode::kDeisa2;
    default: return core::Mode::kDeisa3;
  }
}
}  // namespace

net::ClusterParams ScenarioParams::irene_cluster() {
  net::ClusterParams c;
  c.physical_nodes = 1653;  // Irene skylake partition
  c.leaf_radix = 24;        // pruned fat tree leaves
  c.uplinks_per_leaf = 8;
  c.link_bandwidth = 12.5e9;   // 100 Gb/s EDR
  c.software_bandwidth = 0.55e9;  // dask TCP+serialization effective rate
  c.memory_bandwidth = 1.5e9;    // loopback TCP on-node
  c.hop_latency = 0.25e-6;
  c.software_overhead = 4.0e-6;
  c.jitter_sigma = 0.0;  // IB fabrics are deterministic; noise comes from the scheduler
  return c;
}

dts::SchedulerParams ScenarioParams::paper_scheduler() {
  dts::SchedulerParams s;
  s.service_jitter_sigma = 0.5;  // Python GC / GIL noise
  return s;
}

std::int64_t ScenarioParams::local_edge() const {
  const auto doubles = static_cast<double>(block_bytes / sizeof(double));
  auto edge = static_cast<std::int64_t>(std::llround(std::sqrt(doubles)));
  return std::max<std::int64_t>(1, edge);
}

std::pair<int, int> ScenarioParams::proc_grid() const {
  // Roughly square grid, x fastest (Listing 1 layout).
  int px = static_cast<int>(std::sqrt(static_cast<double>(ranks)));
  while (px > 1 && ranks % px != 0) --px;
  return {px, ranks / px};
}

core::VirtualArray ScenarioParams::virtual_array(int index) const {
  const auto [px, py] = proc_grid();
  const std::int64_t edge = local_edge();
  std::string name = "G_temp";
  if (index > 0) name += std::to_string(index + 1);  // G_temp2, G_temp3, ...
  return core::VirtualArray(
      std::move(name), arr::Index{timesteps, edge * px, edge * py},
      arr::Index{1, edge, edge});
}

std::vector<core::VirtualArray> ScenarioParams::virtual_arrays() const {
  std::vector<core::VirtualArray> vas;
  for (int i = 0; i < std::max(1, arrays); ++i) vas.push_back(virtual_array(i));
  return vas;
}

int ScenarioParams::nodes_needed() const {
  const int worker_nodes = (workers + workers_per_node - 1) / workers_per_node;
  const int sim_nodes = (ranks + ranks_per_node - 1) / ranks_per_node;
  return 2 + worker_nodes + sim_nodes;
}

util::Summary RunResult::iteration_summary(
    const std::vector<std::vector<double>>& series, int skip_first) const {
  std::vector<double> flat;
  for (const auto& per_rank : series)
    for (std::size_t t = 0; t < per_rank.size(); ++t)
      if (static_cast<int>(t) >= skip_first) flat.push_back(per_rank[t]);
  return util::summarize(flat);
}

std::vector<std::pair<double, double>> RunResult::per_rank_io() const {
  std::vector<std::pair<double, double>> out;
  for (const auto& per_rank : sim_io) {
    util::RunningStats rs;
    for (double v : per_rank) rs.add(v);
    out.emplace_back(rs.mean(), rs.stddev());
  }
  return out;
}

namespace {

/// Everything one scenario run needs, wired together. The substrate knob
/// decides which Executor/Transport backend sits behind the `engine` and
/// `cluster` references; everything downstream only sees the seam.
struct World {
  explicit World(const ScenarioParams& p)
      : params(p),
        sim_engine(p.substrate == Substrate::kSim
                       ? std::make_unique<sim::Engine>()
                       : nullptr),
        thr_engine(p.substrate == Substrate::kThreads
                       ? std::make_unique<rt::ThreadedExecutor>(
                             rt::ThreadedExecutorParams{p.substrate_threads,
                                                        p.time_scale})
                       : nullptr),
        engine(sim_engine ? static_cast<exec::Executor&>(*sim_engine)
                          : *thr_engine),
        sim_cluster(sim_engine ? std::make_unique<net::Cluster>(
                                     *sim_engine,
                                     [&] {
                                       net::ClusterParams c = p.cluster;
                                       c.jitter_seed =
                                           p.alloc_seed * 0x9e3779b9ULL + 7;
                                       return c;
                                     }())
                               : nullptr),
        thr_cluster(thr_engine ? std::make_unique<rt::ThreadedTransport>(
                                     *thr_engine,
                                     rt::ThreadedTransportParams{
                                         p.cluster.physical_nodes})
                               : nullptr),
        cluster(sim_cluster ? static_cast<exec::Transport&>(*sim_cluster)
                            : *thr_cluster),
        pfs(engine, [&] {
          io::PfsParams f = p.pfs;
          f.seed = p.alloc_seed * 31 + 3;
          return f;
        }()) {
    DEISA_CHECK(p.nodes_needed() <= p.cluster.physical_nodes,
                "scenario needs " << p.nodes_needed() << " nodes, cluster has "
                                  << p.cluster.physical_nodes);
    nodes = net::allocate_nodes(p.cluster, p.nodes_needed(), p.alloc_seed);
    scheduler_node = nodes[0];
    client_node = nodes[1];
    const int worker_node_count =
        (p.workers + p.workers_per_node - 1) / p.workers_per_node;
    std::vector<int> worker_nodes;
    for (int w = 0; w < p.workers; ++w)
      worker_nodes.push_back(nodes[2 + w / p.workers_per_node]);
    std::vector<int> rank_nodes;
    for (int r = 0; r < p.ranks; ++r)
      rank_nodes.push_back(
          nodes[2 + worker_node_count + r / p.ranks_per_node]);

    dts::RuntimeParams rp;
    rp.scheduler = p.sched;
    rp.scheduler.seed = p.alloc_seed * 131 + 17;
    // A non-empty fault plan needs the failure detector armed; pick a
    // timeout comfortably above the heartbeat period unless the caller
    // chose one.
    if (!p.faults.empty() && rp.scheduler.heartbeat_timeout <= 0.0)
      rp.scheduler.heartbeat_timeout = 3.5 * p.worker_heartbeat_interval;
    rp.worker.heartbeat_interval = p.worker_heartbeat_interval;
    rp.scheduler.release_consumed = p.release_consumed;
    rp.shards = p.shards;
    runtime = std::make_unique<dts::Runtime>(engine, cluster, scheduler_node,
                                             worker_nodes, rp);
    if (sim_engine) {
      injector = std::make_unique<fault::FaultInjector>(
          *sim_engine, *sim_cluster, p.faults);
    } else {
      DEISA_CHECK(p.faults.empty(),
                  "fault plans are modeled constructs (virtual-time kill "
                  "schedules); they require substrate=sim");
    }
    comm = std::make_unique<mpix::Comm>(cluster, rank_nodes);
    this->rank_nodes = std::move(rank_nodes);
  }

  ~World() { finish(); }

  /// Threads substrate: join all worker threads (dropping anything still
  /// suspended) so nothing races the stats reads below or outlives the
  /// actors' dependencies. No-op under sim; idempotent.
  void finish() {
    if (thr_engine) thr_engine->shutdown();
  }

  const ScenarioParams& params;
  std::unique_ptr<sim::Engine> sim_engine;
  std::unique_ptr<rt::ThreadedExecutor> thr_engine;
  exec::Executor& engine;
  std::unique_ptr<net::Cluster> sim_cluster;
  std::unique_ptr<rt::ThreadedTransport> thr_cluster;
  exec::Transport& cluster;
  io::Pfs pfs;
  std::vector<int> nodes;
  int scheduler_node = 0;
  int client_node = 0;
  std::vector<int> rank_nodes;
  std::unique_ptr<dts::Runtime> runtime;
  std::unique_ptr<fault::FaultInjector> injector;  // sim substrate only
  std::unique_ptr<mpix::Comm> comm;
};

ml::InSituIpcaOptions ipca_options(const ScenarioParams& p,
                                   const std::string& name, bool old_ipca) {
  ml::InSituIpcaOptions o;
  o.pca.n_components = p.n_components;
  o.pca.randomized = !old_ipca;  // Listing 2: the NEW IPCA is randomized
  o.labels = {"t", "X", "Y"};
  o.feature_labels = {"X"};
  o.sample_labels = {"Y"};
  o.cost = p.analytics;
  // The old dask-ml IPCA runs the exact solver: ≈ 2.5x the update cost.
  if (old_ipca) o.cost.cost_multiplier *= 2.5;
  o.name = name;
  o.distributed_update = !p.real_data;
  return o;
}

/// Contract selection: full time and X; leading fraction of Y, aligned to
/// block boundaries (at least one block row).
arr::Box contract_box(const core::VirtualArray& va, double fraction) {
  arr::Box box;
  box.lo.assign(va.shape.size(), 0);
  box.hi = va.shape;
  if (fraction < 1.0) {
    const std::int64_t blocks_y = va.shape[2] / va.subsize[2];
    std::int64_t keep =
        std::max<std::int64_t>(1, static_cast<std::int64_t>(
                                      std::llround(fraction * blocks_y)));
    box.hi[2] = keep * va.subsize[2];
  }
  return box;
}

/// ChunkProvider over a contiguous sub-box of a DArray (contract-filtered
/// analytics: the graph only references the selected chunks).
class SelectedArrayProvider final : public ml::ChunkProvider {
public:
  SelectedArrayProvider(const arr::DArray& da, const arr::Box& box)
      : darray_(&da), box_(box) {
    arr::Index sub_shape(box.ndim());
    for (std::size_t d = 0; d < box.ndim(); ++d) sub_shape[d] = box.extent(d);
    sub_grid_ = arr::ChunkGrid(sub_shape, da.grid().chunk_shape());
    for (std::size_t d = 0; d < box.ndim(); ++d) {
      DEISA_CHECK(box.lo[d] % da.grid().chunk_shape()[d] == 0 &&
                      box.extent(d) % da.grid().chunk_shape()[d] == 0,
                  "contract selection must align to block boundaries");
      chunk_offset_.push_back(box.lo[d] / da.grid().chunk_shape()[d]);
    }
  }

  const arr::ChunkGrid& grid() const override { return sub_grid_; }

  std::vector<dts::Key> chunks(int /*submission*/, std::int64_t t,
                               std::vector<dts::TaskSpec>& /*tasks*/) override {
    arr::Box slab;
    slab.lo.assign(sub_grid_.ndim(), 0);
    slab.hi = sub_grid_.shape();
    slab.lo[0] = t;
    slab.hi[0] = t + 1;
    std::vector<dts::Key> keys;
    for (const arr::Index& c : sub_grid_.chunks_overlapping(slab)) {
      arr::Index global = c;
      for (std::size_t d = 0; d < global.size(); ++d)
        global[d] += chunk_offset_[d];
      keys.push_back(darray_->key_of(global));
    }
    return keys;
  }

private:
  const arr::DArray* darray_;
  arr::Box box_;
  arr::ChunkGrid sub_grid_;
  std::vector<std::int64_t> chunk_offset_;
};

struct SharedState {
  explicit SharedState(exec::Executor& eng)
      : stop_heartbeats(eng), sim_done(eng), analytics_done(eng) {}
  exec::Event stop_heartbeats;
  exec::Event sim_done;
  exec::Event analytics_done;
  std::atomic<int> ranks_finished{0};
  std::vector<std::unique_ptr<core::Bridge>> bridges;
  std::unique_ptr<core::Adaptor> adaptor;
  std::vector<std::unique_ptr<ml::ChunkProvider>> providers;  // one per array
  std::map<std::string, arr::DArray> darrays;
};

dts::Data block_payload(const ScenarioParams& p, const apps::Heat2d* solver,
                        const core::VirtualArray& va) {
  if (!p.real_data || solver == nullptr)
    return dts::Data::sized(va.block_bytes());
  arr::NDArray block(va.subsize);
  const auto& field = solver->field().flat();
  DEISA_CHECK(field.size() == block.flat().size(),
              "solver block size mismatch");
  std::copy(field.begin(), field.end(), block.flat().begin());
  const std::uint64_t b = block.bytes();
  return dts::Data::make<arr::NDArray>(std::move(block), b);
}

/// One simulation rank of an in-transit (DEISA*) run.
exec::Co<void> deisa_rank_actor(World& w, SharedState& st, Pipeline pipeline,
                               int rank, RunResult& res) {
  const ScenarioParams& p = w.params;
  const std::vector<core::VirtualArray> vas = p.virtual_arrays();
  const core::VirtualArray& va = vas.front();
  const auto [px, py] = p.proc_grid();
  core::Bridge& bridge = *st.bridges[static_cast<std::size_t>(rank)];

  std::unique_ptr<apps::Heat2d> solver;
  if (p.real_data) {
    apps::Heat2dConfig hc;
    hc.local_nx = p.local_edge();
    hc.local_ny = p.local_edge();
    hc.proc_x = px;
    hc.proc_y = py;
    hc.timesteps = p.timesteps;
    solver = std::make_unique<apps::Heat2d>(hc, rank);
    solver->initialize();
  }

  if (rank == 0) {
    std::vector<core::VirtualArray> arrays = vas;
    co_await bridge.publish_arrays(std::move(arrays));
  }
  if (pipeline == Pipeline::kDeisa1) {
    co_await bridge.deisa1_fetch_selection();
  } else {
    co_await bridge.wait_contract();
  }
  co_await w.comm->barrier(rank);

  const double step_cost =
      apps::Heat2d::step_cost(p.local_edge() * p.local_edge(),
                              p.sim_cell_rate);
  for (int t = 0; t < p.timesteps; ++t) {
    double t0 = w.engine.now();
    co_await w.engine.delay(step_cost);
    if (solver) co_await solver->step(*w.comm);
    res.sim_compute[static_cast<std::size_t>(rank)]
        [static_cast<std::size_t>(t)] = w.engine.now() - t0;

    // Rank-characteristic skew (OS noise, cache state): microseconds, but
    // it pins the NIC/queue ordering so each iteration contends the same
    // way — per-rank comm times become repeatable, as observed on Irene.
    co_await w.engine.delay(2e-3 * static_cast<double>(rank + 1));
    t0 = w.engine.now();
    if (pipeline == Pipeline::kDeisa1) {
      const arr::Index coord = core::block_coord(va, {px, py}, rank, t);
      (void)co_await bridge.deisa1_send_block(
          va, coord, block_payload(p, solver.get(), va));
    } else {
      // Coalesced push path: one batch per array per step (a batch of
      // one block for single-array runs, but it keeps the heat2d
      // scenario on the same bridge code the multi-block producers
      // exercise). Multi-array runs push the same solver field under
      // each array's key space.
      for (const core::VirtualArray& a : vas) {
        const arr::Index coord = core::block_coord(a, {px, py}, rank, t);
        std::vector<std::pair<arr::Index, dts::Data>> blocks;
        blocks.emplace_back(coord, block_payload(p, solver.get(), a));
        (void)co_await bridge.send_blocks(a, std::move(blocks));
      }
    }
    res.sim_io[static_cast<std::size_t>(rank)][static_cast<std::size_t>(t)] =
        w.engine.now() - t0;
    co_await w.comm->barrier(rank);
  }
  if (++st.ranks_finished == p.ranks) {
    res.sim_end = w.engine.now();
    st.sim_done.set();
    st.stop_heartbeats.set();
  }
}

/// The analytics client of a DEISA2/3 run: signs the contract and submits
/// the WHOLE multi-timestep IPCA graph ahead of the data.
exec::Co<void> deisa23_adaptor_actor(World& w, SharedState& st,
                                    RunResult& res) {
  const ScenarioParams& p = w.params;
  core::Adaptor& adaptor = *st.adaptor;
  const auto arrays = co_await adaptor.get_deisa_arrays();
  // One selection per published array (same geometry, same contract
  // fraction); the multi-array workflow fits an independent IPCA per
  // array and concatenates the outputs in publication order.
  const arr::Box box = contract_box(arrays.at(0), p.contract_fraction);
  for (const core::VirtualArray& a : arrays)
    adaptor.select(a.name, arr::Selection(box));
  st.darrays = co_await adaptor.validate_contract();

  const double t0 = w.engine.now();
  std::vector<std::unique_ptr<ml::InSituIncrementalPca>> ipcas;
  std::vector<ml::IpcaFit> fits;
  for (std::size_t i = 0; i < arrays.size(); ++i) {
    const arr::DArray& da = st.darrays.at(arrays[i].name);
    st.providers.push_back(std::make_unique<SelectedArrayProvider>(da, box));
    const std::string name = i == 0 ? "ipca" : "ipca-a" + std::to_string(i);
    ipcas.push_back(std::make_unique<ml::InSituIncrementalPca>(
        adaptor.client(), ipca_options(p, name, false)));
    ml::IpcaFit fit;
    if (p.force_per_step_analytics) {
      fit = co_await ipcas.back()->fit_per_step(*st.providers.back());
    } else {
      fit = co_await ipcas.back()->fit_ahead_of_time(*st.providers.back());
    }
    fits.push_back(std::move(fit));
  }
  for (const ml::IpcaFit& fit : fits)
    co_await adaptor.client().wait_key(fit.singular_values_key);
  res.analytics_seconds = w.engine.now() - t0;
  if (p.real_data) {
    for (std::size_t i = 0; i < fits.size(); ++i) {
      const auto sv =
          co_await ipcas[i]->collect_vector(fits[i].singular_values_key);
      const auto ev =
          co_await ipcas[i]->collect_vector(fits[i].explained_variance_key);
      res.singular_values.insert(res.singular_values.end(), sv.begin(),
                                 sv.end());
      res.explained_variance.insert(res.explained_variance.end(), ev.begin(),
                                    ev.end());
    }
  }
  st.analytics_done.set();
}

/// The analytics client of a DEISA1 run: per-step graph submission driven
/// by per-step readiness queues (time dependencies managed manually).
exec::Co<void> deisa1_adaptor_actor(World& w, SharedState& st, RunResult& res) {
  const ScenarioParams& p = w.params;
  core::Adaptor& adaptor = *st.adaptor;
  const auto arrays = co_await adaptor.get_deisa_arrays();
  const core::VirtualArray& va = arrays.at(0);
  const arr::Box box = contract_box(va, p.contract_fraction);
  adaptor.select(va.name, arr::Selection(box));
  st.darrays = co_await adaptor.deisa1_publish_selection(p.ranks);
  const arr::DArray& da = st.darrays.at(va.name);

  const double t0 = w.engine.now();
  st.providers.push_back(std::make_unique<SelectedArrayProvider>(da, box));
  // DEISA1 pairs with the OLD IPCA throughout the evaluation.
  ml::InSituIncrementalPca ipca(adaptor.client(),
                                ipca_options(p, "ipca-d1", true));
  for (int t = 0; t < p.timesteps; ++t) {
    co_await adaptor.deisa1_wait_step(p.ranks);
    std::vector<dts::TaskSpec> tasks;
    ipca.build_step(*st.providers.back(), /*submission=*/t, t, tasks);
    std::vector<dts::Key> wants;
    wants.push_back(ipca.state_key(t));
    co_await adaptor.client().submit(std::move(tasks), std::move(wants));
    co_await adaptor.client().wait_key(ipca.state_key(t));
  }
  std::vector<dts::TaskSpec> tasks;
  ipca.build_outputs(tasks, p.timesteps);
  co_await adaptor.client().submit(std::move(tasks), {});
  const ml::IpcaFit fit = ipca.fit_info(p.timesteps, p.timesteps + 1);
  co_await adaptor.client().wait_key(fit.singular_values_key);
  res.analytics_seconds = w.engine.now() - t0;
  if (p.real_data) {
    res.singular_values = co_await ipca.collect_vector(fit.singular_values_key);
    res.explained_variance =
        co_await ipca.collect_vector(fit.explained_variance_key);
  }
  st.analytics_done.set();
}

/// One simulation rank of a post-hoc run: compute + PFS write.
exec::Co<void> posthoc_rank_actor(World& w, SharedState& st,
                                 io::PosthocDataset& ds,
                                 io::PosthocWriter& writer, int rank,
                                 RunResult& res) {
  const ScenarioParams& p = w.params;
  const core::VirtualArray va = p.virtual_array();
  const auto [px, py] = p.proc_grid();

  std::unique_ptr<apps::Heat2d> solver;
  if (p.real_data) {
    apps::Heat2dConfig hc;
    hc.local_nx = p.local_edge();
    hc.local_ny = p.local_edge();
    hc.proc_x = px;
    hc.proc_y = py;
    hc.timesteps = p.timesteps;
    solver = std::make_unique<apps::Heat2d>(hc, rank);
    solver->initialize();
  }
  co_await w.comm->barrier(rank);
  const double step_cost = apps::Heat2d::step_cost(
      p.local_edge() * p.local_edge(), p.sim_cell_rate);
  for (int t = 0; t < p.timesteps; ++t) {
    double t0 = w.engine.now();
    co_await w.engine.delay(step_cost);
    if (solver) co_await solver->step(*w.comm);
    res.sim_compute[static_cast<std::size_t>(rank)]
        [static_cast<std::size_t>(t)] = w.engine.now() - t0;

    co_await w.engine.delay(2e-3 * static_cast<double>(rank + 1));
    t0 = w.engine.now();
    const arr::Index coord = core::block_coord(va, {px, py}, rank, t);
    if (p.real_data && solver) {
      arr::NDArray block(va.subsize);
      const auto& field = solver->field().flat();
      std::copy(field.begin(), field.end(), block.flat().begin());
      co_await writer.write_block(coord, &block);
    } else {
      co_await writer.write_block(coord, nullptr);
    }
    res.sim_io[static_cast<std::size_t>(rank)][static_cast<std::size_t>(t)] =
        w.engine.now() - t0;
    co_await w.comm->barrier(rank);
  }
  (void)ds;
  if (++st.ranks_finished == p.ranks) {
    res.sim_end = w.engine.now();
    st.sim_done.set();
    st.stop_heartbeats.set();
  }
}

/// The analytics phase of a post-hoc run, started after the simulation.
exec::Co<void> posthoc_analytics_actor(World& w, SharedState& st,
                                      io::PosthocDataset& ds, bool old_ipca,
                                      RunResult& res) {
  const ScenarioParams& p = w.params;
  co_await st.sim_done.wait();
  dts::Client& client = w.runtime->make_client(w.client_node);
  auto provider = std::make_unique<io::PosthocReadProvider>(w.pfs, &ds);
  const double t0 = w.engine.now();
  ml::InSituIncrementalPca ipca(client,
                                ipca_options(p, "ipca-ph", old_ipca));
  ml::IpcaFit fit;
  if (old_ipca) {
    fit = co_await ipca.fit_per_step(*provider);
  } else {
    fit = co_await ipca.fit_ahead_of_time(*provider);
  }
  co_await client.wait_key(fit.singular_values_key);
  res.analytics_seconds = w.engine.now() - t0;
  if (p.real_data) {
    res.singular_values = co_await ipca.collect_vector(fit.singular_values_key);
    res.explained_variance =
        co_await ipca.collect_vector(fit.explained_variance_key);
  }
  st.analytics_done.set();
}

/// Waits for both phases then tears the cluster down so the engine drains.
exec::Co<void> orchestrator(World& w, SharedState& st, RunResult& res) {
  co_await st.sim_done.wait();
  co_await st.analytics_done.wait();
  res.total_seconds = w.engine.now();
  co_await w.runtime->shutdown();
}

}  // namespace

RunResult run_scenario(Pipeline pipeline, const ScenarioParams& params) {
  DEISA_CHECK(params.arrays >= 1, "scenario needs at least one array");
  DEISA_CHECK(params.arrays == 1 || (pipeline == Pipeline::kDeisa2 ||
                                     pipeline == Pipeline::kDeisa3),
              "multi-array workflows require the external-task pipelines "
              "(DEISA2/3); got "
                  << to_string(pipeline) << " with " << params.arrays
                  << " arrays");
  World w(params);
  // Attach the observability layer for the duration of the run: a metrics
  // registry always, a trace recorder only when asked for, both stamped
  // with the engine's simulated time. Previous installations (e.g. an
  // outer test harness) are restored on return.
  std::shared_ptr<obs::Recorder> recorder;
  if (params.trace)
    recorder = std::make_shared<obs::Recorder>(params.trace_capacity);
  obs::MetricsRegistry registry;
  obs::ObservationScope scope(recorder.get(), &registry,
                              [&engine = w.engine] { return engine.now(); });
  SharedState st(w.engine);
  RunResult res;
  res.pipeline = pipeline;
  // Replay provenance: the generator seed rides with the result, the
  // metrics snapshot, and (when tracing) the trace itself, so a corpus
  // failure names its own reproduction command.
  res.scenario_seed = params.scenario_seed;
  obs::gauge_set("scenario.seed",
                 static_cast<double>(params.scenario_seed));
  if (recorder)
    recorder->instant(recorder->track("harness", "scenario"),
                      "scenario:seed=" + std::to_string(params.scenario_seed),
                      {obs::arg("pipeline", to_string(pipeline))});
  res.sim_compute.assign(
      static_cast<std::size_t>(params.ranks),
      std::vector<double>(static_cast<std::size_t>(params.timesteps), 0.0));
  res.sim_io = res.sim_compute;

  io::PosthocDataset dataset;
  std::unique_ptr<io::PosthocWriter> writer;
  bool drained = false;

  // Under the threads substrate actors start running the moment they are
  // spawned, so everything they touch (st, res, dataset, writer) is set
  // up before the first spawn and the executor is joined (w.finish())
  // before this frame unwinds — including on the throwing paths.
  try {
    w.runtime->start();
    if (w.injector) w.injector->arm(*w.runtime);

    if (is_posthoc(pipeline)) {
      dataset =
          io::PosthocDataset("/pfs/heat2d", params.virtual_array().grid());
      if (params.real_data) {
        const auto dir = std::filesystem::temp_directory_path() /
                         ("deisa-posthoc-" + std::to_string(params.alloc_seed));
        dataset.file = io::H5Mini::create(dir, dataset.grid.shape(),
                                          dataset.grid.chunk_shape());
      }
      writer = std::make_unique<io::PosthocWriter>(w.pfs, &dataset);
      // All post-hoc actors share the writer and dataset; one strand keeps
      // their interleaving at suspension points only, exactly the
      // guarantee the simulator gives globally (no-op under sim).
      void* io_strand = w.engine.new_strand();
      for (int r = 0; r < params.ranks; ++r)
        w.engine.spawn_on(io_strand,
                          posthoc_rank_actor(w, st, dataset, *writer, r, res));
      w.engine.spawn_on(
          io_strand,
          posthoc_analytics_actor(
              w, st, dataset, pipeline == Pipeline::kPosthocOldIpca, res));
    } else {
      // One bridge (client connection) per rank, plus the adaptor's
      // client. Each rank gets its own strand holding its bridge
      // (including the replay loop the constructor spawns when recovery
      // is armed), its rank actor and its heartbeat loop, so that trio
      // never runs concurrently with itself. Strands are no-ops under
      // sim, so they change no event order there.
      std::vector<void*> rank_strands(static_cast<std::size_t>(params.ranks));
      for (auto& s : rank_strands) s = w.engine.new_strand();
      for (int r = 0; r < params.ranks; ++r) {
        dts::Client& c =
            w.runtime->make_client(w.rank_nodes[static_cast<std::size_t>(r)]);
        exec::StrandScope strand_scope(
            w.engine, rank_strands[static_cast<std::size_t>(r)]);
        st.bridges.push_back(std::make_unique<core::Bridge>(
            c, mode_of(pipeline), r, params.ranks));
      }
      st.adaptor = std::make_unique<core::Adaptor>(
          w.runtime->make_client(w.client_node), mode_of(pipeline));
      for (int r = 0; r < params.ranks; ++r) {
        void* s = rank_strands[static_cast<std::size_t>(r)];
        w.engine.spawn_on(s, deisa_rank_actor(w, st, pipeline, r, res));
        w.engine.spawn_on(
            s, st.bridges[static_cast<std::size_t>(r)]->run_heartbeats(
                   st.stop_heartbeats));
      }
      void* adaptor_strand = w.engine.new_strand();
      if (pipeline == Pipeline::kDeisa1) {
        w.engine.spawn_on(adaptor_strand, deisa1_adaptor_actor(w, st, res));
      } else {
        w.engine.spawn_on(adaptor_strand, deisa23_adaptor_actor(w, st, res));
      }
    }
    w.engine.spawn_on(w.engine.new_strand(), orchestrator(w, st, res));
    // Watchdog: a scenario that cannot complete within 10 simulated hours
    // has diverged (e.g. a scheduler saturated beyond recovery).
    drained = w.engine.run_until(36000.0);
    w.finish();
  } catch (...) {
    w.finish();
    throw;
  }
  DEISA_CHECK(drained && st.analytics_done.is_set() && st.sim_done.is_set(),
              "scenario did not complete within the simulated-time cap ("
                  << to_string(pipeline) << ", " << params.ranks
                  << " ranks): the configuration diverges");

  // Aggregated over shards (at shards == 1 these read the exact counters
  // of the single scheduler, as before).
  const dts::ShardedScheduler& sched = w.runtime->sharded();
  res.scheduler_messages = sched.total_messages();
  for (auto kind :
       {dts::SchedMsgKind::kUpdateGraph, dts::SchedMsgKind::kTaskFinished,
        dts::SchedMsgKind::kUpdateData, dts::SchedMsgKind::kCreateExternal,
        dts::SchedMsgKind::kWaitKey, dts::SchedMsgKind::kHeartbeatWorker,
        dts::SchedMsgKind::kHeartbeatBridge, dts::SchedMsgKind::kVariableSet,
        dts::SchedMsgKind::kVariableGet, dts::SchedMsgKind::kQueuePut,
        dts::SchedMsgKind::kQueueGet})
    res.scheduler_messages_by_kind[dts::to_string(kind)] =
        sched.messages_received(kind);
  res.shards = sched.num_shards();
  for (int s = 0; s < sched.num_shards(); ++s)
    res.shard_messages.push_back(sched.shard(s).total_messages());
  res.shard_remote_edges = sched.remote_edges();
  res.shard_notify_msgs = sched.notify_msgs();
  res.shard_release_acks = sched.release_acks();
  for (const auto& b : st.bridges) {
    res.bridge_blocks_sent += b->blocks_sent();
    res.bridge_blocks_filtered += b->blocks_filtered();
    res.bridge_blocks_repushed += b->blocks_repushed();
  }
  res.network_bytes = w.cluster.stats().bytes;
  res.scheduler_busy_seconds = sched.total_service_time();
  res.keys_released = sched.keys_released();
  for (int i = 0; i < w.runtime->num_workers(); ++i) {
    res.worker_busy_seconds.push_back(w.runtime->worker(i).busy_time());
    res.worker_tasks.push_back(w.runtime->worker(i).tasks_executed());
    res.worker_peak_bytes =
        std::max(res.worker_peak_bytes, w.runtime->worker(i).peak_memory_bytes());
  }
  res.pfs_bytes_written = w.pfs.bytes_written();
  res.pfs_bytes_read = w.pfs.bytes_read();
  // Every shard runs lineage recovery over its own records: the totals
  // are field-wise sums, with the per-shard breakdown kept for reporting.
  res.recovery = sched.recovery();
  for (int s = 0; s < sched.num_shards(); ++s)
    res.shard_recovery.push_back(sched.shard(s).recovery());
  res.workers_killed = w.injector ? w.injector->kills_performed() : 0;
  // Threaded backend: fold the executor's contention counters (strand
  // queue depths, post->run latency) into the run's metrics.
  if (w.thr_engine) w.thr_engine->publish_metrics();
  if (recorder) obs::gauge_set("trace.dropped_events_final",
                               static_cast<double>(recorder->dropped()));
  res.metrics = registry.snapshot();
  res.trace = std::move(recorder);
  return res;
}

}  // namespace deisa::harness
