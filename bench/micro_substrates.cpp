// Substrate microbenchmarks (google-benchmark): wall-clock throughput of
// the building blocks — event engine, channels, scheduler pipeline,
// linear algebra kernels, IPCA update, field-monitor statistics, YAML
// parsing — plus sim-vs-threads A/B pairs for the executor primitives
// (channel roundtrip, spawn throughput, transport transfer) so CI tracks
// the overhead of the real threaded substrate against the modeled one.
#include <benchmark/benchmark.h>

#include "deisa/apps/heat2d.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/config/yaml.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/linalg/decomp.hpp"
#include "deisa/ml/pca.hpp"
#include "deisa/ml/streaming.hpp"
#include "deisa/obs/observation.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/rt/threaded_transport.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/util/rng.hpp"

namespace {

namespace apps = deisa::apps;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace la = deisa::linalg;
namespace ml = deisa::ml;
namespace net = deisa::net;
namespace rt = deisa::rt;
namespace sim = deisa::sim;

exec::Co<void> ping_pong(exec::Executor& eng, exec::Channel<int>& a,
                         exec::Channel<int>& b, int n) {
  for (int i = 0; i < n; ++i) {
    a.send(i);
    (void)co_await b.recv();
  }
  (void)eng;
}

exec::Co<void> echo(exec::Channel<int>& a, exec::Channel<int>& b, int n) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await a.recv();
    b.send(v);
  }
}

void BM_EngineChannelRoundtrip(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    exec::Channel<int> a(eng);
    exec::Channel<int> b(eng);
    const int n = static_cast<int>(state.range(0));
    eng.spawn(ping_pong(eng, a, b, n));
    eng.spawn(echo(a, b, n));
    eng.run();
    benchmark::DoNotOptimize(eng.events_processed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineChannelRoundtrip)->Arg(1000);

exec::Co<void> timer(exec::Executor& eng, exec::Time dt) {
  co_await eng.delay(dt);
}

// One coroutine per timer: the queue holds every timer at once, fired
// in time order.
void BM_EngineTimerWheel(benchmark::State& state) {
  for (auto _ : state) {
    sim::Engine eng;
    deisa::util::Rng rng(7);
    for (int i = 0; i < state.range(0); ++i)
      eng.spawn(timer(eng, rng.uniform(0.0, 100.0)));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineTimerWheel)->Arg(10000);

// A/B counterpart of BM_EngineChannelRoundtrip on real threads: the two
// actors live on distinct strands, so every message really crosses a
// thread boundary. The executor is reused across iterations (run() waits
// for quiescence and the pool stays up) so thread startup is not timed.
void BM_ThreadedChannelRoundtrip(benchmark::State& state) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, 1.0});
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    exec::Channel<int> a(ex);
    exec::Channel<int> b(ex);
    ex.spawn_on(ex.new_strand(), ping_pong(ex, a, b, n));
    ex.spawn_on(ex.new_strand(), echo(a, b, n));
    ex.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadedChannelRoundtrip)->Arg(1000);

exec::Co<void> noop_actor() { co_return; }

void BM_EngineSpawnThroughput(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    for (int i = 0; i < n; ++i) eng.spawn(noop_actor());
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_EngineSpawnThroughput)->Arg(10000);

void BM_ThreadedSpawnThroughput(benchmark::State& state) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{0, 1.0});
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    for (int i = 0; i < n; ++i) ex.spawn(noop_actor());
    ex.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ThreadedSpawnThroughput)->Arg(10000);

exec::Co<void> transfer_actor(exec::Transport& tp, int count,
                              std::uint64_t bytes) {
  for (int i = 0; i < count; ++i) co_await tp.transfer(0, 1, bytes);
}

// Sim transfers advance virtual time only; threaded transfers memcpy the
// bytes through the NIC scratch buffers. The pair bounds what "real data
// movement" costs over the modeled one.
void BM_SimTransfer(benchmark::State& state) {
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::ClusterParams cp;
    cp.physical_nodes = 2;
    net::Cluster cluster(eng, cp);
    eng.spawn(transfer_actor(cluster, 64, bytes));
    eng.run();
  }
  state.SetBytesProcessed(state.iterations() * 64 * state.range(0));
}
BENCHMARK(BM_SimTransfer)->Arg(1 << 20);

void BM_ThreadedTransfer(benchmark::State& state) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{2, 1.0});
  rt::ThreadedTransport transport(ex, rt::ThreadedTransportParams{2});
  const auto bytes = static_cast<std::uint64_t>(state.range(0));
  for (auto _ : state) {
    ex.spawn(transfer_actor(transport, 64, bytes));
    ex.run();
  }
  state.SetBytesProcessed(state.iterations() * 64 * state.range(0));
}
BENCHMARK(BM_ThreadedTransfer)->Arg(1 << 20);

la::Matrix random_matrix(std::size_t m, std::size_t n) {
  deisa::util::Rng rng(42);
  la::Matrix a(m, n);
  for (double& x : a.data()) x = rng.normal();
  return a;
}

void BM_IpcaPartialFit(benchmark::State& state) {
  ml::PcaOptions opts;
  opts.n_components = 4;
  const auto x = random_matrix(static_cast<std::size_t>(state.range(0)), 64);
  for (auto _ : state) {
    ml::IncrementalPca ipca(opts);
    ipca.partial_fit(x);
    ipca.partial_fit(x);
    benchmark::DoNotOptimize(ipca.singular_values().data());
  }
}
BENCHMARK(BM_IpcaPartialFit)->Arg(64)->Arg(256);

// heat2d-ipca's in-transit kernel: one steady-state partial_fit of the new
// IPCA (randomized solver, 2 components) on 192-sample x 48-feature
// batches, so each solve sketches a 195 x 48 stack.
void BM_IpcaPartialFitRandomized(benchmark::State& state) {
  ml::PcaOptions opts;
  opts.n_components = 2;
  opts.randomized = true;
  const auto x = random_matrix(192, 48);
  ml::IncrementalPca ipca(opts);
  ipca.partial_fit(x);
  for (auto _ : state) {
    ipca.partial_fit(x);
    benchmark::DoNotOptimize(ipca.singular_values().data());
  }
}
BENCHMARK(BM_IpcaPartialFitRandomized);

// The kernels that partial_fit spends its time in, at heat2d-ipca's
// shapes: the sketch is 12 columns wide (2 components + 10 oversampling),
// so each call runs 5 matmuls and 5 matmul_tns of the 195 x 48 stack
// against 12 columns, 5 QRs of 195 x 12 and 4 of 48 x 12 panels, and one
// Jacobi SVD of the 12 x 48 projected matrix.
void BM_Matmul(benchmark::State& state) {
  const auto a = random_matrix(195, 48);
  const auto b = random_matrix(48, 12);
  for (auto _ : state) {
    auto c = la::matmul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_Matmul);

void BM_MatmulTn(benchmark::State& state) {
  const auto a = random_matrix(195, 48);
  const auto b = random_matrix(195, 12);
  for (auto _ : state) {
    auto c = la::matmul_tn(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
}
BENCHMARK(BM_MatmulTn);

void BM_QrThin(benchmark::State& state) {
  const auto a = random_matrix(static_cast<std::size_t>(state.range(0)), 12);
  for (auto _ : state) {
    auto qr = la::qr_thin(a);
    benchmark::DoNotOptimize(qr.r.data().data());
  }
}
BENCHMARK(BM_QrThin)->Arg(195)->Arg(48);

void BM_JacobiSvd(benchmark::State& state) {
  const auto a = random_matrix(12, 48);
  for (auto _ : state) {
    auto svd = la::svd(a);
    benchmark::DoNotOptimize(svd.s.data());
  }
}
BENCHMARK(BM_JacobiSvd);

void BM_RandomizedSvd(benchmark::State& state) {
  const auto a = random_matrix(195, 48);
  for (auto _ : state) {
    auto svd = la::randomized_svd(a, 2, 10, 4, 5);
    benchmark::DoNotOptimize(svd.s.data());
  }
}
BENCHMARK(BM_RandomizedSvd);

// The field monitor's leaf task body: one FieldStats::of over a block at
// the monitor's default layout (16 bins over [0, 100)), with samples
// spread over [-10, 110) so both edge bins collect clamped ones. 1,024
// samples is wide-monitor's block, 524,288 (4 MiB) bulk-monitor-gc's.
void BM_FieldStatsOf(benchmark::State& state) {
  deisa::util::Rng rng(11);
  std::vector<double> block(static_cast<std::size_t>(state.range(0)));
  for (double& x : block) x = rng.uniform(-10.0, 110.0);
  for (auto _ : state) {
    auto s = ml::FieldStats::of(block, 16, 0.0, 100.0);
    benchmark::DoNotOptimize(s.m2);
    benchmark::DoNotOptimize(s.histogram.data());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FieldStatsOf)->Arg(1024)->Arg(524288);

// heat2d-ipca's simulation kernel: one warm Heat2d step of a 48 x 48
// rank on a 1 x 1 process grid (no neighbours, so no halo message: the
// strips and the stencil update alone).
exec::Co<void> one_heat2d_step(apps::Heat2d& solver, deisa::mpix::Comm& comm) {
  co_await solver.step(comm);
}

void BM_Heat2dStep(benchmark::State& state) {
  sim::Engine eng;
  net::ClusterParams cp;
  cp.physical_nodes = 1;
  net::Cluster cluster(eng, cp);
  deisa::mpix::Comm comm(cluster, {0});
  apps::Heat2dConfig cfg;
  cfg.local_nx = 48;
  cfg.local_ny = 48;
  apps::Heat2d solver(cfg, 0);
  solver.initialize();
  eng.spawn(one_heat2d_step(solver, comm));
  eng.run();
  for (auto _ : state) {
    eng.spawn(one_heat2d_step(solver, comm));
    eng.run();
    benchmark::DoNotOptimize(solver.field().data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * cfg.local_nx * cfg.local_ny);
}
BENCHMARK(BM_Heat2dStep);

void BM_YamlParseListing1(benchmark::State& state) {
  const std::string doc = R"(
metadata: { step: int, cfg: config_t, rank: int }
data:
  temp:
    type: array
    subtype: double
    size: [ '$cfg.loc[0]', '$cfg.loc[1]' ]
plugins:
  PdiPluginDeisa:
    scheduler_info: scheduler.json
    init_on: init
    time_step: $step
    deisa_arrays:
      G_temp:
        type: array
        subtype: double
        size: ['$cfg.maxTimeStep', '$cfg.loc[0] * $cfg.proc[0]', '$cfg.loc[1] * $cfg.proc[1]']
        subsize: [1, '$cfg.loc[0]', '$cfg.loc[1]']
        start: [$step, '$cfg.loc[0] * ($rank % $cfg.proc[0])', '$cfg.loc[1] * ($rank / $cfg.proc[0])']
        timedim: 0
    map_in:
      temp: G_temp
)";
  for (auto _ : state) {
    auto node = deisa::config::parse_yaml(doc);
    benchmark::DoNotOptimize(&node);
  }
}
BENCHMARK(BM_YamlParseListing1);

exec::Co<void> scheduler_pipeline(dts::Client& client, dts::Runtime& rt,
                                  int n) {
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> wants;
  for (int i = 0; i < n; ++i) {
    dts::Key k = "t" + std::to_string(i);
    std::vector<dts::Key> deps;
    if (i > 0) deps.push_back("t" + std::to_string(i - 1));
    tasks.emplace_back(k, std::move(deps), nullptr, 0.0, 64);
    wants.push_back(std::move(k));
  }
  co_await client.submit(std::move(tasks), {});
  co_await client.wait_key("t" + std::to_string(n - 1));
  co_await rt.shutdown();
}

void BM_SchedulerTaskChain(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    net::ClusterParams cp;
    cp.physical_nodes = 8;
    net::Cluster cluster(eng, cp);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 0;  // wall-clock of the machinery itself
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.worker.heartbeat_interval = 0;
    dts::Runtime rt(eng, cluster, 0, {1, 2}, rp);
    rt.start();
    dts::Client& client = rt.make_client(3);
    eng.spawn(scheduler_pipeline(client, rt, n));
    eng.run();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerTaskChain)->Arg(500);

// Same pipeline with the full observability layer attached (trace
// recorder + metrics registry + sim clock). The delta against
// BM_SchedulerTaskChain is the cost of tracing; BM_SchedulerTaskChain
// itself measures the disabled path (null-pointer checks only).
void BM_SchedulerTaskChainTraced(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Engine eng;
    deisa::obs::Recorder recorder;
    deisa::obs::MetricsRegistry registry;
    deisa::obs::ObservationScope scope(&recorder, &registry,
                                       [&eng] { return eng.now(); });
    net::ClusterParams cp;
    cp.physical_nodes = 8;
    net::Cluster cluster(eng, cp);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 0;
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.worker.heartbeat_interval = 0;
    dts::Runtime rt(eng, cluster, 0, {1, 2}, rp);
    rt.start();
    dts::Client& client = rt.make_client(3);
    eng.spawn(scheduler_pipeline(client, rt, n));
    eng.run();
    benchmark::DoNotOptimize(recorder.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SchedulerTaskChainTraced)->Arg(500);

}  // namespace

BENCHMARK_MAIN();
