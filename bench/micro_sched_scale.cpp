// Scheduler hot-path scale microbench: how fast can the scheduler ingest,
// drain, and external-complete graphs of 10^3..10^5 tasks? The paper's
// headline trick — submitting a task graph spanning every future timestep
// before any data exists — makes graph ingestion and per-task transition
// cost the scaling bottleneck (cf. Böhm & Beránek, "Runtime vs Scheduler:
// Analyzing Dask's Overheads"). This bench measures WALL-CLOCK cost of the
// scheduler data structures (simulated service times are set to ~zero), so
// its numbers track the C++ hot path itself, not the modelled Python
// scheduler. Emits BENCH_sched.json so later PRs can track the trajectory.
//
// Usage: micro_sched_scale [--sizes 1000,10000,100000] [--repeat N]
//                          [--out BENCH_sched.json]
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "deisa/dts/runtime.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/util/table.hpp"

namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

constexpr int kWorkers = 4;
constexpr int kLayerWidth = 64;

struct Fixture {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  Fixture() {
    net::ClusterParams cp;
    cp.physical_nodes = kWorkers + 4;
    cluster = std::make_unique<net::Cluster>(eng, cp);
    std::vector<int> wn;
    for (int i = 0; i < kWorkers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    // Near-zero simulated service so wall time measures the scheduler's
    // data structures, not the modelled Python-scheduler service model.
    rp.scheduler.service_base = 1e-9;
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.worker.heartbeat_interval = 0;  // no background chatter
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

/// Layered DAG over optional external leaves: `n` compute tasks in layers
/// of kLayerWidth, every task depending on two tasks of the previous
/// layer (or on an external/root leaf for the first layer). Mirrors the
/// per-timestep reduce shape of the paper's analytics graphs.
struct Graph {
  std::vector<dts::Key> leaves;      // external (or root) keys
  std::vector<int> leaf_workers;     // round-robin preselection
  std::vector<dts::TaskSpec> tasks;  // the n compute tasks
  std::vector<dts::Key> sinks;       // final-layer keys (drain barrier)
};

Graph make_graph(int n, bool external_leaves) {
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
      deps.push_back(
          "t" + std::to_string(layer_base + (col + 1) % kLayerWidth));
    }
    g.tasks.emplace_back("t" + std::to_string(i), std::move(deps),
                         dts::TaskFn{}, /*cost=*/0.0, /*out_bytes=*/64);
  }
  const int last_layer_base = ((n - 1) / kLayerWidth) * kLayerWidth;
  for (int i = last_layer_base; i < n; ++i)
    g.sinks.push_back("t" + std::to_string(i));
  if (!external_leaves) {
    // Root leaves are ordinary zero-cost tasks instead of external keys.
    for (std::size_t i = 0; i < g.leaves.size(); ++i)
      g.tasks.emplace_back(g.leaves[i], std::vector<dts::Key>{},
                           dts::TaskFn{}, /*cost=*/0.0, /*out_bytes=*/64);
    g.leaves.clear();
    g.leaf_workers.clear();
  }
  return g;
}

exec::Co<void> ingest_flow(Fixture& fx, Graph g) {
  co_await fx.client->external_futures(std::move(g.leaves),
                                       std::move(g.leaf_workers));
  co_await fx.client->submit(std::move(g.tasks));
  co_await fx.rt->shutdown();
}

exec::Co<void> drain_flow(Fixture& fx, Graph g) {
  co_await fx.client->submit(std::move(g.tasks));
  for (const dts::Key& k : g.sinks) (void)co_await fx.client->wait_key(k);
  co_await fx.rt->shutdown();
}

exec::Co<void> push_flow(Fixture& fx, Graph g, double& push_seconds) {
  const std::vector<dts::Key> leaves = g.leaves;
  const std::vector<int> targets = g.leaf_workers;
  co_await fx.client->external_futures(std::move(g.leaves),
                                       std::move(g.leaf_workers));
  co_await fx.client->submit(std::move(g.tasks));
  // The "simulation" now completes every leaf: each scatter is a
  // synchronous RPC whose ack proves the external→memory cascade (incl.
  // readying the dependents) ran. Timed separately from ingestion.
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < leaves.size(); ++i)
    (void)co_await fx.client->scatter(leaves[i], dts::Data::sized(64),
                                      targets[i], /*external=*/true);
  push_seconds = seconds_since(t0);
  for (const dts::Key& k : g.sinks) (void)co_await fx.client->wait_key(k);
  co_await fx.rt->shutdown();
}

struct SizeResult {
  int tasks = 0;
  int push_blocks = 0;
  double ingest_seconds = 0.0;
  double drain_seconds = 0.0;
  double push_us_per_block = 0.0;

  double ingest_rate() const { return tasks / ingest_seconds; }
  double drain_rate() const { return tasks / drain_seconds; }
};

SizeResult run_size(int n, int repeat) {
  SizeResult r;
  r.tasks = n;
  r.ingest_seconds = std::numeric_limits<double>::infinity();
  r.drain_seconds = std::numeric_limits<double>::infinity();
  r.push_us_per_block = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < repeat; ++rep) {
    {
      Fixture fx;
      Graph g = make_graph(n, /*external_leaves=*/true);
      fx.eng.spawn(ingest_flow(fx, std::move(g)));
      const auto t0 = Clock::now();
      fx.eng.run();
      r.ingest_seconds = std::min(r.ingest_seconds, seconds_since(t0));
    }
    {
      Fixture fx;
      Graph g = make_graph(n, /*external_leaves=*/false);
      fx.eng.spawn(drain_flow(fx, std::move(g)));
      const auto t0 = Clock::now();
      fx.eng.run();
      r.drain_seconds = std::min(r.drain_seconds, seconds_since(t0));
    }
    {
      Fixture fx;
      Graph g = make_graph(n, /*external_leaves=*/true);
      r.push_blocks = static_cast<int>(g.leaves.size());
      double push_seconds = 0.0;
      fx.eng.spawn(push_flow(fx, std::move(g), push_seconds));
      fx.eng.run();
      r.push_us_per_block =
          std::min(r.push_us_per_block, 1e6 * push_seconds / r.push_blocks);
    }
  }
  return r;
}

std::vector<int> parse_sizes(const std::string& arg) {
  std::vector<int> out;
  std::stringstream ss(arg);
  std::string tok;
  while (std::getline(ss, tok, ',')) out.push_back(std::stoi(tok));
  return out;
}

void write_json(const std::string& path, const std::vector<SizeResult>& rs,
                int repeat) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"micro_sched_scale\",\n  \"repeat\": " << repeat
    << ",\n  \"sizes\": [\n";
  for (std::size_t i = 0; i < rs.size(); ++i) {
    const SizeResult& r = rs[i];
    f << "    {\"tasks\": " << r.tasks
      << ", \"ingest_seconds\": " << r.ingest_seconds
      << ", \"ingest_tasks_per_sec\": " << r.ingest_rate()
      << ", \"drain_seconds\": " << r.drain_seconds
      << ", \"drain_tasks_per_sec\": " << r.drain_rate()
      << ", \"push_blocks\": " << r.push_blocks
      << ", \"push_us_per_block\": " << r.push_us_per_block << "}"
      << (i + 1 < rs.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<int> sizes = {1000, 10000, 100000};
  std::string out = "BENCH_sched.json";
  int repeat = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--sizes" && i + 1 < argc) {
      sizes = parse_sizes(argv[++i]);
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--repeat" && i + 1 < argc) {
      repeat = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: micro_sched_scale [--sizes a,b,c] [--repeat N]"
                   " [--out file.json]\n";
      return 2;
    }
  }

  std::vector<SizeResult> results;
  deisa::util::Table table(
      {"tasks", "ingest s", "ingest tasks/s", "drain s", "drain tasks/s",
       "push blocks", "push us/block"});
  for (int n : sizes) {
    const SizeResult r = run_size(n, repeat);
    results.push_back(r);
    table.add_row({std::to_string(r.tasks),
                   deisa::util::Table::num(r.ingest_seconds, 4),
                   deisa::util::Table::num(r.ingest_rate(), 0),
                   deisa::util::Table::num(r.drain_seconds, 4),
                   deisa::util::Table::num(r.drain_rate(), 0),
                   std::to_string(r.push_blocks),
                   deisa::util::Table::num(r.push_us_per_block, 2)});
  }
  std::cout << "\n=== scheduler hot-path scale (wall-clock) ===\n";
  table.print(std::cout);
  write_json(out, results, repeat);
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
