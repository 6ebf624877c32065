// Quickstart: couple a toy "simulation" to task-based analytics with
// external tasks — the paper's core idea in ~80 lines.
//
//   1. Create a distributed array whose chunks are EXTERNAL tasks (no
//      data exists yet).
//   2. Submit an analytics graph over every future timestep, up front.
//   3. Run the "simulation", pushing one block per rank per step.
//   4. The graph fires as data lands; gather the result.
//
// Build & run:  ./quickstart
#include <iostream>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/array/darray.hpp"
#include "deisa/dts/runtime.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

// 4 timesteps of an 8x8 field, one 4x4 block per "rank" per step.
constexpr std::int64_t kSteps = 4;

arr::Index shape3(std::int64_t a, std::int64_t b, std::int64_t c) {
  arr::Index i;
  i.push_back(a);
  i.push_back(b);
  i.push_back(c);
  return i;
}

/// The analytics: one task per step sums its slab; a final task adds the
/// per-step sums — submitted before ANY data exists.
exec::Co<void> workflow(dts::Runtime& rt, dts::Client& client) {
  arr::DArray field = co_await arr::DArray::from_external(
      client, "temp", shape3(kSteps, 8, 8), shape3(1, 4, 4));

  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> sum_keys;
  for (std::int64_t t = 0; t < kSteps; ++t) {
    std::vector<dts::Key> deps;
    for (const arr::Index& c : field.grid().step_chunks(t))
      deps.push_back(field.key_of(c));
    dts::Key key = "sum/t" + std::to_string(t);
    tasks.emplace_back(key, std::move(deps),
                       [](const std::vector<dts::Data>& in) {
                         double s = 0;
                         for (const auto& d : in)
                           for (double v : d.as<arr::NDArray>().flat()) s += v;
                         return dts::Data::make<double>(s, 8);
                       });
    sum_keys.push_back(std::move(key));
  }
  tasks.emplace_back("total", sum_keys,
                     [](const std::vector<dts::Data>& in) {
                       double s = 0;
                       for (const auto& d : in) s += d.as<double>();
                       return dts::Data::make<double>(s, 8);
                     });
  std::vector<dts::Key> wants;
  wants.push_back("total");
  co_await client.submit(std::move(tasks), std::move(wants));
  std::cout << "[t=" << rt.scheduler().node() << "] graph for all " << kSteps
            << " steps submitted before any data exists\n";

  // --- the "simulation": four ranks each push one block per step ---
  for (std::int64_t t = 0; t < kSteps; ++t) {
    for (std::int64_t i = 0; i < 4; ++i) {
      const arr::Index c = field.grid().coord_of(t * 4 + i);
      arr::NDArray block(shape3(1, 4, 4), /*fill=*/double(t + 1));
      const std::uint64_t bytes = block.bytes();
      co_await client.scatter(field.key_of(c),
                              dts::Data::make<arr::NDArray>(std::move(block),
                                                            bytes),
                              field.worker_of(c), /*external=*/true);
    }
  }

  const dts::Data total = co_await client.gather("total");
  std::cout << "total heat over all steps = " << total.as<double>()
            << " (expected " << (1 + 2 + 3 + 4) * 64 << ")\n";
  co_await rt.shutdown();
}

}  // namespace

int main() {
  sim::Engine engine;
  net::ClusterParams cp;
  cp.physical_nodes = 8;
  net::Cluster cluster(engine, cp);
  dts::Runtime runtime(engine, cluster, /*scheduler_node=*/0,
                       /*worker_nodes=*/{2, 3});
  runtime.start();
  dts::Client& client = runtime.make_client(/*node=*/1);
  engine.spawn(workflow(runtime, client));
  engine.run();
  std::cout << "done in " << engine.now() << " simulated seconds, "
            << engine.events_processed() << " events\n";
  return 0;
}
