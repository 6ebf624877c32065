// Digital-twin workflow (the paper's conclusion: "external tasks are
// more general and could be used for any external environment such as in
// digital twins workflows"): TWO independent external environments — a
// physics simulation and a sensor array — feed one analytics graph,
// submitted entirely ahead of time, that monitors per-step statistics of
// both and raises a divergence alarm when the twin drifts from the
// sensed reality.
#include <iostream>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/apps/heat2d.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/ml/streaming.hpp"
#include "deisa/mpix/comm.hpp"
#include "deisa/util/rng.hpp"

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace ml = deisa::ml;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

constexpr std::int64_t kEdge = 16;
constexpr int kSteps = 6;
constexpr double kSensorDriftStep = 3;  // sensors start drifting here

arr::Index shape3(std::int64_t a, std::int64_t b, std::int64_t c) {
  arr::Index i;
  i.push_back(a);
  i.push_back(b);
  i.push_back(c);
  return i;
}

/// Environment 1: the simulated twin (Heat2D), single rank.
exec::Co<void> twin_environment(mpix::Comm& comm, dts::Client& client,
                                const arr::DArray& field) {
  apps::Heat2dConfig hc;
  hc.local_nx = kEdge;
  hc.local_ny = kEdge;
  apps::Heat2d solver(hc, 0);
  solver.initialize();
  for (std::int64_t t = 0; t < kSteps; ++t) {
    arr::NDArray block(shape3(1, kEdge, kEdge));
    std::copy(solver.field().flat().begin(), solver.field().flat().end(),
              block.flat().begin());
    const std::uint64_t b = block.bytes();
    co_await client.scatter(field.key_of(shape3(t, 0, 0)),
                            dts::Data::make<arr::NDArray>(std::move(block), b),
                            field.worker_of(shape3(t, 0, 0)),
                            /*external=*/true);
    co_await solver.step(comm);
  }
}

/// Environment 2: the physical asset's sensors — the same field plus
/// noise, plus a growing hot-spot fault after step 3.
exec::Co<void> sensor_environment(mpix::Comm& comm, dts::Client& client,
                                  const arr::DArray& sensed) {
  apps::Heat2dConfig hc;
  hc.local_nx = kEdge;
  hc.local_ny = kEdge;
  apps::Heat2d solver(hc, 0);
  solver.initialize();
  Rng rng(99);
  for (std::int64_t t = 0; t < kSteps; ++t) {
    arr::NDArray block(shape3(1, kEdge, kEdge));
    auto out = block.flat();
    auto in = solver.field().flat();
    for (std::size_t i = 0; i < in.size(); ++i) {
      double v = in[i] + rng.normal(0.0, 0.05);
      if (t >= kSensorDriftStep) v += 12.0 * double(t - kSensorDriftStep + 1);
      out[i] = v;
    }
    const std::uint64_t b = block.bytes();
    co_await client.scatter(sensed.key_of(shape3(t, 0, 0)),
                            dts::Data::make<arr::NDArray>(std::move(block), b),
                            sensed.worker_of(shape3(t, 0, 0)), true);
    co_await solver.step(comm);
  }
}

exec::Co<void> twin_analytics(dts::Runtime& rt, dts::Client& client) {
  // Both environments are declared up front as external arrays...
  arr::DArray field = co_await arr::DArray::from_external(
      client, "twin", shape3(kSteps, kEdge, kEdge), shape3(1, kEdge, kEdge));
  arr::DArray sensed = co_await arr::DArray::from_external(
      client, "sensors", shape3(kSteps, kEdge, kEdge),
      shape3(1, kEdge, kEdge));

  // ...and the whole monitoring graph is submitted before either runs.
  ml::MonitorOptions opts;
  opts.hist_lo = 0;
  opts.hist_hi = 150;
  opts.name = "twin-monitor";
  ml::InSituFieldMonitor twin_monitor(client, opts);
  opts.name = "sensor-monitor";
  ml::InSituFieldMonitor sensor_monitor(client, opts);
  ml::ExternalArrayProvider twin_provider(field);
  ml::ExternalArrayProvider sensor_provider(sensed);
  const auto twin_fit = co_await twin_monitor.submit(twin_provider);
  const auto sensor_fit = co_await sensor_monitor.submit(sensor_provider);

  // Both environments run concurrently (spawned by main); collect the
  // per-step stats and compare: a digital-twin health check.
  const auto twin_stats = co_await twin_monitor.collect(twin_fit);
  const auto sensor_stats = co_await sensor_monitor.collect(sensor_fit);
  std::cout << "step |  twin mean | sensor mean | divergence\n";
  for (std::size_t t = 0; t < twin_stats.size(); ++t) {
    const double div = sensor_stats[t].mean - twin_stats[t].mean;
    std::cout << "  " << t << "  |   " << twin_stats[t].mean << "   |   "
              << sensor_stats[t].mean << "   |  " << div
              << (div > 5.0 ? "   << ALARM: asset diverges from twin" : "")
              << "\n";
  }
  co_await rt.shutdown();
}

}  // namespace

int main() {
  sim::Engine engine;
  net::ClusterParams cp;
  cp.physical_nodes = 8;
  net::Cluster cluster(engine, cp);
  dts::Runtime runtime(engine, cluster, 0, {2, 3});
  runtime.start();

  mpix::Comm twin_comm(cluster, {4});
  mpix::Comm sensor_comm(cluster, {5});
  dts::Client& analytics_client = runtime.make_client(1);
  dts::Client& twin_client = runtime.make_client(4);
  dts::Client& sensor_client = runtime.make_client(5);

  // The analytics declares the external arrays; the environments push
  // into the same deisa-named keys (shared naming scheme).
  arr::DArray twin_view = arr::DArray::descriptor(
      twin_client, "twin", shape3(kSteps, kEdge, kEdge),
      shape3(1, kEdge, kEdge));
  arr::DArray sensor_view = arr::DArray::descriptor(
      sensor_client, "sensors", shape3(kSteps, kEdge, kEdge),
      shape3(1, kEdge, kEdge));

  engine.spawn(twin_analytics(runtime, analytics_client));
  engine.spawn(twin_environment(twin_comm, twin_client, twin_view));
  engine.spawn(sensor_environment(sensor_comm, sensor_client, sensor_view));
  engine.run();
  std::cout << "digital-twin workflow done in " << engine.now()
            << " simulated seconds\n";
  return 0;
}
