// Property tests for the task system:
//  * the distributed scheduler must compute, for ANY random DAG, exactly
//    the values a sequential topological evaluation computes — regardless
//    of worker count, placement, or how many of the graph's leaves arrive
//    later as external tasks;
//  * the same must hold when a seeded fault plan kills a worker mid-run
//    and the producer replays lost external blocks (recovery must be
//    value-transparent);
//  * for ANY random virtual-array decomposition and selection box, the
//    bridges' contract filtering must send exactly the brute-force set of
//    overlapping blocks — no more, no fewer;
//  * the refcount GC is value-transparent: for ANY random DAG, on either
//    substrate, with or without release_consumed, the gathered sink
//    values match the sequential evaluation — and with GC on, every
//    ever-consumed key with a drained refcount actually got released.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <string>

#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/fault/fault.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/rt/threaded_transport.hpp"
#include "deisa/util/rng.hpp"

namespace arr = deisa::array;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace fault = deisa::fault;
namespace net = deisa::net;
namespace rt = deisa::rt;
namespace sim = deisa::sim;
using deisa::util::Rng;

namespace {

struct RandomDag {
  struct Node {
    dts::Key key;
    std::vector<std::size_t> deps;  // indices of earlier nodes
    bool external = false;          // leaf completed by "the simulation"
    std::int64_t leaf_value = 0;
  };
  std::vector<Node> nodes;
};

/// Value of node i = leaf_value + sum of dependency values + index.
RandomDag make_dag(std::size_t n, double edge_prob, double external_frac,
                   std::uint64_t seed) {
  Rng rng(seed);
  RandomDag dag;
  for (std::size_t i = 0; i < n; ++i) {
    RandomDag::Node node;
    node.key = "n" + std::to_string(i);
    if (i > 0) {
      for (std::size_t j = i > 8 ? i - 8 : 0; j < i; ++j)
        if (rng.uniform() < edge_prob) node.deps.push_back(j);
    }
    if (node.deps.empty()) {
      node.external = rng.uniform() < external_frac;
      node.leaf_value = static_cast<std::int64_t>(rng.uniform_index(100));
    }
    dag.nodes.push_back(std::move(node));
  }
  return dag;
}

/// Node values grow exponentially with DAG depth and can outrun int64;
/// signed overflow is undefined, so the oracle and the task bodies both
/// sum with unsigned wraparound.
std::int64_t wrapping_add(std::int64_t a, std::int64_t b) {
  return static_cast<std::int64_t>(static_cast<std::uint64_t>(a) +
                                   static_cast<std::uint64_t>(b));
}

std::vector<std::int64_t> evaluate_sequentially(const RandomDag& dag) {
  std::vector<std::int64_t> value(dag.nodes.size(), 0);
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    std::int64_t v = dag.nodes[i].leaf_value + static_cast<std::int64_t>(i);
    for (std::size_t d : dag.nodes[i].deps) v = wrapping_add(v, value[d]);
    value[i] = v;
  }
  return value;
}

sim::Co<void> run_dag(dts::Runtime& rt, dts::Client& client,
                      const RandomDag& dag,
                      std::vector<std::int64_t>& results) {
  // External leaves first (futures created before the graph).
  std::vector<dts::Key> ext_keys;
  std::vector<int> ext_workers;
  for (const auto& node : dag.nodes)
    if (node.external) {
      ext_keys.push_back(node.key);
      ext_workers.push_back(static_cast<int>(ext_keys.size()) %
                            client.num_workers());
    }
  if (!ext_keys.empty())
    co_await client.external_futures(ext_keys, ext_workers);

  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> wants;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    const auto& node = dag.nodes[i];
    if (node.external) continue;
    std::vector<dts::Key> deps;
    for (std::size_t d : node.deps) deps.push_back(dag.nodes[d].key);
    const std::int64_t base = node.leaf_value + static_cast<std::int64_t>(i);
    tasks.emplace_back(node.key, std::move(deps),
                       [base](const std::vector<dts::Data>& in) {
                         std::int64_t v = base;
                         for (const auto& d : in)
                           v = wrapping_add(v, d.as<std::int64_t>());
                         return dts::Data::make<std::int64_t>(v, 8);
                       });
    wants.push_back(node.key);
  }
  co_await client.submit(std::move(tasks), std::move(wants));

  // The "simulation" pushes external leaves with a delay, in a scrambled
  // order, AFTER the graph is in place.
  std::size_t idx = 0;
  for (std::size_t i = ext_keys.size(); i-- > 0;) {
    const auto& node_key = ext_keys[i];
    std::size_t node_i = 0;
    for (std::size_t k = 0; k < dag.nodes.size(); ++k)
      if (dag.nodes[k].key == node_key) node_i = k;
    const std::int64_t v =
        dag.nodes[node_i].leaf_value + static_cast<std::int64_t>(node_i);
    co_await client.scatter(node_key, dts::Data::make<std::int64_t>(v, 8),
                            ext_workers[i], /*external=*/true);
    ++idx;
  }
  (void)idx;

  results.resize(dag.nodes.size());
  for (std::size_t i = 0; i < dag.nodes.size(); ++i)
    results[i] = (co_await client.gather(dag.nodes[i].key)).as<std::int64_t>();
  co_await rt.shutdown();
}

class DagProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(DagProperty, DistributedMatchesSequentialEvaluation) {
  const auto [n, workers, seed] = GetParam();
  const RandomDag dag =
      make_dag(static_cast<std::size_t>(n), 0.35, 0.5, seed);
  const auto expected = evaluate_sequentially(dag);

  sim::Engine eng;
  net::ClusterParams cp;
  cp.physical_nodes = workers + 4;
  net::Cluster cluster(eng, cp);
  std::vector<int> wn;
  for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
  dts::RuntimeParams rp;
  rp.scheduler.service_base = 1e-4;
  rp.scheduler.service_per_task = 0;
  rp.scheduler.service_per_key = 0;
  dts::Runtime rt(eng, cluster, 0, wn, rp);
  rt.start();
  dts::Client& client = rt.make_client(1);

  std::vector<std::int64_t> results;
  eng.spawn(run_dag(rt, client, dag, results));
  eng.run();

  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(results[i], expected[i]) << "node " << i << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RandomDags, DagProperty,
    ::testing::Values(std::tuple{10, 1, 11ull}, std::tuple{30, 2, 22ull},
                      std::tuple{60, 3, 33ull}, std::tuple{60, 5, 44ull},
                      std::tuple{120, 4, 55ull}, std::tuple{120, 8, 66ull},
                      std::tuple{200, 6, 77ull}));

// ---- random DAGs × refcount GC × substrate ----

struct PlaneCase {
  int n;
  int workers;
  std::uint64_t seed;
  std::uint64_t block_bytes;  // leaf/task payload size (accounting axis)
  bool gc;       // scheduler release_consumed
  bool threads;  // substrate: rt::ThreadedExecutor instead of sim
};

/// Test-name suffix, e.g. n40_w3_s910_gc0_sim.
std::string plane_case_name(const ::testing::TestParamInfo<PlaneCase>& info) {
  const PlaneCase& c = info.param;
  return "n" + std::to_string(c.n) + "_w" + std::to_string(c.workers) + "_s" +
         std::to_string(c.seed) + "_gc" + (c.gc ? "1" : "0") +
         (c.threads ? "_threads" : "_sim");
}

/// GetParam() text (ctest appends it to the test name): every field, and
/// no raw struct bytes, whose padding would make the name vary by build.
void PrintTo(const PlaneCase& c, std::ostream* os) {
  *os << "n=" << c.n << " workers=" << c.workers << " seed=" << c.seed
      << " block=" << c.block_bytes << "B gc=" << (c.gc ? "on" : "off")
      << (c.threads ? " threads" : " sim");
}

/// One cluster on either substrate with the GC knob applied.
struct PlaneCluster {
  std::unique_ptr<sim::Engine> sim_engine;
  std::unique_ptr<rt::ThreadedExecutor> thr_engine;
  std::unique_ptr<net::Cluster> sim_cluster;
  std::unique_ptr<rt::ThreadedTransport> thr_cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  PlaneCluster(const PlaneCase& c) {
    const int nodes = c.workers + 4;
    if (c.threads) {
      thr_engine = std::make_unique<rt::ThreadedExecutor>(
          rt::ThreadedExecutorParams{0, 0.01});
      thr_cluster = std::make_unique<rt::ThreadedTransport>(
          *thr_engine, rt::ThreadedTransportParams{nodes});
    } else {
      sim_engine = std::make_unique<sim::Engine>();
      net::ClusterParams cp;
      cp.physical_nodes = nodes;
      sim_cluster = std::make_unique<net::Cluster>(*sim_engine, cp);
    }
    std::vector<int> wn;
    for (int i = 0; i < c.workers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 1e-4;
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.scheduler.release_consumed = c.gc;
    rt = std::make_unique<dts::Runtime>(engine(), cluster(), 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }

  ~PlaneCluster() {
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

/// Like run_dag, but with GC on only the DAG's sinks are wanted and
/// gathered: interior keys are released once their consumers finish, and
/// gathering a released key is (by design) a loud error.
exec::Co<void> run_dag_plane(dts::Runtime& runtime, dts::Client& client,
                             const RandomDag& dag, const PlaneCase& c,
                             const std::vector<bool>& has_consumer,
                             std::map<std::size_t, std::int64_t>& results) {
  std::vector<dts::Key> ext_keys;
  std::vector<int> ext_workers;
  for (const auto& node : dag.nodes)
    if (node.external) {
      ext_keys.push_back(node.key);
      ext_workers.push_back(static_cast<int>(ext_keys.size()) %
                            client.num_workers());
    }
  if (!ext_keys.empty())
    co_await client.external_futures(ext_keys, ext_workers);

  const std::uint64_t bytes = c.block_bytes;
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> wants;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    const auto& node = dag.nodes[i];
    if (node.external) continue;
    std::vector<dts::Key> deps;
    for (std::size_t d : node.deps) deps.push_back(dag.nodes[d].key);
    const std::int64_t base = node.leaf_value + static_cast<std::int64_t>(i);
    tasks.emplace_back(node.key, std::move(deps),
                       [base, bytes](const std::vector<dts::Data>& in) {
                         std::int64_t v = base;
                         for (const auto& d : in)
                           v = wrapping_add(v, d.as<std::int64_t>());
                         return dts::Data::make<std::int64_t>(v, bytes);
                       });
    if (!c.gc || !has_consumer[i]) wants.push_back(node.key);
  }
  co_await client.submit(std::move(tasks), std::move(wants));

  for (std::size_t i = ext_keys.size(); i-- > 0;) {
    const auto& node_key = ext_keys[i];
    std::size_t node_i = 0;
    for (std::size_t k = 0; k < dag.nodes.size(); ++k)
      if (dag.nodes[k].key == node_key) node_i = k;
    const std::int64_t v =
        dag.nodes[node_i].leaf_value + static_cast<std::int64_t>(node_i);
    co_await client.scatter(node_key,
                            dts::Data::make<std::int64_t>(v, bytes),
                            ext_workers[i], /*external=*/true);
  }

  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    if (c.gc && has_consumer[i]) continue;  // released: must not gather
    results[i] =
        (co_await client.gather(dag.nodes[i].key)).as<std::int64_t>();
  }
  co_await runtime.shutdown();
}

class DataPlaneProperty : public ::testing::TestWithParam<PlaneCase> {};

TEST_P(DataPlaneProperty, PlaneAndGcAreValueTransparent) {
  const PlaneCase c = GetParam();
  const RandomDag dag =
      make_dag(static_cast<std::size_t>(c.n), 0.35, 0.5, c.seed);
  const auto expected = evaluate_sequentially(dag);
  std::vector<bool> has_consumer(dag.nodes.size(), false);
  for (const auto& node : dag.nodes)
    for (std::size_t d : node.deps) has_consumer[d] = true;

  PlaneCluster pc(c);
  std::map<std::size_t, std::int64_t> results;
  pc.engine().spawn(
      run_dag_plane(*pc.rt, *pc.client, dag, c, has_consumer, results));
  pc.engine().run();

  // Value transparency: every gathered key matches the sequential run.
  for (const auto& [i, v] : results)
    EXPECT_EQ(v, expected[i]) << "node " << i << " seed " << c.seed;
  std::size_t gathered = 0;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i)
    if (!c.gc || !has_consumer[i]) ++gathered;
  EXPECT_EQ(results.size(), gathered);

  const dts::Scheduler& sched = pc.rt->scheduler();
  if (c.gc) {
    // Refcount invariant: a drained refcount implies an actual release —
    // every ever-consumed key was charged per dependent, every finished
    // consumer returned its charge, and the zero crossing freed the key.
    std::uint64_t consumed = 0;
    for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
      const dts::Key& key = dag.nodes[i].key;
      if (has_consumer[i]) {
        ++consumed;
        EXPECT_EQ(sched.pending_consumers(key), 0)
            << "node " << i << " seed " << c.seed;
        EXPECT_TRUE(sched.is_released(key))
            << "node " << i << " seed " << c.seed;
      } else {
        EXPECT_FALSE(sched.is_released(key))
            << "sink/unconsumed node " << i << " must never be released";
      }
    }
    EXPECT_EQ(sched.keys_released(), consumed);
  } else {
    EXPECT_EQ(sched.keys_released(), 0u);
    for (std::size_t i = 0; i < dag.nodes.size(); ++i)
      EXPECT_FALSE(sched.is_released(dag.nodes[i].key));
  }
}

INSTANTIATE_TEST_SUITE_P(
    PlanesAndSubstrates, DataPlaneProperty,
    ::testing::Values(
        // sim substrate: GC off and on, random sizes
        PlaneCase{40, 3, 910ull, 64, false, false},
        PlaneCase{60, 4, 911ull, 4096, false, false},
        PlaneCase{60, 3, 912ull, 512, true, false},
        PlaneCase{80, 4, 913ull, 1024, true, false},
        PlaneCase{120, 6, 914ull, 96, true, false},
        // threads substrate: same properties under real concurrency
        PlaneCase{40, 3, 915ull, 256, false, true},
        PlaneCase{60, 4, 916ull, 2048, true, true},
        PlaneCase{60, 3, 917ull, 128, true, true}),
    plane_case_name);

// ---- random DAGs crossed with seeded fault plans ----

struct FaultCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  FaultCluster(int workers, double heartbeat_timeout) {
    net::ClusterParams cp;
    cp.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, cp);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 1e-4;
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.scheduler.heartbeat_timeout = heartbeat_timeout;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

/// run_dag under a fault plan: the "simulation" paces its external pushes
/// so the planned kill lands mid-stream, then plays the producer's part of
/// the re-push protocol (what Bridge::run_repush does) until the cluster
/// has been quiet past the kill's detection window.
sim::Co<void> run_dag_under_faults(FaultCluster& fc, const RandomDag& dag,
                                   double quiet_after,
                                   std::vector<std::int64_t>& results) {
  dts::Client& client = *fc.client;
  std::vector<dts::Key> ext_keys;
  std::vector<int> ext_workers;
  std::map<dts::Key, std::int64_t> ext_value;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    const auto& node = dag.nodes[i];
    if (!node.external) continue;
    ext_keys.push_back(node.key);
    ext_workers.push_back(static_cast<int>(ext_keys.size()) %
                          client.num_workers());
    ext_value[node.key] = node.leaf_value + static_cast<std::int64_t>(i);
  }
  if (!ext_keys.empty())
    co_await client.external_futures(ext_keys, ext_workers);

  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> wants;
  for (std::size_t i = 0; i < dag.nodes.size(); ++i) {
    const auto& node = dag.nodes[i];
    if (node.external) continue;
    std::vector<dts::Key> deps;
    for (std::size_t d : node.deps) deps.push_back(dag.nodes[d].key);
    const std::int64_t base = node.leaf_value + static_cast<std::int64_t>(i);
    tasks.emplace_back(node.key, std::move(deps),
                       [base](const std::vector<dts::Data>& in) {
                         std::int64_t v = base;
                         for (const auto& d : in)
                           v = wrapping_add(v, d.as<std::int64_t>());
                         return dts::Data::make<std::int64_t>(v, 8);
                       });
    wants.push_back(node.key);
  }
  co_await client.submit(std::move(tasks), std::move(wants));

  // Paced, scrambled external pushes. A push may target a worker that is
  // already dead scheduler-side: the ack then carries kAckRepushPending
  // and the replay loop below re-sends at the re-routed target.
  for (std::size_t i = ext_keys.size(); i-- > 0;) {
    co_await fc.eng.delay(0.7);
    (void)co_await client.scatter(
        ext_keys[i], dts::Data::make<std::int64_t>(ext_value[ext_keys[i]], 8),
        ext_workers[i], /*external=*/true);
  }
  // Producer replay loop: blocks lost with a crashed worker have no
  // lineage, so the scheduler re-arms them and hands out re-push
  // assignments. Drain until none are left AND the last planned kill's
  // detection window has fully elapsed.
  while (true) {
    const dts::RepushList assignments = co_await client.repush_keys();
    for (const auto& [key, target] : assignments)
      (void)co_await client.scatter(
          key, dts::Data::make<std::int64_t>(ext_value[key], 8), target,
          /*external=*/true);
    if (assignments.empty() && fc.eng.now() > quiet_after) break;
    co_await fc.eng.delay(1.0);
  }

  results.resize(dag.nodes.size());
  for (std::size_t i = 0; i < dag.nodes.size(); ++i)
    results[i] = (co_await client.gather(dag.nodes[i].key)).as<std::int64_t>();
  co_await fc.rt->shutdown();
}

class DagFaultProperty
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(DagFaultProperty, CrashRecoveryMatchesSequentialEvaluation) {
  const auto [n, workers, seed] = GetParam();
  // High external fraction: a crash must cross as many producer-replayed
  // leaves as possible, not just recomputable task outputs.
  const RandomDag dag =
      make_dag(static_cast<std::size_t>(n), 0.35, 0.9, seed);
  const auto expected = evaluate_sequentially(dag);

  constexpr double kHeartbeatTimeout = 3.0;
  FaultCluster fc(workers, kHeartbeatTimeout);
  Rng rng(seed * 9176 + 13);
  fault::FaultPlan plan;
  plan.kills.emplace_back(static_cast<int>(rng.uniform_index(
                              static_cast<std::uint64_t>(workers))),
                          rng.uniform(1.0, 6.0));
  plan.dup_prob = 0.1;  // duplicated idempotent traffic must be harmless
  plan.seed = seed;
  fault::FaultInjector inj(fc.eng, *fc.cluster, plan);
  inj.arm(*fc.rt);

  const double quiet_after = plan.kills[0].time + kHeartbeatTimeout + 5.0;
  std::vector<std::int64_t> results;
  fc.eng.spawn(run_dag_under_faults(fc, dag, quiet_after, results));
  fc.eng.run();

  EXPECT_EQ(inj.kills_performed(), 1u);
  EXPECT_EQ(fc.rt->scheduler().recovery().workers_lost, 1u);
  ASSERT_EQ(results.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i)
    EXPECT_EQ(results[i], expected[i]) << "node " << i << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(
    RandomDagsWithKills, DagFaultProperty,
    ::testing::Values(std::tuple{30, 2, 101ull}, std::tuple{60, 3, 202ull},
                      std::tuple{60, 4, 303ull}, std::tuple{120, 4, 404ull},
                      std::tuple{120, 6, 505ull}, std::tuple{200, 5, 606ull}));

// ---- random contract selections over random decompositions ----

struct ContractCase {
  core::VirtualArray va;
  arr::Box sel;            // random selection (global coords, time incl.)
  std::vector<int> proc;   // spatial process grid (= chunk counts)
  int nranks = 0;
  int steps = 0;
};

ContractCase make_contract_case(std::uint64_t seed) {
  Rng rng(seed);
  const int spatial = 1 + static_cast<int>(rng.uniform_index(2));
  arr::Index shape;
  arr::Index sub;
  shape.push_back(2 + static_cast<std::int64_t>(rng.uniform_index(3)));
  sub.push_back(1);
  ContractCase c;
  c.nranks = 1;
  for (int d = 0; d < spatial; ++d) {
    const std::int64_t blocks =
        1 + static_cast<std::int64_t>(rng.uniform_index(3));
    const std::int64_t bs = 1 + static_cast<std::int64_t>(rng.uniform_index(3));
    shape.push_back(blocks * bs);
    sub.push_back(bs);
    c.proc.push_back(static_cast<int>(blocks));
    c.nranks *= static_cast<int>(blocks);
  }
  c.steps = static_cast<int>(shape[0]);
  // Random non-empty selection box, in-bounds per dimension.
  c.sel.lo.resize(shape.size());
  c.sel.hi.resize(shape.size());
  for (std::size_t d = 0; d < shape.size(); ++d) {
    c.sel.lo[d] = static_cast<std::int64_t>(
        rng.uniform_index(static_cast<std::uint64_t>(shape[d])));
    c.sel.hi[d] = c.sel.lo[d] + 1 +
                  static_cast<std::int64_t>(rng.uniform_index(
                      static_cast<std::uint64_t>(shape[d] - c.sel.lo[d])));
  }
  c.va = core::VirtualArray("G_rand", std::move(shape), std::move(sub));
  return c;
}

/// Brute-force overlap predicate, independent of Box::intersect.
bool brute_force_selected(const arr::Box& chunk_box, const arr::Box& sel) {
  for (std::size_t d = 0; d < chunk_box.ndim(); ++d)
    if (std::max(chunk_box.lo[d], sel.lo[d]) >=
        std::min(chunk_box.hi[d], sel.hi[d]))
      return false;
  return true;
}

sim::Co<void> contract_bridge(core::Bridge& bridge, const ContractCase& c,
                              int rank, int& remaining, sim::Event& all_done) {
  if (rank == 0) {
    std::vector<core::VirtualArray> arrays;
    arrays.push_back(c.va);
    co_await bridge.publish_arrays(std::move(arrays));
  }
  co_await bridge.wait_contract();
  for (int t = 0; t < c.steps; ++t) {
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    blocks.emplace_back(core::block_coord(c.va, c.proc, rank, t),
                        dts::Data::sized(c.va.block_bytes()));
    (void)co_await bridge.send_blocks(c.va, std::move(blocks));
  }
  if (--remaining == 0) all_done.set();
}

sim::Co<void> contract_adaptor(dts::Runtime& rt, core::Adaptor& adaptor,
                               const ContractCase& c,
                               sim::Event& bridges_done) {
  const auto arrays = co_await adaptor.get_deisa_arrays();
  EXPECT_EQ(arrays.size(), 1u);
  adaptor.select(arrays[0].name, arr::Selection(c.sel));
  (void)co_await adaptor.validate_contract();
  // Every bridge offered every block of every step; scatter acks are
  // synchronous, so once all bridges returned, all sent blocks are
  // registered with the scheduler.
  co_await bridges_done.wait();
  co_await rt.shutdown();
}

class ContractProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ContractProperty, BridgesSendExactlyTheBruteForceBlockSet) {
  const ContractCase c = make_contract_case(GetParam());

  sim::Engine eng;
  net::ClusterParams cp;
  cp.physical_nodes = 5 + c.nranks;
  net::Cluster cluster(eng, cp);
  dts::Runtime rt(eng, cluster, 0, std::vector<int>{2, 3});
  rt.start();

  std::vector<std::unique_ptr<core::Bridge>> bridges;
  for (int r = 0; r < c.nranks; ++r)
    bridges.push_back(std::make_unique<core::Bridge>(
        rt.make_client(4 + r), core::Mode::kDeisa3, r, c.nranks));
  core::Adaptor adaptor(rt.make_client(1), core::Mode::kDeisa3);
  sim::Event bridges_done(eng);
  int remaining = c.nranks;
  eng.spawn(contract_adaptor(rt, adaptor, c, bridges_done));
  for (int r = 0; r < c.nranks; ++r)
    eng.spawn(contract_bridge(*bridges[r], c, r, remaining, bridges_done));
  eng.run();

  // Exactness: a block is known to the scheduler (and in memory) iff the
  // brute-force overlap test selects it. A filter that wrongly sends
  // shows up as a known unselected key; one that wrongly drops leaves a
  // selected key without data.
  const arr::ChunkGrid grid = c.va.grid();
  std::uint64_t selected = 0;
  for (std::int64_t i = 0; i < grid.num_chunks(); ++i) {
    const arr::Index coord = grid.coord_of(i);
    const bool expect_sent = brute_force_selected(grid.box_of(coord), c.sel);
    const dts::Key key = arr::chunk_key(arr::kDeisaPrefix, c.va.name, coord);
    EXPECT_EQ(rt.scheduler().knows(key), expect_sent)
        << "key " << key << " seed " << GetParam();
    if (expect_sent) {
      ++selected;
      EXPECT_EQ(rt.scheduler().state_of(key), dts::TaskState::kMemory)
          << "key " << key << " seed " << GetParam();
    }
  }
  std::uint64_t sent = 0;
  std::uint64_t filtered = 0;
  for (const auto& b : bridges) {
    sent += b->blocks_sent();
    filtered += b->blocks_filtered();
  }
  EXPECT_EQ(sent, selected);
  EXPECT_EQ(sent + filtered,
            static_cast<std::uint64_t>(grid.num_chunks()));
}

INSTANTIATE_TEST_SUITE_P(RandomSelections, ContractProperty,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull,
                                           6ull, 7ull, 8ull, 9ull, 10ull));

}  // namespace
