// Tests for the distributed task system, focusing on the paper's external
// task semantics: ahead-of-time graph submission over not-yet-existing
// data, external→memory transitions unblocking dependents, and the
// scatter(keys, external) extension.
#include <gtest/gtest.h>

#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/obs/observation.hpp"

namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2, dts::RuntimeParams params = {}) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    p.leaf_radix = 8;
    p.uplinks_per_leaf = 4;
    p.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> worker_nodes;
    for (int i = 0; i < workers; ++i) worker_nodes.push_back(2 + i);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, /*scheduler_node=*/0,
                                        worker_nodes, params);
    rt->start();
    client = &rt->make_client(/*node=*/1);
  }

  /// Run a client workload to completion, then shut the cluster down.
  void run(exec::Co<void> workload) {
    eng.spawn(std::move(workload));
    eng.run();
  }
};

dts::Data int_data(int v) { return dts::Data::make<int>(v, sizeof(int)); }

// GCC 12 miscompiles initializer_list temporaries inside coroutine bodies
// ("array used as initializer"); build vectors through these non-coroutine
// helpers instead of braced lists.
template <typename... K>
std::vector<dts::Key> keys(K... k) {
  return std::vector<dts::Key>{dts::Key(k)...};
}
template <typename... I>
std::vector<int> ints(I... i) {
  return std::vector<int>{i...};
}
std::vector<dts::Key> no_keys() { return {}; }

dts::TaskSpec add_task(dts::Key key, std::vector<dts::Key> deps) {
  return dts::TaskSpec(
      std::move(key), std::move(deps),
      [](const std::vector<dts::Data>& in) {
        int s = 0;
        for (const auto& d : in) s += d.as<int>();
        return int_data(s);
      });
}

exec::Co<void> simple_chain(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(dts::TaskSpec("one", no_keys(), [](const auto&) {
    return int_data(1);
  }));
  tasks.push_back(dts::TaskSpec("two", no_keys(), [](const auto&) {
    return int_data(2);
  }));
  tasks.push_back(add_task("sum", keys("one", "two")));
  tasks.push_back(add_task("double", keys("sum", "sum")));
  co_await tc.client->submit(std::move(tasks), keys("double"));
  const dts::Data d = co_await tc.client->gather("double");
  result = d.as<int>();
  co_await tc.rt->shutdown();
}

TEST(Dts, ExecutesDependencyGraph) {
  TestCluster tc(2);
  int result = 0;
  tc.run(simple_chain(tc, result));
  EXPECT_EQ(result, 6);
  EXPECT_EQ(tc.rt->scheduler().state_of("double"), dts::TaskState::kMemory);
}

exec::Co<void> scatter_then_compute(TestCluster& tc, int& result) {
  co_await tc.client->scatter("input", int_data(20), /*worker=*/0);
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(add_task("out", keys("input", "input")));
  co_await tc.client->submit(std::move(tasks), keys("out"));
  result = (co_await tc.client->gather("out")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Dts, ScatterThenDependentGraph) {
  TestCluster tc(2);
  int result = 0;
  tc.run(scatter_then_compute(tc, result));
  EXPECT_EQ(result, 40);
}

exec::Co<void> graph_on_unknown_key(TestCluster& tc, bool& threw) {
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(add_task("out", keys("never-scattered")));
  co_await tc.client->submit(std::move(tasks), keys("out"));
  try {
    (void)co_await tc.client->gather("out");
  } catch (const deisa::util::Error&) {
    threw = true;
  }
  co_await tc.rt->shutdown();
}

TEST(Dts, GraphOnUnknownKeyFailsWithoutExternalTasks) {
  // This is exactly the DEISA1 limitation the paper lifts: without the
  // external state, graphs can only reference data already in the cluster.
  TestCluster tc(1);
  bool threw = false;
  tc.eng.spawn(graph_on_unknown_key(tc, threw));
  EXPECT_THROW(tc.eng.run(), deisa::util::Error);
}

exec::Co<void> external_ahead_of_time(TestCluster& tc, int& result,
                                      double& graph_submitted_at,
                                      double& data_arrived_at) {
  // 1) Create external tasks for data that DOES NOT EXIST yet.
  co_await tc.client->external_futures(keys("ext-0", "ext-1"), ints(0, 1));
  // 2) Submit the analytics graph ahead of the data.
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(add_task("total", keys("ext-0", "ext-1")));
  co_await tc.client->submit(std::move(tasks), keys("total"));
  graph_submitted_at = tc.eng.now();
  // 3) The "simulation" produces data later.
  co_await tc.eng.delay(5.0);
  co_await tc.client->scatter("ext-0", int_data(30), 0, /*external=*/true);
  co_await tc.client->scatter("ext-1", int_data(12), 1, /*external=*/true);
  data_arrived_at = tc.eng.now();
  result = (co_await tc.client->gather("total")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Dts, ExternalTasksAllowGraphSubmissionBeforeData) {
  TestCluster tc(2);
  int result = 0;
  double submitted = 0, arrived = 0;
  tc.run(external_ahead_of_time(tc, result, submitted, arrived));
  EXPECT_EQ(result, 42);
  EXPECT_LT(submitted, 1.0);
  EXPECT_GE(arrived, 5.0);
}

exec::Co<void> one_external_task(TestCluster& tc) {
  co_await tc.client->external_futures(keys("ext"), ints(0));
  co_await tc.eng.delay(1.0);
  co_await tc.client->scatter("ext", int_data(7), 0, /*external=*/true);
  co_await tc.client->wait_key("ext");
  co_await tc.rt->shutdown();
}

TEST(Dts, OneExternalTaskEmitsExactlyItsLifecycleEvents) {
  TestCluster tc(1);
  deisa::obs::Recorder recorder;
  {
    deisa::obs::ObservationScope scope(
        &recorder, [&eng = tc.eng] { return eng.now(); });
    tc.run(one_external_task(tc));
  }
  // Exactly one external→memory transition, and no other transition for
  // this task: it is born external and finishes in memory.
  const dts::Scheduler& sched = tc.rt->scheduler();
  EXPECT_EQ(sched.transitions(dts::TaskState::kExternal,
                              dts::TaskState::kMemory),
            1u);
  EXPECT_EQ(sched.created_in(dts::TaskState::kExternal), 1u);
  std::uint64_t records = 0, changes = 0;
  for (std::size_t i = 0; i < dts::kNumTaskStates; ++i) {
    const auto from = static_cast<dts::TaskState>(i);
    records += sched.created_in(from);
    for (std::size_t j = 0; j < dts::kNumTaskStates; ++j)
      changes += sched.transitions(from, static_cast<dts::TaskState>(j));
  }
  EXPECT_EQ(records, 1u);
  EXPECT_EQ(changes, 1u);

  // The trace carries the same story: one creation instant, one span on
  // the "external" lane covering [creation, scatter] with to=memory, one
  // lifecycle instant for the transition — and nothing else for this key.
  int created = 0, external_spans = 0, lifecycle_transitions = 0;
  recorder.for_each([&](const deisa::obs::TraceEvent& ev) {
    // tracks() returns by value: copy the entry, a reference would dangle.
    const auto track = recorder.tracks()[ev.track];
    if (track.actor != "scheduler") return;
    if (ev.name == "create:ext") {
      ++created;
      return;
    }
    if (ev.name != "ext") return;
    if (track.lane == "external") {
      ASSERT_EQ(ev.type, deisa::obs::EventType::kSpan);
      EXPECT_NEAR(ev.dur, 1.0, 0.5);  // created at ~t=0, completed at t>=1
      ASSERT_EQ(ev.args.size(), 1u);
      EXPECT_EQ(ev.args[0].key, "to");
      EXPECT_EQ(ev.args[0].value, "memory");
      ++external_spans;
    } else if (track.lane == "lifecycle") {
      EXPECT_EQ(ev.type, deisa::obs::EventType::kInstant);
      ++lifecycle_transitions;
    } else {
      ADD_FAILURE() << "unexpected event for 'ext' on lane " << track.lane;
    }
  });
  EXPECT_EQ(created, 1);
  EXPECT_EQ(external_spans, 1);
  EXPECT_EQ(lifecycle_transitions, 1);
}

exec::Co<void> external_state_probe(TestCluster& tc,
                                    dts::TaskState& before,
                                    dts::TaskState& after) {
  co_await tc.client->external_futures(keys("ext"), ints(0));
  co_await tc.eng.delay(0.1);
  before = tc.rt->scheduler().state_of("ext");
  co_await tc.client->scatter("ext", int_data(1), 0, /*external=*/true);
  co_await tc.client->wait_key("ext");
  after = tc.rt->scheduler().state_of("ext");
  co_await tc.rt->shutdown();
}

TEST(Dts, ExternalTransitionsToMemoryOnPush) {
  TestCluster tc(1);
  auto before = dts::TaskState::kErred, after = dts::TaskState::kErred;
  tc.run(external_state_probe(tc, before, after));
  EXPECT_EQ(before, dts::TaskState::kExternal);
  EXPECT_EQ(after, dts::TaskState::kMemory);
}

exec::Co<void> plain_scatter_cannot_complete_external(TestCluster& tc) {
  co_await tc.client->external_futures(keys("ext"), ints(0));
  co_await tc.client->scatter("ext", int_data(1), 0, /*external=*/false);
  co_await tc.rt->shutdown();
}

TEST(Dts, PlainScatterOntoExternalKeyRejected) {
  TestCluster tc(1);
  tc.eng.spawn(plain_scatter_cannot_complete_external(tc));
  EXPECT_THROW(tc.eng.run(), deisa::util::Error);
}

exec::Co<void> external_preferred_worker(TestCluster& tc, int& holder) {
  co_await tc.client->external_futures(keys("blk"), ints(1));
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(add_task("use", keys("blk")));
  co_await tc.client->submit(std::move(tasks), keys("use"));
  co_await tc.client->scatter("blk", int_data(9), 1, /*external=*/true);
  (void)co_await tc.client->gather("use");
  // Locality: "use" should run on worker 1 where "blk" lives.
  holder = tc.rt->worker(1).has_local("use") ? 1 : 0;
  co_await tc.rt->shutdown();
}

TEST(Dts, DependentScheduledWithDataLocality) {
  TestCluster tc(2);
  int holder = -1;
  tc.run(external_preferred_worker(tc, holder));
  EXPECT_EQ(holder, 1);
}

exec::Co<void> erring_task(TestCluster& tc, std::string& error_text) {
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(dts::TaskSpec("bad", no_keys(), [](const auto&) -> dts::Data {
    throw std::runtime_error("kaboom");
  }));
  tasks.push_back(add_task("downstream", keys("bad")));
  co_await tc.client->submit(std::move(tasks), keys("downstream"));
  try {
    (void)co_await tc.client->gather("downstream");
  } catch (const deisa::util::Error& e) {
    error_text = e.what();
  }
  co_await tc.rt->shutdown();
}

TEST(Dts, TaskErrorsPropagateToDependents) {
  TestCluster tc(2);
  std::string err;
  tc.run(erring_task(tc, err));
  EXPECT_NE(err.find("downstream"), std::string::npos);
  EXPECT_EQ(tc.rt->scheduler().state_of("bad"), dts::TaskState::kErred);
  EXPECT_EQ(tc.rt->scheduler().state_of("downstream"),
            dts::TaskState::kErred);
  const dts::Scheduler& sched = tc.rt->scheduler();
  EXPECT_EQ(sched.count_in_state(dts::TaskState::kErred), 2u);
  std::size_t total = 0;
  for (std::size_t s = 0; s < dts::kNumTaskStates; ++s)
    total += sched.count_in_state(static_cast<dts::TaskState>(s));
  EXPECT_EQ(total, sched.task_count());
}

exec::Co<void> variables_flow(TestCluster& tc, int& got) {
  // Reader blocks until the writer sets the variable.
  co_await tc.eng.delay(1.0);
  co_await tc.client->variable_set("contract", int_data(123));
  co_await tc.rt->shutdown();
  (void)got;
}

exec::Co<void> variable_reader(TestCluster& tc, int& got, double& at) {
  const dts::Data d = co_await tc.client->variable_get("contract");
  got = d.as<int>();
  at = tc.eng.now();
}

TEST(Dts, VariableGetBlocksUntilSet) {
  TestCluster tc(1);
  int got = 0;
  double at = 0;
  tc.eng.spawn(variable_reader(tc, got, at));
  tc.eng.spawn(variables_flow(tc, got));
  tc.eng.run();
  EXPECT_EQ(got, 123);
  EXPECT_GE(at, 1.0);
}

exec::Co<void> queue_writer(TestCluster& tc) {
  for (int i = 0; i < 3; ++i) {
    co_await tc.eng.delay(0.5);
    co_await tc.client->queue_put("q", int_data(i));
  }
}

exec::Co<void> queue_reader(TestCluster& tc, std::vector<int>& got) {
  for (int i = 0; i < 3; ++i) {
    const dts::Data d = co_await tc.client->queue_get("q");
    got.push_back(d.as<int>());
  }
  co_await tc.rt->shutdown();
}

TEST(Dts, QueuesDeliverInOrder) {
  TestCluster tc(1);
  std::vector<int> got;
  tc.eng.spawn(queue_writer(tc));
  tc.eng.spawn(queue_reader(tc, got));
  tc.eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

exec::Co<void> heartbeat_workload(TestCluster& tc, exec::Event& stop) {
  co_await tc.eng.delay(10.0);
  stop.set();
  co_await tc.rt->shutdown();
}

TEST(Dts, BridgeHeartbeatsCounted) {
  dts::RuntimeParams params;
  params.worker.heartbeat_interval = 0.0;  // isolate bridge heartbeats
  TestCluster tc(1, params);
  exec::Event stop(tc.eng);
  tc.eng.spawn(tc.client->run_heartbeats(1.0, stop));
  tc.eng.spawn(heartbeat_workload(tc, stop));
  tc.eng.run();
  const auto hb = tc.rt->scheduler().messages_received(
      dts::SchedMsgKind::kHeartbeatBridge);
  EXPECT_GE(hb, 9u);
  EXPECT_LE(hb, 11u);
}

TEST(Dts, InfiniteHeartbeatIntervalSendsNothing) {
  dts::RuntimeParams params;
  params.worker.heartbeat_interval = 0.0;
  TestCluster tc(1, params);
  exec::Event stop(tc.eng);
  tc.eng.spawn(tc.client->run_heartbeats(0.0, stop));  // DEISA3: infinity
  tc.eng.spawn(heartbeat_workload(tc, stop));
  tc.eng.run();
  EXPECT_EQ(tc.rt->scheduler().messages_received(
                dts::SchedMsgKind::kHeartbeatBridge),
            0u);
}

exec::Co<void> synthetic_graph(TestCluster& tc, double& finished_at) {
  // Synthetic tasks: no fn, explicit cost and output size.
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(dts::TaskSpec("a", no_keys(), nullptr, /*cost=*/2.0,
                                /*out_bytes=*/1000));
  tasks.push_back(dts::TaskSpec("b", no_keys(), nullptr, 2.0, 1000));
  tasks.push_back(dts::TaskSpec("c", keys("a", "b"), nullptr, 1.0, 500));
  co_await tc.client->submit(std::move(tasks), keys("c"));
  co_await tc.client->wait_key("c");
  finished_at = tc.eng.now();
  co_await tc.rt->shutdown();
}

TEST(Dts, SyntheticModeChargesSimulatedCost) {
  TestCluster tc(2);
  double finished_at = 0;
  tc.run(synthetic_graph(tc, finished_at));
  // a and b run concurrently on 2 workers (2 s), then c (1 s) + comms.
  EXPECT_GE(finished_at, 3.0);
  EXPECT_LT(finished_at, 3.2);
}

exec::Co<void> many_tasks(TestCluster& tc, int n, int& done) {
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> wants;
  for (int i = 0; i < n; ++i) {
    const dts::Key k = "t" + std::to_string(i);
    tasks.push_back(dts::TaskSpec(k, no_keys(), [i](const auto&) {
      return int_data(i);
    }));
    wants.push_back(k);
  }
  co_await tc.client->submit(std::move(tasks), wants);
  for (const auto& k : wants) {
    (void)co_await tc.client->wait_key(k);
    ++done;
  }
  co_await tc.rt->shutdown();
}

TEST(Dts, ManyIndependentTasksSpreadOverWorkers) {
  TestCluster tc(4);
  int done = 0;
  tc.run(many_tasks(tc, 40, done));
  EXPECT_EQ(done, 40);
  for (int w = 0; w < 4; ++w)
    EXPECT_GT(tc.rt->worker(w).tasks_executed(), 0u)
        << "worker " << w << " idle";
}

TEST(Dts, SchedulerCountsMessageKinds) {
  TestCluster tc(2);
  int result = 0;
  tc.run(scatter_then_compute(tc, result));
  const auto& s = tc.rt->scheduler();
  EXPECT_EQ(s.messages_received(dts::SchedMsgKind::kUpdateData), 1u);
  EXPECT_EQ(s.messages_received(dts::SchedMsgKind::kUpdateGraph), 1u);
  EXPECT_GE(s.messages_received(dts::SchedMsgKind::kTaskFinished), 1u);
}

exec::Co<void> shared_dep_flow(TestCluster& tc) {
  // A sizeable payload so the peer transfer spans simulated time and the
  // second task's fetch provably starts while the first is on the wire.
  co_await tc.client->scatter("shared", dts::Data::sized(1u << 20),
                              /*worker=*/0);
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(dts::TaskSpec("a", keys("shared"), dts::TaskFn{},
                                /*cost=*/0.0, /*out_bytes=*/64,
                                /*preferred_worker=*/1));
  tasks.push_back(dts::TaskSpec("b", keys("shared"), dts::TaskFn{},
                                /*cost=*/0.0, /*out_bytes=*/64,
                                /*preferred_worker=*/1));
  co_await tc.client->submit(std::move(tasks));
  (void)co_await tc.client->wait_key("a");
  (void)co_await tc.client->wait_key("b");
  co_await tc.rt->shutdown();
}

TEST(Dts, ConcurrentTasksSharingRemoteDepFetchOnce) {
  // Two tasks on worker 1 both need "shared", which lives on worker 0.
  // The in-flight table must collapse them into ONE kGetData transfer:
  // the second task joins the first fetch instead of issuing its own.
  TestCluster tc(2);
  tc.run(shared_dep_flow(tc));
  const auto& w1 = tc.rt->worker(1);
  EXPECT_EQ(w1.peer_fetches(), 1u);
  EXPECT_EQ(w1.peer_fetches_shared(), 1u);
  EXPECT_EQ(w1.peer_fetch_cache_hits(), 0u);
  EXPECT_EQ(tc.rt->worker(0).peer_fetches(), 0u);
}

exec::Co<void> cached_dep_flow(TestCluster& tc) {
  co_await tc.client->scatter("shared", dts::Data::sized(1u << 20),
                              /*worker=*/0);
  std::vector<dts::TaskSpec> first;
  first.push_back(dts::TaskSpec("a", keys("shared"), dts::TaskFn{}, 0.0, 64,
                                /*preferred_worker=*/1));
  co_await tc.client->submit(std::move(first));
  (void)co_await tc.client->wait_key("a");
  // Fetch finished and was cached locally; a later task on the same
  // worker must hit the cache, not the wire.
  std::vector<dts::TaskSpec> second;
  second.push_back(dts::TaskSpec("c", keys("shared"), dts::TaskFn{}, 0.0, 64,
                                 /*preferred_worker=*/1));
  co_await tc.client->submit(std::move(second));
  (void)co_await tc.client->wait_key("c");
  co_await tc.rt->shutdown();
}

TEST(Dts, FetchedDepCachedForLaterTasks) {
  TestCluster tc(2);
  tc.run(cached_dep_flow(tc));
  const auto& w1 = tc.rt->worker(1);
  EXPECT_EQ(w1.peer_fetches(), 1u);
  EXPECT_EQ(w1.peer_fetches_shared(), 0u);
  EXPECT_EQ(w1.peer_fetch_cache_hits(), 1u);
}

exec::Co<void> scatter_batch_flow(TestCluster& tc, std::vector<int>& acks) {
  co_await tc.client->external_futures(keys("e1", "e2", "e3"),
                                       ints(0, 0, 0));
  // e2 is already in memory when the batch pushes it again: its slot of
  // the batched ack must come back kAckDiscarded while its neighbors
  // register normally.
  (void)co_await tc.client->scatter("e2", dts::Data::sized(256), /*worker=*/0,
                                    /*external=*/true);
  std::vector<std::pair<dts::Key, dts::Data>> items;
  items.emplace_back("e1", dts::Data::sized(256));
  items.emplace_back("e2", dts::Data::sized(256));
  items.emplace_back("e3", dts::Data::sized(256));
  acks = co_await tc.client->scatter_batch(std::move(items), /*worker=*/0,
                                           /*external=*/true);
  co_await tc.rt->shutdown();
}

// ---- the worker's fetch bound ----
//
// One real Worker (id 0) on the simulator. Its peers and the scheduler
// are bare inboxes the test reads, so every request it sends is visible.

struct LoneWorker {
  using SchedInbox = exec::Channel<dts::SchedMsg>;
  using WorkerInbox = exec::Channel<dts::WorkerMsg>;
  static constexpr int kPeers = 2;

  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  SchedInbox sched{eng};
  std::vector<std::unique_ptr<WorkerInbox>> peers;  // workers 1..kPeers
  std::unique_ptr<dts::Worker> worker;
  dts::TaskSpec spec{"sum", {}, dts::TaskFn{}};

  LoneWorker() {
    net::ClusterParams p;
    p.physical_nodes = kPeers + 2;
    p.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, p);
    dts::WorkerParams wp;
    wp.heartbeat_interval = 0.0;
    worker = std::make_unique<dts::Worker>(eng, *cluster, 0, 1, wp);
    std::vector<dts::WorkerRef> refs;
    refs.emplace_back(0, 1, &worker->inbox());
    for (int w = 1; w <= kPeers; ++w) {
      peers.push_back(std::make_unique<WorkerInbox>(eng));
      refs.emplace_back(w, 1 + w, peers.back().get());
    }
    worker->attach(0, std::vector<SchedInbox*>(1, &sched), refs);
    eng.spawn(worker->run());
  }
  ~LoneWorker() {
    worker->inbox().send(dts::WorkerMsg(dts::WorkerMsgKind::kShutdown));
    eng.run();
  }

  void deliver(dts::WorkerMsg m) {
    worker->inbox().send(std::move(m));
    eng.run();
  }
  /// Assign task `key` over `deps`.
  void compute(const std::string& key, std::vector<dts::DepLocation> deps) {
    dts::WorkerMsg m(dts::WorkerMsgKind::kCompute);
    m.spec = &spec;
    m.key = key;
    m.deps = std::move(deps);
    deliver(std::move(m));
  }
  /// Assign task "sum" over `deps` remote keys d0, d1, ..., owned in turn
  /// by peers 1, 2, 1, ...
  void compute(int deps) {
    std::vector<dts::DepLocation> locs;
    for (int i = 0; i < deps; ++i)
      locs.emplace_back("d" + std::to_string(i), 1 + i % kPeers, 8);
    compute("sum", std::move(locs));
  }
  void peer_lost(int w) {
    dts::WorkerMsg lost(dts::WorkerMsgKind::kPeerLost);
    lost.peer = w;
    deliver(std::move(lost));
  }
  /// The requests worker 0 sent peer `w` since the last call.
  std::vector<dts::WorkerMsg> requests(int w) {
    std::vector<dts::WorkerMsg> out;
    while (auto m = peers[static_cast<std::size_t>(w - 1)]->try_recv())
      out.push_back(std::move(*m));
    return out;
  }
  std::vector<dts::WorkerMsg> requests() {
    auto out = requests(1);
    for (auto& m : requests(2)) out.push_back(std::move(m));
    return out;
  }
  /// Answer each request and run until the worker is idle again.
  void answer(std::vector<dts::WorkerMsg>& reqs) {
    for (auto& r : reqs) r.reply_data->send(dts::Data::sized(8));
    eng.run();
  }
};

TEST(WorkerFetch, AtMostEightPeerFetchesInFlight) {
  LoneWorker lw;
  lw.compute(16);
  auto sent = lw.requests();
  ASSERT_EQ(sent.size(), 8u);
  for (const auto& m : sent) EXPECT_EQ(m.kind, dts::WorkerMsgKind::kGetData);
  // One answer frees one slot: exactly one more request goes out.
  std::vector<dts::WorkerMsg> first;
  first.push_back(std::move(sent[0]));
  sent.erase(sent.begin());
  lw.answer(first);
  auto ninth = lw.requests();
  ASSERT_EQ(ninth.size(), 1u);
  EXPECT_EQ(ninth[0].key, "d8");
  // Drain the rest; the task then reports once.
  while (!sent.empty() || !ninth.empty()) {
    lw.answer(sent);
    lw.answer(ninth);
    sent = lw.requests();
    ninth.clear();
  }
  const auto done = lw.sched.try_recv();
  ASSERT_TRUE(done.has_value());
  EXPECT_EQ(done->kind, dts::SchedMsgKind::kTaskFinished);
  EXPECT_EQ(lw.worker->peer_fetches(), 16u);
}

TEST(WorkerFetch, PeerLossFailsItsFetchesAndFreesTheirSlots) {
  LoneWorker lw;
  lw.compute(16);
  ASSERT_EQ(lw.requests(1).size(), 4u);
  auto to_peer2 = lw.requests(2);
  ASSERT_EQ(to_peer2.size(), 4u);
  // Peer 1 is declared dead: its four requests give their slots back
  // unanswered, its four queued fetches fail without a request, and the
  // four queued fetches from peer 2 go out.
  lw.peer_lost(1);
  EXPECT_TRUE(lw.requests(1).empty());
  auto more = lw.requests(2);
  EXPECT_EQ(more.size(), 4u);
  lw.answer(to_peer2);
  lw.answer(more);
  // The failed attempt reports nothing: the scheduler re-runs the task.
  EXPECT_FALSE(lw.sched.try_recv().has_value());
  EXPECT_EQ(lw.worker->peer_fetches(), 8u);
  // A later fetch naming the dead peer fails at once, without a request
  // (d0 is peer 1's; d1 comes from the cache of peer 2's answer).
  lw.compute(2);
  EXPECT_TRUE(lw.requests().empty());
  EXPECT_FALSE(lw.sched.try_recv().has_value());
  EXPECT_EQ(lw.worker->peer_fetch_cache_hits(), 1u);
}

TEST(WorkerFetch, FailedFetchLeavesTheRerunsFlightInPlace) {
  LoneWorker lw;
  // Task a: eight fetches from peer 2 take every slot; d8's fetch from
  // peer 1 queues for one.
  std::vector<dts::DepLocation> a;
  for (int i = 0; i < 8; ++i)
    a.emplace_back("d" + std::to_string(i), 2, 8);
  a.emplace_back("d8", 1, 8);
  lw.compute("a", std::move(a));
  auto first = lw.requests(2);
  ASSERT_EQ(first.size(), 8u);
  // Peer 1 dies, and d8's re-run b fetches it from peer 2, its new owner:
  // b registers its own flight for d8 and queues behind the old one.
  lw.peer_lost(1);
  lw.compute("b", std::vector<dts::DepLocation>(1, {"d8", 2, 8}));
  EXPECT_TRUE(lw.requests().empty());
  // One answer frees a slot: the old flight takes it, fails and hands it
  // on to b's flight, which asks peer 2.
  first.erase(first.begin() + 1, first.end());
  lw.answer(first);
  const auto b_req = lw.requests(2);
  ASSERT_EQ(b_req.size(), 1u);
  EXPECT_EQ(b_req[0].key, "d8");
  // The failed flight erased only itself: a third task joins b's flight.
  lw.compute("c", std::vector<dts::DepLocation>(1, {"d8", 2, 8}));
  EXPECT_TRUE(lw.requests().empty());
  EXPECT_EQ(lw.worker->peer_fetches_shared(), 1u);
}

TEST(Dts, ScatterBatchReturnsPerKeyAcks) {
  TestCluster tc(2);
  std::vector<int> acks;
  tc.run(scatter_batch_flow(tc, acks));
  ASSERT_EQ(acks.size(), 3u);
  EXPECT_EQ(acks[0], 0);  // registered on worker 0
  EXPECT_EQ(acks[1], dts::kAckDiscarded);
  EXPECT_EQ(acks[2], 0);
  EXPECT_EQ(tc.rt->scheduler().state_of("e1"), dts::TaskState::kMemory);
  EXPECT_EQ(tc.rt->scheduler().state_of("e2"), dts::TaskState::kMemory);
  EXPECT_EQ(tc.rt->scheduler().state_of("e3"), dts::TaskState::kMemory);
  EXPECT_EQ(tc.rt->scheduler().recovery().stale_update_data, 1u);
}

exec::Co<void> batch_one_rpc_flow(TestCluster& tc) {
  co_await tc.client->external_futures(keys("b0", "b1", "b2", "b3"),
                                       ints(1, 1, 1, 1));
  std::vector<std::pair<dts::Key, dts::Data>> items;
  items.emplace_back("b0", dts::Data::sized(512));
  items.emplace_back("b1", dts::Data::sized(512));
  items.emplace_back("b2", dts::Data::sized(512));
  items.emplace_back("b3", dts::Data::sized(512));
  (void)co_await tc.client->scatter_batch(std::move(items), /*worker=*/1,
                                          /*external=*/true);
  co_await tc.rt->shutdown();
}

TEST(Dts, ScatterBatchIsOneRegistrationRpc) {
  TestCluster tc(2);
  tc.run(batch_one_rpc_flow(tc));
  // Four blocks, one kUpdateData: the batch path pays the registration
  // round trip once per (producer, worker) push, not once per block.
  EXPECT_EQ(tc.rt->scheduler().messages_received(dts::SchedMsgKind::kUpdateData),
            1u);
  for (const char* k : {"b0", "b1", "b2", "b3"})
    EXPECT_EQ(tc.rt->scheduler().state_of(k), dts::TaskState::kMemory);
}

// ---- data-plane byte accounting / refcount GC ----

namespace obs = deisa::obs;

exec::Co<void> local_chain_flow(TestCluster& tc, std::uint64_t block) {
  co_await tc.client->external_futures(keys("x"), ints(0));
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(dts::TaskSpec("y", keys("x"), [block](const auto&) {
    return dts::Data::sized(block);
  }));
  tasks.push_back(dts::TaskSpec("z", keys("y"), [block](const auto&) {
    return dts::Data::sized(block);
  }));
  co_await tc.client->submit(std::move(tasks), keys("z"));
  (void)co_await tc.client->scatter("x", dts::Data::sized(block),
                                    /*worker=*/0, /*external=*/true);
  (void)co_await tc.client->gather("z");
  co_await tc.rt->shutdown();
}

TEST(Dts, ProxyPlaneLocalDepsMoveZeroExtraBytes) {
  // Single worker: every dependency read is local. The data plane models
  // dask's per-read duplication: the scatter push and each local dep read
  // move the block once, and nothing else moves it. (The name predates
  // the removal of the proxy plane, which read local deps by reference.)
  constexpr std::uint64_t kBlock = 4096;
  TestCluster tc(1);
  tc.run(local_chain_flow(tc, kBlock));
  EXPECT_EQ(tc.client->bytes_moved() + tc.rt->worker(0).bytes_moved(),
            3 * kBlock);
}

exec::Co<void> gc_release_flow(TestCluster& tc) {
  co_await tc.client->external_futures(keys("a"), ints(0));
  std::vector<dts::TaskSpec> tasks;
  tasks.push_back(add_task("b", keys("a")));
  co_await tc.client->submit(std::move(tasks), keys("b"));
  (void)co_await tc.client->scatter("a", int_data(7), /*worker=*/0,
                                    /*external=*/true);
  const dts::Data d = co_await tc.client->gather("b");
  EXPECT_EQ(d.as<int>(), 7);
  co_await tc.rt->shutdown();
}

TEST(Dts, ReleaseConsumedFreesConsumedKeys) {
  dts::RuntimeParams rp;
  rp.scheduler.release_consumed = true;
  TestCluster tc(2, rp);
  tc.run(gc_release_flow(tc));
  // The consumed external block was released scheduler- and worker-side;
  // the gathered sink (zero historical consumers) must never be.
  EXPECT_TRUE(tc.rt->scheduler().is_released("a"));
  EXPECT_EQ(tc.rt->scheduler().pending_consumers("a"), 0);
  EXPECT_FALSE(tc.rt->scheduler().is_released("b"));
  EXPECT_EQ(tc.rt->scheduler().keys_released(), 1u);
  EXPECT_FALSE(tc.rt->worker(0).has_local("a"));
  EXPECT_EQ(tc.rt->worker(0).keys_released() +
                tc.rt->worker(1).keys_released(),
            1u);
}

// ---- KeyLifetime alone: no engine, no runtime ----

dts::SchedulerParams gc_on() {
  dts::SchedulerParams p;
  p.release_consumed = true;
  return p;
}

TEST(KeyLifetime, RejectsRefcountGcWithArmedFailureDetector) {
  dts::SchedulerParams p = gc_on();
  p.heartbeat_timeout = 1.0;
  try {
    dts::KeyLifetime lifetime(p);
    FAIL() << "release_consumed with heartbeat_timeout > 0 was accepted";
  } catch (const deisa::util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("release_consumed"), std::string::npos) << what;
    EXPECT_NE(what.find("heartbeat_timeout"), std::string::npos) << what;
    EXPECT_NE(what.find("DESIGN.md"), std::string::npos) << what;
  }
  // Either option alone is fine.
  EXPECT_NO_THROW(dts::KeyLifetime{gc_on()});
  dts::SchedulerParams detector_only;
  detector_only.heartbeat_timeout = 1.0;
  EXPECT_NO_THROW(dts::KeyLifetime{detector_only});
}

TEST(KeyLifetime, OffKeepsNothingAndNeverReleases) {
  dts::KeyLifetime lifetime{dts::SchedulerParams{}};
  lifetime.charge(0, "a");
  EXPECT_EQ(lifetime.pending(0), 0);
  EXPECT_FALSE(lifetime.holds_inputs(1));
  const dts::KeyId deps[] = {0};
  EXPECT_FALSE(lifetime.return_inputs(1, deps));
  EXPECT_FALSE(lifetime.decide(0, /*mirror=*/false, /*freeable=*/true));
  EXPECT_EQ(lifetime.keys_released(), 0u);
}

TEST(KeyLifetime, ReleasesOnceAfterTheLastConsumerReturnsItsCharge) {
  dts::KeyLifetime lifetime{gc_on()};
  // Key 0 feeds tasks 1 and 2; task 2 lists it twice (two edges).
  lifetime.charge(0, "a");
  lifetime.charge(0, "a");
  lifetime.charge(0, "a");
  EXPECT_EQ(lifetime.pending(0), 3);
  const dts::KeyId one[] = {0};
  const dts::KeyId two[] = {0, 0};
  ASSERT_TRUE(lifetime.return_inputs(1, one));
  EXPECT_FALSE(lifetime.return_inputs(1, one));  // already returned
  EXPECT_FALSE(lifetime.decide(0, false, true));
  ASSERT_TRUE(lifetime.return_inputs(2, two));
  EXPECT_EQ(lifetime.pending(0), 0);
  // Only the core's facts hold it now: not freeable means keep.
  EXPECT_FALSE(lifetime.decide(0, false, /*freeable=*/false));
  EXPECT_EQ(lifetime.decide(0, false, true).kind, dts::Release::kFree);
  EXPECT_TRUE(lifetime.released(0));
  EXPECT_FALSE(lifetime.decide(0, false, true));  // exactly once
  EXPECT_EQ(lifetime.keys_released(), 1u);
  // A released key cannot be charged again; a re-scatter undoes it.
  EXPECT_THROW(lifetime.charge(0, "a"), deisa::util::Error);
  lifetime.refilled(0);
  EXPECT_FALSE(lifetime.released(0));
  // A key nothing ever consumed (a gather target) is never released.
  EXPECT_FALSE(lifetime.decide(7, false, true));
}

TEST(KeyLifetime, EarlyDrainAckParksTheBalanceUntilItsSliceSettlesIt) {
  dts::KeyLifetime lifetime{gc_on()};
  // Owner key 0 has one local consumer (task 1), finished.
  lifetime.charge(0, "x");
  const dts::KeyId deps[] = {0};
  ASSERT_TRUE(lifetime.return_inputs(1, deps));
  // The subscriber's drain ack for 2 remote consumers outruns the slice
  // that charges them: the balance parks at -2 and blocks the release.
  lifetime.drain_remote(0, 2);
  EXPECT_FALSE(lifetime.decide(0, false, true));
  // The slice lands and settles the balance: that charge is the trigger.
  EXPECT_TRUE(lifetime.charge_remote(0, "x", 2));
  EXPECT_EQ(lifetime.decide(0, false, true).kind, dts::Release::kFree);
  EXPECT_FALSE(lifetime.decide(0, false, true));
  EXPECT_EQ(lifetime.keys_released(), 1u);
}

TEST(KeyLifetime, InOrderRemoteChargesBlockUntilDrained) {
  dts::KeyLifetime lifetime{gc_on()};
  EXPECT_FALSE(lifetime.charge_remote(0, "x", 3));  // not a settle
  EXPECT_FALSE(lifetime.charge_remote(0, "x", 0));  // no charge at all
  EXPECT_FALSE(lifetime.decide(0, false, true));
  lifetime.drain_remote(0, 3);
  EXPECT_EQ(lifetime.decide(0, false, true).kind, dts::Release::kFree);
}

TEST(KeyLifetime, MirrorDrainsExactlyTheChargesNotYetReturned) {
  dts::KeyLifetime lifetime{gc_on()};
  // Mirror 0 feeds tasks 1, 2 and 3.
  for (int i = 0; i < 3; ++i) lifetime.charge(0, "m");
  const dts::KeyId deps[] = {0};
  ASSERT_TRUE(lifetime.return_inputs(1, deps));
  EXPECT_FALSE(lifetime.decide(0, /*mirror=*/true, false));
  ASSERT_TRUE(lifetime.return_inputs(2, deps));
  ASSERT_TRUE(lifetime.return_inputs(3, deps));
  const dts::Release r = lifetime.decide(0, true, false);
  EXPECT_EQ(r.kind, dts::Release::kDrain);
  EXPECT_EQ(r.count, 3);
  EXPECT_FALSE(lifetime.decide(0, true, false));  // nothing left to drain
  // A later slice charges one more consumer: only that one drains.
  lifetime.charge(0, "m");
  ASSERT_TRUE(lifetime.return_inputs(4, deps));
  const dts::Release again = lifetime.decide(0, true, false);
  EXPECT_EQ(again.kind, dts::Release::kDrain);
  EXPECT_EQ(again.count, 1);
  EXPECT_EQ(lifetime.keys_released(), 0u);  // mirrors are never freed
}

}  // namespace
