// Fault-handling tests for the task system: pushes onto erred tasks,
// worker memory accounting, stale lifecycle reports, heartbeat-based failure detection, lost-key
// re-execution, the external re-arm/re-push protocol, and sharded
// recovery (worker kills at shards > 1 produce byte-identical results).
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <optional>

#include "deisa/dts/runtime.hpp"
#include "deisa/fault/fault.hpp"
#include "deisa/harness/scenario.hpp"

namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace fault = deisa::fault;
namespace harness = deisa::harness;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers = 2, double heartbeat_timeout = 0.0,
                       double repush_timeout = 60.0) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    rp.scheduler.service_base = 1e-4;  // fast tests
    rp.scheduler.service_per_task = 0;
    rp.scheduler.service_per_key = 0;
    rp.scheduler.heartbeat_timeout = heartbeat_timeout;
    rp.scheduler.repush_timeout = repush_timeout;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

dts::Data int_data(int v) { return dts::Data::make<int>(v, sizeof(int)); }

std::vector<dts::Key> no_keys() { return {}; }
template <typename... K>
std::vector<dts::Key> keys(K... k) {
  return std::vector<dts::Key>{dts::Key(k)...};
}

exec::Co<void> push_onto_erred_flow(TestCluster& tc, int& ack) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("boom", no_keys(),
                     [](const std::vector<dts::Data>&) -> dts::Data {
                       throw std::runtime_error("boom");
                     });
  co_await tc.client->submit(std::move(tasks), keys("boom"));
  try {
    (void)co_await tc.client->wait_key("boom");
  } catch (const deisa::util::Error&) {
  }
  // A producer, unaware that the key erred, pushes a block onto it.
  ack = co_await tc.client->scatter("boom", int_data(3), 0, /*external=*/true);
  co_await tc.rt->shutdown();
}

TEST(Fault, PushOntoErredTaskIsDiscarded) {
  // Pushing to an erred key used to trip a DEISA_CHECK and abort the
  // scheduler; it must be acknowledged and discarded so the producer
  // keeps stepping, and the key must stay erred.
  TestCluster tc(1);
  int ack = 0;
  tc.eng.spawn(push_onto_erred_flow(tc, ack));
  tc.eng.run();
  EXPECT_EQ(ack, dts::kAckDiscarded);
  EXPECT_EQ(tc.rt->scheduler().state_of("boom"), dts::TaskState::kErred);
  EXPECT_EQ(tc.rt->scheduler().recovery().stale_update_data, 1u);
}

exec::Co<void> poisoned_waiter_flow(TestCluster& tc, std::string& error,
                                    bool& released) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("boom", no_keys(),
                     [](const std::vector<dts::Data>&) -> dts::Data {
                       throw std::runtime_error("boom");
                     },
                     /*cost=*/1.0);
  tasks.emplace_back("down", keys("boom"),
                     [](const std::vector<dts::Data>&) { return int_data(2); });
  co_await tc.client->submit(std::move(tasks), keys("down"));
  try {
    // Registers the waiter while "boom" is still running: the poisoning
    // cascade must release it, not leave it hanging.
    (void)co_await tc.client->gather("down");
  } catch (const deisa::util::Error& e) {
    error = e.what();
  }
  released = true;
  co_await tc.rt->shutdown();
}

TEST(Fault, ErredDependencyPoisonsBlockedWaiters) {
  TestCluster tc(2);
  std::string error;
  bool released = false;
  tc.eng.spawn(poisoned_waiter_flow(tc, error, released));
  tc.eng.run();
  EXPECT_TRUE(released);
  EXPECT_NE(error.find("down"), std::string::npos);
  EXPECT_EQ(tc.rt->scheduler().state_of("boom"), dts::TaskState::kErred);
  EXPECT_EQ(tc.rt->scheduler().state_of("down"), dts::TaskState::kErred);
}

exec::Co<void> heartbeat_loss_flow(TestCluster& tc) {
  co_await tc.eng.delay(2.0);  // heartbeats flowing normally
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // detector times the silence out
  co_await tc.rt->shutdown();
}

TEST(Fault, HeartbeatLossDetectsDeadWorker) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  tc.eng.spawn(heartbeat_loss_flow(tc));
  tc.eng.run();
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_TRUE(s.worker_is_dead(0));
  EXPECT_FALSE(s.worker_is_dead(1));
  EXPECT_EQ(s.live_workers(), 1u);
  EXPECT_EQ(s.recovery().workers_lost, 1u);
}

exec::Co<void> lost_key_flow(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("a", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(20); },
                     /*cost=*/0.01, /*out_bytes=*/0, /*preferred_worker=*/0);
  tasks.emplace_back("b", keys("a"),
                     [](const std::vector<dts::Data>& in) {
                       return int_data(in[0].as<int>() * 2 + 2);
                     },
                     /*cost=*/0.01, /*out_bytes=*/0, /*preferred_worker=*/0);
  co_await tc.client->submit(std::move(tasks), keys("b"));
  (void)co_await tc.client->wait_key("b");  // both in memory on worker 0
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(12.0);  // detection + lineage re-execution
  result = (co_await tc.client->gather("b")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, LostKeysRecomputedViaLineage) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  int result = 0;
  tc.eng.spawn(lost_key_flow(tc, result));
  tc.eng.run();
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(result, 42);  // recomputed from lineage, same value
  EXPECT_EQ(s.recovery().workers_lost, 1u);
  EXPECT_EQ(s.recovery().keys_recomputed, 2u);  // both a and b lived on w0
  EXPECT_EQ(s.state_of("a"), dts::TaskState::kMemory);
  EXPECT_EQ(s.state_of("b"), dts::TaskState::kMemory);
  EXPECT_GT(tc.rt->worker(1).tasks_executed(), 0u);
}

exec::Co<void> rearm_repush_flow(TestCluster& tc, int& first_ack,
                                 dts::RepushList& assignments, int& value) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("blk"), std::move(pw));
  first_ack = co_await tc.client->scatter("blk", int_data(9), 0,
                                          /*external=*/true);
  co_await tc.eng.delay(1.0);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // detection re-arms blk for re-push
  assignments = tc.client->replays().try_recv().value_or(dts::RepushList());
  for (const auto& [key, target] : assignments)
    (void)co_await tc.client->scatter(key, int_data(9), target,
                                      /*external=*/true);
  value = (co_await tc.client->gather("blk")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, LostExternalKeyRearmedAndRepushed) {
  // External data has no lineage; the producer must replay it. The
  // scheduler re-arms the key, re-routes the preselection to a survivor,
  // and sends the assignment on the client's replay channel.
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  int first_ack = -1;
  dts::RepushList assignments;
  int value = 0;
  tc.eng.spawn(rearm_repush_flow(tc, first_ack, assignments, value));
  tc.eng.run();
  EXPECT_EQ(first_ack, 0);  // normal registration at worker 0
  ASSERT_EQ(assignments.size(), 1u);
  EXPECT_EQ(assignments[0].first, "blk");
  EXPECT_EQ(assignments[0].second, 1);  // re-routed to the survivor
  EXPECT_EQ(value, 9);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.recovery().external_rearmed, 1u);
  EXPECT_EQ(s.state_of("blk"), dts::TaskState::kMemory);
}

exec::Co<void> replay_at_dead_target_flow(TestCluster& tc,
                                          dts::RepushList& first,
                                          int& stale_ack,
                                          dts::RepushList& second, int& value) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("blk"), std::move(pw));
  (void)co_await tc.client->scatter("blk", int_data(9), 0, /*external=*/true);
  co_await tc.eng.delay(1.0);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // detection re-arms blk and lists it
  first = tc.client->replays().try_recv().value_or(dts::RepushList());
  const int t1 = first.at(0).second;
  // The target dies before the producer replays. Its detection finds
  // nothing stored there and only re-routes the pending preselection.
  tc.rt->worker(t1).crash();
  co_await tc.eng.delay(10.0);
  // The replay from the stale list lands on a dead worker: the scheduler
  // re-arms the key again and sends a fresh list, before the ack.
  stale_ack = co_await tc.client->scatter("blk", int_data(9), t1,
                                          /*external=*/true);
  second = tc.client->replays().try_recv().value_or(dts::RepushList());
  for (const auto& [key, target] : second)
    (void)co_await tc.client->scatter(key, int_data(9), target,
                                      /*external=*/true);
  value = (co_await tc.client->gather("blk")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, ReplayAtADeadTargetComesBackInAFreshList) {
  TestCluster tc(3, /*heartbeat_timeout=*/3.0);
  dts::RepushList first;
  dts::RepushList second;
  int stale_ack = -1;
  int value = 0;
  tc.eng.spawn(replay_at_dead_target_flow(tc, first, stale_ack, second, value));
  tc.eng.run();
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].first, "blk");
  const int t1 = first[0].second;
  EXPECT_NE(t1, 0);  // a survivor of the first crash
  EXPECT_EQ(stale_ack, t1);  // acknowledged with the dead worker's id
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0].first, "blk");
  const int t2 = second[0].second;
  EXPECT_NE(t2, 0);
  EXPECT_NE(t2, t1);
  EXPECT_EQ(value, 9);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.recovery().workers_lost, 2u);
  EXPECT_EQ(s.recovery().external_rearmed, 2u);
  EXPECT_EQ(s.recovery().external_rerouted, 1u);
  EXPECT_EQ(s.state_of("blk"), dts::TaskState::kMemory);
}

exec::Co<void> never_repushed_flow(TestCluster& tc, std::string& error) {
  std::vector<int> pw;
  pw.push_back(0);
  co_await tc.client->external_futures(keys("gone"), std::move(pw));
  (void)co_await tc.client->scatter("gone", int_data(4), 0,
                                    /*external=*/true);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(6.0);  // past detection: the key is re-armed
  try {
    // The producer never replays: the re-push deadline must err the key
    // out so this waiter fails instead of hanging forever.
    (void)co_await tc.client->gather("gone");
  } catch (const deisa::util::Error& e) {
    error = e.what();
  }
  co_await tc.rt->shutdown();
}

TEST(Fault, UnreplayedExternalKeyExpiresInsteadOfHanging) {
  TestCluster tc(2, /*heartbeat_timeout=*/3.0, /*repush_timeout=*/5.0);
  std::string error;
  tc.eng.spawn(never_repushed_flow(tc, error));
  tc.eng.run();
  EXPECT_NE(error.find("gone"), std::string::npos);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.recovery().repush_expired, 1u);
  EXPECT_EQ(s.state_of("gone"), dts::TaskState::kErred);
}

exec::Co<void> duplicated_traffic_flow(TestCluster& tc, int& result) {
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("t", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(6); },
                     /*cost=*/0.05);
  co_await tc.client->submit(std::move(tasks), keys("t"));
  result = (co_await tc.client->gather("t")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(Fault, DuplicatedTaskFinishedIsDropped) {
  // Every idempotent message delivered twice: the duplicate
  // task_finished must be absorbed by the stale guard, not re-finish
  // (or corrupt) the task.
  TestCluster tc(2);
  fault::FaultPlan plan;
  plan.dup_prob = 1.0;
  plan.seed = 5;
  fault::FaultInjector inj(tc.eng, *tc.cluster, plan);
  inj.arm(*tc.rt);
  int result = 0;
  tc.eng.spawn(duplicated_traffic_flow(tc, result));
  tc.eng.run();
  EXPECT_EQ(result, 6);
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_EQ(s.state_of("t"), dts::TaskState::kMemory);
  EXPECT_GE(s.recovery().stale_task_finished, 1u);
}

exec::Co<void> memory_flow(TestCluster& tc) {
  co_await tc.client->scatter("a", dts::Data::sized(1000), 0);
  co_await tc.client->scatter("b", dts::Data::sized(500), 0);
  co_await tc.client->scatter("b", dts::Data::sized(700), 0);  // replace
  co_await tc.rt->shutdown();
}

TEST(Fault, WorkerMemoryAccounting) {
  TestCluster tc(1);
  tc.eng.spawn(memory_flow(tc));
  tc.eng.run();
  auto& w = tc.rt->worker(0);
  EXPECT_EQ(w.keys_in_memory(), 2u);
  EXPECT_EQ(w.memory_bytes(), 1700u);       // replacement, not addition
  EXPECT_TRUE(w.release_key("a"));
  EXPECT_EQ(w.memory_bytes(), 700u);
  EXPECT_FALSE(w.release_key("a"));
}

// ---- sharded recovery: worker kills at shards > 1 ----

harness::ScenarioParams sharded_fault_params(int shards) {
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 2;
  p.block_bytes = 16 * 16 * sizeof(double);
  p.timesteps = 4;
  p.real_data = true;
  p.cluster.jitter_sigma = 0.0;
  p.sched.service_jitter_sigma = 0.0;
  p.shards = shards;
  return p;
}

TEST(ShardedFault, SeededWorkerKillMatchesFaultFreeResults) {
  // Shard 0 is the liveness authority: the death broadcast must reach
  // every shard so each one recovers its own slice of the lineage (and
  // parks its mirrors of lost keys). The acceptance bar is the same as
  // the single-scheduler recovery test: a killed worker changes nothing
  // about the analytics outputs, byte for byte.
  for (const int shards : {2, 4}) {
    const auto p = sharded_fault_params(shards);
    const auto clean = harness::run_scenario(harness::Pipeline::kDeisa3, p);
    ASSERT_FALSE(clean.singular_values.empty()) << "shards " << shards;
    EXPECT_EQ(clean.metrics.counter("fault.workers_killed"), 0u);
    EXPECT_EQ(clean.metrics.counter("scheduler.recovery.workers_lost"), 0u);

    auto pf = p;
    pf.faults.kills.emplace_back(1, clean.sim_end * 0.5);
    pf.faults.seed = 0xF0 + static_cast<std::uint64_t>(shards);
    const auto faulty = harness::run_scenario(harness::Pipeline::kDeisa3, pf);
    const auto count = [&faulty](const char* name) {
      return faulty.metrics.counter(name);
    };
    EXPECT_EQ(count("fault.workers_killed"), 1u) << "shards " << shards;
    // Exactly one death, counted once (by shard 0) across all shards.
    EXPECT_EQ(count("scheduler.recovery.workers_lost"), 1u)
        << "shards " << shards;
    EXPECT_GT(count("scheduler.recovery.external_rearmed") +
                  count("scheduler.recovery.tasks_rerun") +
                  count("scheduler.recovery.keys_recomputed") +
                  count("scheduler.recovery.external_rerouted"),
              0u)
        << "shards " << shards;
    ASSERT_EQ(faulty.shard_recovery.size(),
              static_cast<std::size_t>(shards));
    // The per-shard breakdown really sums to the aggregate.
    std::uint64_t lost = 0, rerun = 0;
    for (const auto& sr : faulty.shard_recovery) {
      lost += sr.workers_lost;
      rerun += sr.tasks_rerun;
    }
    EXPECT_EQ(lost, count("scheduler.recovery.workers_lost"));
    EXPECT_EQ(rerun, count("scheduler.recovery.tasks_rerun"));

    ASSERT_EQ(faulty.singular_values.size(), clean.singular_values.size());
    for (std::size_t i = 0; i < clean.singular_values.size(); ++i) {
      // memcmp, not ==: byte-identical, including signed-zero/NaN bits.
      EXPECT_EQ(std::memcmp(&faulty.singular_values[i],
                            &clean.singular_values[i], sizeof(double)),
                0)
          << "shards " << shards << " sv[" << i << "]: "
          << faulty.singular_values[i] << " vs " << clean.singular_values[i];
    }
    ASSERT_EQ(faulty.explained_variance.size(),
              clean.explained_variance.size());
    for (std::size_t i = 0; i < clean.explained_variance.size(); ++i)
      EXPECT_EQ(std::memcmp(&faulty.explained_variance[i],
                            &clean.explained_variance[i], sizeof(double)),
                0)
          << "shards " << shards << " ev[" << i << "]";
  }
}

TEST(Fault, WorkerKillAtEightRanksCompletes) {
  // CI's fault-matrix config at 8 ranks. Every fetch a live worker sent
  // to the killed one, before the kill or before its detection, holds a
  // fetch slot that no reply frees. Unless the death announcement fails
  // those fetches, a worker that leaked all of its slots cannot fetch for
  // its re-runs, and the run hangs until the simulated-time cap.
  harness::ScenarioParams p;
  p.ranks = 8;
  p.workers = 3;
  p.block_bytes = 64 << 10;
  p.timesteps = 6;
  p.real_data = true;
  p.alloc_seed = 1000;
  for (const auto pipeline :
       {harness::Pipeline::kDeisa2, harness::Pipeline::kDeisa3}) {
    const auto clean = harness::run_scenario(pipeline, p);
    ASSERT_FALSE(clean.singular_values.empty());
    auto pf = p;
    pf.faults = fault::FaultPlan::parse("kill:1@0.2");
    const auto faulty = harness::run_scenario(pipeline, pf);
    EXPECT_EQ(faulty.metrics.counter("scheduler.recovery.workers_lost"), 1u)
        << harness::to_string(pipeline);
    EXPECT_EQ(faulty.singular_values, clean.singular_values)
        << harness::to_string(pipeline);
  }
}

TEST(ShardedFault, RerunTaskNeverJoinsAFetchFromTheDeadWorker) {
  // CI's fault matrix at four shards, scaled down: a task re-run after
  // worker 1's death must fetch its re-pushed input from the new owner.
  // Joining the fetch its first attempt left waiting on the dead worker
  // hangs the run until the simulated-time cap.
  harness::ScenarioParams p;
  p.ranks = 4;
  p.workers = 3;
  p.block_bytes = 128 << 10;
  p.timesteps = 4;
  p.real_data = true;
  p.shards = 4;
  const auto clean = harness::run_scenario(harness::Pipeline::kDeisa3, p);
  auto pf = p;
  pf.faults.kills.emplace_back(1, 0.1);
  const auto faulty = harness::run_scenario(harness::Pipeline::kDeisa3, pf);
  EXPECT_EQ(faulty.metrics.counter("scheduler.recovery.workers_lost"), 1u);
  EXPECT_GT(faulty.metrics.counter("scheduler.recovery.mirrors_rearmed"), 0u);
  EXPECT_EQ(faulty.singular_values, clean.singular_values);
}

}  // namespace
