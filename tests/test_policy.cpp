// Placement tests: locality_owner() as a pure function (pinning the
// max-byte, lowest-id-tie and zero-byte semantics), plus end-to-end
// placement through a real scheduler — dead preferred workers falling
// through, max-byte-owner locality, a locality task without a
// positive-byte owner taking the shared rotation, and that rotation
// staying fair over the live set when workers have died.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "deisa/dts/policy.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"

namespace dts = deisa::dts;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

// ---- locality_owner ---------------------------------------------------

TEST(Policy, LocalityPicksMaxByteOwner) {
  EXPECT_EQ(dts::locality_owner({0, 1, 2}, {10, 50, 20}), 1);
}

TEST(Policy, LocalityTiesToLowestWorkerId) {
  // On equal bytes the lowest worker id wins no matter the dep order the
  // owners were accumulated in.
  EXPECT_EQ(dts::locality_owner({2, 1}, {7, 7}), 1);
  EXPECT_EQ(dts::locality_owner({1, 2}, {7, 7}), 1);
  EXPECT_EQ(dts::locality_owner({3, 0, 2}, {7, 7, 7}), 0);
}

TEST(Policy, LocalityZeroByteOwnersFallThroughToRoundRobin) {
  // Owners holding zero bytes never win: -1 sends the scheduler to the
  // shared rotation, exactly like a task with no resident inputs at all.
  EXPECT_EQ(dts::locality_owner({1, 2}, {0, 0}), -1);
  EXPECT_EQ(dts::locality_owner({}, {}), -1);
  // A leading zero-byte owner does not shadow a later positive one.
  EXPECT_EQ(dts::locality_owner({0, 2}, {0, 5}), 2);
}

// ---- end-to-end placement through a real scheduler ------------------

struct TestCluster {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit TestCluster(int workers, double heartbeat_timeout = 0.0) {
    net::ClusterParams p;
    p.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, p);
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

dts::Data int_data(int v) { return dts::Data::make<int>(v, sizeof(int)); }

std::vector<dts::Key> no_keys() { return {}; }
template <typename... K>
std::vector<dts::Key> keys(K... k) {
  return std::vector<dts::Key>{dts::Key(k)...};
}

sim::Co<void> dead_preferred_flow(TestCluster& tc, int& result) {
  co_await tc.eng.delay(2.0);
  tc.rt->worker(0).crash();
  co_await tc.eng.delay(10.0);  // failure detector marks worker 0 dead
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("t", no_keys(),
                     [](const std::vector<dts::Data>&) { return int_data(5); },
                     /*cost=*/0.01, /*out_bytes=*/0, /*preferred_worker=*/0);
  co_await tc.client->submit(std::move(tasks), keys("t"));
  result = (co_await tc.client->gather("t")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(PolicyFlow, DeadPreferredWorkerFallsThrough) {
  // A preselected worker that has since died must not strand the task:
  // decide_worker ignores the stale preference and locality places it
  // on a survivor.
  TestCluster tc(2, /*heartbeat_timeout=*/3.0);
  int result = 0;
  tc.eng.spawn(dead_preferred_flow(tc, result));
  tc.eng.run();
  EXPECT_EQ(result, 5);
  EXPECT_TRUE(tc.rt->scheduler().worker_is_dead(0));
  EXPECT_GE(tc.rt->worker(1).tasks_executed(), 1u);
}

sim::Co<void> locality_flow(TestCluster& tc, int& result) {
  // 1 MiB resident on worker 1, a few bytes on worker 0: the consumer
  // must land where the bytes are.
  (void)co_await tc.client->scatter("big", dts::Data::make<int>(3, 1 << 20), 1);
  (void)co_await tc.client->scatter("small", int_data(4), 0);
  std::vector<dts::TaskSpec> tasks;
  tasks.emplace_back("sum", keys("big", "small"),
                     [](const std::vector<dts::Data>& in) {
                       return int_data(in[0].as<int>() + in[1].as<int>());
                     });
  co_await tc.client->submit(std::move(tasks), keys("sum"));
  result = (co_await tc.client->gather("sum")).as<int>();
  co_await tc.rt->shutdown();
}

TEST(PolicyFlow, LocalityRunsTaskOnMaxByteOwner) {
  TestCluster tc(2);
  int result = 0;
  tc.eng.spawn(locality_flow(tc, result));
  tc.eng.run();
  EXPECT_EQ(result, 7);
  EXPECT_EQ(tc.rt->worker(1).tasks_executed(), 1u);
  EXPECT_EQ(tc.rt->worker(0).tasks_executed(), 0u);
}

sim::Co<void> zero_byte_owner_flow(TestCluster& tc, int n_tasks) {
  // Worker 1 owns the only input but holds zero bytes of it.
  (void)co_await tc.client->scatter("empty", dts::Data::make<int>(0, 0), 1);
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> futures;
  for (int i = 0; i < n_tasks; ++i) {
    const dts::Key k = "t" + std::to_string(i);
    tasks.emplace_back(k, keys("empty"), [i](const std::vector<dts::Data>&) {
      return int_data(i);
    });
    futures.push_back(k);
  }
  co_await tc.client->submit(std::move(tasks), futures);
  for (const dts::Key& k : futures) (void)co_await tc.client->wait_key(k);
  co_await tc.rt->shutdown();
}

TEST(PolicyFlow, LocalityWithoutPositiveByteOwnerTakesSharedRotation) {
  // No positive-byte owner: locality falls back to the scheduler's
  // rotation instead of pinning every consumer on the zero-byte owner.
  constexpr int kTasks = 4;
  TestCluster tc(2);
  tc.eng.spawn(zero_byte_owner_flow(tc, kTasks));
  tc.eng.run();
  EXPECT_EQ(tc.rt->worker(0).tasks_executed(), kTasks / 2);
  EXPECT_EQ(tc.rt->worker(1).tasks_executed(), kTasks / 2);
}

sim::Co<void> fairness_flow(TestCluster& tc, int n_tasks) {
  co_await tc.eng.delay(2.0);
  tc.rt->worker(1).crash();
  tc.rt->worker(3).crash();
  co_await tc.eng.delay(10.0);  // both detected dead
  // Every task reads a zero-byte block on worker 0: no positive-byte
  // owner, so locality hands each one to the shared rotation.
  (void)co_await tc.client->scatter("empty", dts::Data::make<int>(0, 0), 0);
  std::vector<dts::TaskSpec> tasks;
  std::vector<dts::Key> futures;
  for (int i = 0; i < n_tasks; ++i) {
    const dts::Key k = "t" + std::to_string(i);
    tasks.emplace_back(k, keys("empty"), [i](const std::vector<dts::Data>&) {
      return int_data(i);
    });
    futures.push_back(k);
  }
  co_await tc.client->submit(std::move(tasks), futures);
  for (const dts::Key& k : futures) (void)co_await tc.client->wait_key(k);
  co_await tc.rt->shutdown();
}

TEST(PolicyFlow, RoundRobinStaysFairOverLiveSetWithDeadWorkers) {
  // K dead workers must not skew the rotation (pick_live_worker(), also
  // the recovery re-routing paths' cursor): N tasks split exactly evenly
  // over the survivors and none is ever assigned to a dead id (the run
  // completing at all proves that — a task sent to a corpse would hang
  // its waiter).
  constexpr int kTasks = 40;
  TestCluster tc(4, /*heartbeat_timeout=*/3.0);
  tc.eng.spawn(fairness_flow(tc, kTasks));
  tc.eng.run();
  const dts::Scheduler& s = tc.rt->scheduler();
  EXPECT_TRUE(s.worker_is_dead(1));
  EXPECT_TRUE(s.worker_is_dead(3));
  EXPECT_EQ(s.live_workers(), 2u);
  EXPECT_EQ(tc.rt->worker(0).tasks_executed(), kTasks / 2);
  EXPECT_EQ(tc.rt->worker(2).tasks_executed(), kTasks / 2);
  EXPECT_EQ(tc.rt->worker(1).tasks_executed(), 0u);
  EXPECT_EQ(tc.rt->worker(3).tasks_executed(), 0u);
}

}  // namespace
