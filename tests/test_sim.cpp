// Tests for the discrete-event coroutine engine: clock semantics, FIFO
// determinism, channels, semaphores, queueing servers, error propagation.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "deisa/exec/primitives.hpp"
#include "deisa/sim/engine.hpp"

namespace exec = deisa::exec;
namespace sim = deisa::sim;

namespace {

exec::Co<void> record_at(sim::Engine& eng, exec::Time t, int id,
                         std::vector<std::pair<double, int>>& log) {
  co_await eng.delay(t);
  log.emplace_back(eng.now(), id);
}

TEST(Engine, DelayAdvancesClock) {
  sim::Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(record_at(eng, 2.5, 1, log));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 2.5);
  EXPECT_DOUBLE_EQ(eng.now(), 2.5);
}

TEST(Engine, SameTimeEventsFireInSpawnOrder) {
  sim::Engine eng;
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < 8; ++i) eng.spawn(record_at(eng, 1.0, i, log));
  eng.run();
  ASSERT_EQ(log.size(), 8u);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(log[static_cast<size_t>(i)].second, i);
}

TEST(Engine, ZeroDelayStillGoesThroughQueue) {
  sim::Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(record_at(eng, 0.0, 7, log));
  EXPECT_TRUE(log.empty());
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0].first, 0.0);
}

exec::Co<void> nested_child(sim::Engine& eng, std::vector<int>& log) {
  log.push_back(1);
  co_await eng.delay(1.0);
  log.push_back(2);
}

exec::Co<void> nested_parent(sim::Engine& eng, std::vector<int>& log) {
  log.push_back(0);
  co_await nested_child(eng, log);
  log.push_back(3);
  co_await eng.delay(0.5);
  log.push_back(4);
}

TEST(Engine, NestedCoroutinesChainResults) {
  sim::Engine eng;
  std::vector<int> log;
  eng.spawn(nested_parent(eng, log));
  eng.run();
  EXPECT_EQ(log, (std::vector<int>{0, 1, 2, 3, 4}));
  EXPECT_DOUBLE_EQ(eng.now(), 1.5);
}

exec::Co<int> answer(sim::Engine& eng) {
  co_await eng.delay(1.0);
  co_return 42;
}

exec::Co<void> use_answer(sim::Engine& eng, int& out) {
  out = co_await answer(eng);
}

TEST(Engine, ValueReturningCoroutine) {
  sim::Engine eng;
  int out = 0;
  eng.spawn(use_answer(eng, out));
  eng.run();
  EXPECT_EQ(out, 42);
}

exec::Co<void> thrower(sim::Engine& eng) {
  co_await eng.delay(1.0);
  throw std::runtime_error("boom");
}

TEST(Engine, RootExceptionPropagatesOutOfRun) {
  sim::Engine eng;
  eng.spawn(thrower(eng));
  EXPECT_THROW(eng.run(), std::runtime_error);
}

exec::Co<void> catcher(sim::Engine& eng, bool& caught) {
  try {
    co_await thrower(eng);
  } catch (const std::runtime_error&) {
    caught = true;
  }
}

TEST(Engine, AwaitedExceptionCatchableInParent) {
  sim::Engine eng;
  bool caught = false;
  eng.spawn(catcher(eng, caught));
  eng.run();
  EXPECT_TRUE(caught);
}

TEST(Engine, RunUntilStopsAtDeadline) {
  sim::Engine eng;
  std::vector<std::pair<double, int>> log;
  eng.spawn(record_at(eng, 1.0, 1, log));
  eng.spawn(record_at(eng, 5.0, 2, log));
  const bool drained = eng.run_until(2.0);
  EXPECT_FALSE(drained);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(eng.now(), 2.0);
  EXPECT_TRUE(eng.run_until(10.0));
  EXPECT_EQ(log.size(), 2u);
}

exec::Co<void> waiter_task(sim::Engine& eng, exec::Event& ev,
                           std::vector<double>& log) {
  co_await ev.wait();
  log.push_back(eng.now());
}

exec::Co<void> setter_task(sim::Engine& eng, exec::Event& ev) {
  co_await eng.delay(3.0);
  ev.set();
}

TEST(Event, BroadcastWakesAllWaiters) {
  sim::Engine eng;
  exec::Event ev(eng);
  std::vector<double> log;
  eng.spawn(waiter_task(eng, ev, log));
  eng.spawn(waiter_task(eng, ev, log));
  eng.spawn(setter_task(eng, ev));
  eng.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_DOUBLE_EQ(log[0], 3.0);
  EXPECT_DOUBLE_EQ(log[1], 3.0);
}

TEST(Event, WaitAfterSetDoesNotBlock) {
  sim::Engine eng;
  exec::Event ev(eng);
  ev.set();
  std::vector<double> log;
  eng.spawn(waiter_task(eng, ev, log));
  eng.run();
  ASSERT_EQ(log.size(), 1u);
  EXPECT_DOUBLE_EQ(log[0], 0.0);
}

exec::Co<void> producer(sim::Engine& eng, exec::Channel<int>& ch, int n) {
  for (int i = 0; i < n; ++i) {
    co_await eng.delay(1.0);
    ch.send(i);
  }
}

exec::Co<void> consumer(sim::Engine& eng, exec::Channel<int>& ch, int n,
                        std::vector<std::pair<double, int>>& log) {
  for (int i = 0; i < n; ++i) {
    const int v = co_await ch.recv();
    log.emplace_back(eng.now(), v);
  }
}

TEST(Channel, FifoDeliveryAcrossTime) {
  sim::Engine eng;
  exec::Channel<int> ch(eng);
  std::vector<std::pair<double, int>> log;
  eng.spawn(producer(eng, ch, 3));
  eng.spawn(consumer(eng, ch, 3, log));
  eng.run();
  ASSERT_EQ(log.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(log[static_cast<size_t>(i)].first, i + 1.0);
    EXPECT_EQ(log[static_cast<size_t>(i)].second, i);
  }
}

TEST(Channel, ManyConsumersEachGetOneItem) {
  sim::Engine eng;
  exec::Channel<int> ch(eng);
  std::vector<std::pair<double, int>> log;
  for (int i = 0; i < 4; ++i) eng.spawn(consumer(eng, ch, 1, log));
  eng.spawn(producer(eng, ch, 4));
  eng.run();
  ASSERT_EQ(log.size(), 4u);
  std::vector<int> values;
  for (auto& [t, v] : log) values.push_back(v);
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values, (std::vector<int>{0, 1, 2, 3}));
}

TEST(Channel, TryRecvNonBlocking) {
  sim::Engine eng;
  exec::Channel<int> ch(eng);
  EXPECT_FALSE(ch.try_recv().has_value());
  ch.send(9);
  auto v = ch.try_recv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 9);
}

exec::Co<void> hold_resource(sim::Engine& eng, exec::Semaphore& sem,
                             exec::Time hold,
                             std::vector<double>& acquired_at) {
  co_await sem.acquire();
  acquired_at.push_back(eng.now());
  co_await eng.delay(hold);
  sem.release();
}

TEST(Semaphore, SerializesBeyondCapacity) {
  sim::Engine eng;
  exec::Semaphore sem(eng, 2);
  std::vector<double> acquired_at;
  for (int i = 0; i < 4; ++i)
    eng.spawn(hold_resource(eng, sem, 10.0, acquired_at));
  eng.run();
  ASSERT_EQ(acquired_at.size(), 4u);
  EXPECT_DOUBLE_EQ(acquired_at[0], 0.0);
  EXPECT_DOUBLE_EQ(acquired_at[1], 0.0);
  EXPECT_DOUBLE_EQ(acquired_at[2], 10.0);
  EXPECT_DOUBLE_EQ(acquired_at[3], 10.0);
}

exec::Co<void> client_of(sim::Engine& eng, exec::FifoServer& server,
                         exec::Time service, int id,
                         std::vector<std::pair<double, int>>& done) {
  co_await server.serve(service);
  done.emplace_back(eng.now(), id);
}

TEST(FifoServer, QueueingDelayAccumulates) {
  sim::Engine eng;
  exec::FifoServer server(eng, 1);
  std::vector<std::pair<double, int>> done;
  for (int i = 0; i < 3; ++i) eng.spawn(client_of(eng, server, 2.0, i, done));
  eng.run();
  // Three jobs of 2 s on one server: finishes at t=6.
  EXPECT_DOUBLE_EQ(eng.now(), 6.0);
  // Waiting: job 1 waits 2 s and job 2 waits 4 s, so they finish at 4 and 6.
  const std::vector<std::pair<double, int>> want{{2.0, 0}, {4.0, 1}, {6.0, 2}};
  EXPECT_EQ(done, want);
}

TEST(FifoServer, ZeroCostServiceWaitsItsFifoTurn) {
  sim::Engine eng;
  exec::FifoServer server(eng, 1);
  std::vector<std::pair<double, int>> done;
  // A 2 s job takes the one slot; the zero-cost jobs that arrive while it
  // holds the slot queue behind it, and a 1 s job behind them.
  eng.spawn(client_of(eng, server, 2.0, 0, done));
  eng.spawn(client_of(eng, server, 0.0, 1, done));
  eng.spawn(client_of(eng, server, 0.0, 2, done));
  eng.spawn(client_of(eng, server, 1.0, 3, done));
  eng.run();
  const std::vector<std::pair<double, int>> want{
      {2.0, 0}, {2.0, 1}, {2.0, 2}, {3.0, 3}};
  EXPECT_EQ(done, want);
}

TEST(FifoServer, ZeroCostServiceOnAFreeServerPostsNoEvent) {
  sim::Engine eng;
  exec::FifoServer server(eng, 1);
  std::vector<std::pair<double, int>> done;
  eng.spawn(client_of(eng, server, 0.0, 0, done));
  eng.run();
  // The spawn is the only event: the serve finished inline.
  EXPECT_EQ(eng.events_processed(), 1u);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(done[0].first, 0.0);
}

exec::Co<void> spawn_three(sim::Engine& eng, std::vector<int>& done) {
  std::vector<exec::Co<void>> tasks;
  tasks.push_back([](sim::Engine& e, std::vector<int>& d) -> exec::Co<void> {
    co_await e.delay(3.0);
    d.push_back(3);
  }(eng, done));
  tasks.push_back([](sim::Engine& e, std::vector<int>& d) -> exec::Co<void> {
    co_await e.delay(1.0);
    d.push_back(1);
  }(eng, done));
  tasks.push_back([](sim::Engine& e, std::vector<int>& d) -> exec::Co<void> {
    co_await e.delay(2.0);
    d.push_back(2);
  }(eng, done));
  co_await exec::when_all(eng, std::move(tasks));
  done.push_back(99);
}

TEST(WhenAll, WaitsForAllConcurrently) {
  sim::Engine eng;
  std::vector<int> done;
  eng.spawn(spawn_three(eng, done));
  eng.run();
  EXPECT_EQ(done, (std::vector<int>{1, 2, 3, 99}));
  EXPECT_DOUBLE_EQ(eng.now(), 3.0);  // concurrent, not 6.
}

TEST(Engine, TeardownWithSuspendedActorsDoesNotLeakOrCrash) {
  auto eng = std::make_unique<sim::Engine>();
  auto ch = std::make_unique<exec::Channel<int>>(*eng);
  std::vector<std::pair<double, int>> log;
  eng->spawn(consumer(*eng, *ch, 1, log));  // blocks forever
  eng->run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(eng->live_roots(), 1u);
  eng.reset();  // must destroy the suspended coroutine cleanly
  SUCCEED();
}

TEST(Engine, DeterministicEventCount) {
  auto run_once = [] {
    sim::Engine eng;
    exec::Channel<int> ch(eng);
    std::vector<std::pair<double, int>> log;
    eng.spawn(producer(eng, ch, 5));
    eng.spawn(consumer(eng, ch, 5, log));
    eng.run();
    return eng.events_processed();
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
