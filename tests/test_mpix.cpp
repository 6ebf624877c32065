// Tests for the mini-MPI layer: point-to-point matching, wildcards,
// ordering, and the barrier the Heat2D ranks and the bridges meet at.
#include <gtest/gtest.h>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/mpix/comm.hpp"

namespace exec = deisa::exec;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct World {
  sim::Engine eng;
  net::ClusterParams params;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<mpix::Comm> comm;

  explicit World(int ranks, int ranks_per_node = 2) {
    params.physical_nodes = std::max(4, ranks);
    params.leaf_radix = 8;
    params.uplinks_per_leaf = 4;
    params.jitter_sigma = 0.0;
    cluster = std::make_unique<net::Cluster>(eng, params);
    std::vector<int> placement;
    for (int r = 0; r < ranks; ++r) placement.push_back(r / ranks_per_node);
    comm = std::make_unique<mpix::Comm>(*cluster, std::move(placement));
  }
};

/// A one-value message. Built by a function, not a braced list inside a
/// coroutine body (GCC 12 miscompiles initializer_list temporaries there).
mpix::Message value_msg(double v) {
  return mpix::Message(0, 0, sizeof(double), std::vector<double>(1, v));
}

exec::Co<void> ping(mpix::Comm& comm) {
  co_await comm.send(0, 1, /*tag=*/5, value_msg(99));
}

exec::Co<void> pong(mpix::Comm& comm, double& out) {
  const mpix::Message m = co_await comm.recv(1, 0, 5);
  out = m.payload.at(0);
}

TEST(Comm, PointToPointDeliversPayload) {
  World w(2);
  double out = 0;
  w.eng.spawn(ping(*w.comm));
  w.eng.spawn(pong(*w.comm, out));
  w.eng.run();
  EXPECT_EQ(out, 99);
}

exec::Co<void> send_two_tags(mpix::Comm& comm) {
  co_await comm.send(0, 1, 10, value_msg(100));
  co_await comm.send(0, 1, 20, value_msg(200));
}

exec::Co<void> recv_tag20_first(mpix::Comm& comm, std::vector<double>& got) {
  const auto m20 = co_await comm.recv(1, mpix::kAnySource, 20);
  got.push_back(m20.payload.at(0));
  const auto m10 = co_await comm.recv(1, mpix::kAnySource, 10);
  got.push_back(m10.payload.at(0));
}

TEST(Comm, TagMatchingOutOfOrder) {
  World w(2);
  std::vector<double> got;
  w.eng.spawn(send_two_tags(*w.comm));
  w.eng.spawn(recv_tag20_first(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<double>{200, 100}));
}

TEST(Comm, SameTagPreservesFifoOrder) {
  World w(2);
  std::vector<double> got;
  w.eng.spawn([](mpix::Comm& c) -> exec::Co<void> {
    for (int i = 0; i < 5; ++i) co_await c.send(0, 1, 7, value_msg(i));
  }(*w.comm));
  w.eng.spawn([](mpix::Comm& c, std::vector<double>& out) -> exec::Co<void> {
    for (int i = 0; i < 5; ++i) {
      const auto m = co_await c.recv(1, 0, 7);
      out.push_back(m.payload.at(0));
    }
  }(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<double>{0, 1, 2, 3, 4}));
}

exec::Co<void> barrier_actor(mpix::Comm& comm, int rank, exec::Time work,
                             std::vector<double>& after) {
  co_await comm.engine().delay(work);
  co_await comm.barrier(rank);
  after[static_cast<std::size_t>(rank)] = comm.engine().now();
}

TEST(Comm, BarrierWaitsForSlowestRank) {
  World w(8);
  std::vector<double> after(8, 0.0);
  for (int r = 0; r < 8; ++r)
    w.eng.spawn(barrier_actor(*w.comm, r, r == 3 ? 5.0 : 0.1, after));
  w.eng.run();
  for (int r = 0; r < 8; ++r) EXPECT_GE(after[static_cast<std::size_t>(r)], 5.0);
}

TEST(Comm, RepeatedBarriersDoNotCrosstalk) {
  World w(4);
  std::vector<int> phases(4, 0);
  for (int r = 0; r < 4; ++r) {
    w.eng.spawn([](mpix::Comm& c, int rank, std::vector<int>& ph)
                    -> exec::Co<void> {
      for (int i = 0; i < 3; ++i) {
        co_await c.barrier(rank);
        ++ph[static_cast<std::size_t>(rank)];
      }
    }(*w.comm, r, phases));
  }
  w.eng.run();
  EXPECT_EQ(phases, (std::vector<int>{3, 3, 3, 3}));
}

exec::Co<void> single_rank_barrier(mpix::Comm& c, double& after) {
  co_await c.barrier(0);
  co_await c.barrier(0);
  after = c.engine().now();
}

TEST(Comm, SingleRankCollectivesAreNoOps) {
  // With one rank the barrier has no round: it sends nothing and returns
  // at once, however often it is called.
  World w(1);
  double after = -1.0;
  w.eng.spawn(single_rank_barrier(*w.comm, after));
  w.eng.run();
  EXPECT_EQ(after, 0.0);
  EXPECT_EQ(w.cluster->stats().count, 0u);
}

TEST(Comm, InvalidRankThrows) {
  World w(2);
  EXPECT_THROW(w.comm->node_of(5), deisa::util::Error);
}

}  // namespace
