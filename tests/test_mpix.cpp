// Tests for the mini-MPI layer: point-to-point matching, wildcards,
// ordering, and the collectives used by the Heat2D miniapp and bridges.
#include <gtest/gtest.h>

#include <numeric>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/mpix/comm.hpp"

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

sim::Co<void> ping(mpix::Comm& comm) {
  co_await comm.send_value<int>(0, 1, /*tag=*/5, 99);
}

sim::Co<void> pong(mpix::Comm& comm, int& out) {
  const mpix::Message m = co_await comm.recv(1, 0, 5);
  out = m.as<int>();
}

TEST(Comm, PointToPointDeliversPayload) {
  World w(2);
  int out = 0;
  w.eng.spawn(ping(*w.comm));
  w.eng.spawn(pong(*w.comm, out));
  w.eng.run();
  EXPECT_EQ(out, 99);
}

sim::Co<void> send_two_tags(mpix::Comm& comm) {
  co_await comm.send_value<int>(0, 1, 10, 100);
  co_await comm.send_value<int>(0, 1, 20, 200);
}

sim::Co<void> recv_tag20_first(mpix::Comm& comm, std::vector<int>& got) {
  const auto m20 = co_await comm.recv(1, mpix::kAnySource, 20);
  got.push_back(m20.as<int>());
  const auto m10 = co_await comm.recv(1, mpix::kAnySource, 10);
  got.push_back(m10.as<int>());
}

TEST(Comm, TagMatchingOutOfOrder) {
  World w(2);
  std::vector<int> got;
  w.eng.spawn(send_two_tags(*w.comm));
  w.eng.spawn(recv_tag20_first(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<int>{200, 100}));
}

TEST(Comm, SameTagPreservesFifoOrder) {
  World w(2);
  std::vector<int> got;
  w.eng.spawn([](mpix::Comm& c) -> sim::Co<void> {
    for (int i = 0; i < 5; ++i) co_await c.send_value<int>(0, 1, 7, i);
  }(*w.comm));
  w.eng.spawn([](mpix::Comm& c, std::vector<int>& out) -> sim::Co<void> {
    for (int i = 0; i < 5; ++i) {
      const auto m = co_await c.recv(1, 0, 7);
      out.push_back(m.as<int>());
    }
  }(*w.comm, got));
  w.eng.run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2, 3, 4}));
}

sim::Co<void> barrier_actor(mpix::Comm& comm, int rank, sim::Time work,
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
                    -> sim::Co<void> {
      for (int i = 0; i < 3; ++i) {
        co_await c.barrier(rank);
        ++ph[static_cast<std::size_t>(rank)];
      }
    }(*w.comm, r, phases));
  }
  w.eng.run();
  EXPECT_EQ(phases, (std::vector<int>{3, 3, 3, 3}));
}

sim::Co<void> bcast_actor(mpix::Comm& comm, int rank, int root,
                          std::vector<int>& out) {
  mpix::Message m;
  if (rank == root) {
    m.bytes = 1024;
    m.payload = 777;
  }
  const auto r = co_await comm.bcast(rank, root, std::move(m));
  out[static_cast<std::size_t>(rank)] = r.as<int>();
}

TEST(Comm, BcastReachesAllRanksFromAnyRoot) {
  for (int root : {0, 3, 6}) {
    World w(7);
    std::vector<int> out(7, 0);
    for (int r = 0; r < 7; ++r) w.eng.spawn(bcast_actor(*w.comm, r, root, out));
    w.eng.run();
    for (int r = 0; r < 7; ++r) EXPECT_EQ(out[static_cast<std::size_t>(r)], 777)
        << "root=" << root << " rank=" << r;
  }
}

sim::Co<void> reduce_actor(mpix::Comm& comm, int rank, int root,
                           std::vector<std::vector<double>>& out) {
  std::vector<double> local{static_cast<double>(rank),
                            static_cast<double>(rank) * 2.0};
  out[static_cast<std::size_t>(rank)] =
      co_await comm.reduce(rank, root, std::move(local), mpix::ReduceOp::kSum);
}

TEST(Comm, ReduceSumsOnRoot) {
  const int p = 6;
  World w(p);
  std::vector<std::vector<double>> out(p);
  for (int r = 0; r < p; ++r) w.eng.spawn(reduce_actor(*w.comm, r, 2, out));
  w.eng.run();
  const double expect0 = 0 + 1 + 2 + 3 + 4 + 5;
  ASSERT_EQ(out[2].size(), 2u);
  EXPECT_DOUBLE_EQ(out[2][0], expect0);
  EXPECT_DOUBLE_EQ(out[2][1], expect0 * 2);
  for (int r = 0; r < p; ++r)
    if (r != 2) {
      EXPECT_TRUE(out[static_cast<std::size_t>(r)].empty());
    }
}

sim::Co<void> allreduce_actor(mpix::Comm& comm, int rank, mpix::ReduceOp op,
                              std::vector<std::vector<double>>& out) {
  std::vector<double> local{static_cast<double>(rank + 1)};
  out[static_cast<std::size_t>(rank)] =
      co_await comm.allreduce(rank, std::move(local), op);
}

TEST(Comm, AllreduceMaxEverywhere) {
  const int p = 5;
  World w(p);
  std::vector<std::vector<double>> out(p);
  for (int r = 0; r < p; ++r)
    w.eng.spawn(allreduce_actor(*w.comm, r, mpix::ReduceOp::kMax, out));
  w.eng.run();
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 1u);
    EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)][0], 5.0);
  }
}

sim::Co<void> gather_actor(mpix::Comm& comm, int rank, int root,
                           std::vector<std::vector<int>>& out) {
  mpix::Message m;
  m.bytes = 64;
  m.payload = rank * 10;
  const auto msgs = co_await comm.gather(rank, root, std::move(m));
  for (const auto& g : msgs)
    out[static_cast<std::size_t>(rank)].push_back(g.as<int>());
}

TEST(Comm, GatherCollectsByRankOrder) {
  const int p = 4;
  World w(p);
  std::vector<std::vector<int>> out(p);
  for (int r = 0; r < p; ++r) w.eng.spawn(gather_actor(*w.comm, r, 0, out));
  w.eng.run();
  EXPECT_EQ(out[0], (std::vector<int>{0, 10, 20, 30}));
  for (int r = 1; r < p; ++r)
    EXPECT_TRUE(out[static_cast<std::size_t>(r)].empty());
}

sim::Co<void> single_rank_collectives(mpix::Comm& c,
                                      std::vector<std::vector<double>>& o) {
  co_await c.barrier(0);
  std::vector<double> local;
  local.push_back(3.0);
  o[0] = co_await c.allreduce(0, std::move(local), mpix::ReduceOp::kSum);
}

TEST(Comm, SingleRankCollectivesAreNoOps) {
  World w(1);
  std::vector<std::vector<double>> out(1);
  w.eng.spawn(single_rank_collectives(*w.comm, out));
  w.eng.run();
  ASSERT_EQ(out[0].size(), 1u);
  EXPECT_DOUBLE_EQ(out[0][0], 3.0);
}

TEST(Comm, InvalidRankThrows) {
  World w(2);
  EXPECT_THROW(w.comm->node_of(5), deisa::util::Error);
}

}  // namespace

namespace {

sim::Co<void> allgather_actor(mpix::Comm& comm, int rank,
                              std::vector<std::vector<std::vector<double>>>& out) {
  std::vector<double> local;
  local.push_back(static_cast<double>(rank));
  local.push_back(static_cast<double>(rank * 2));
  out[static_cast<std::size_t>(rank)] =
      co_await comm.allgather(rank, std::move(local));
}

TEST(Comm, AllgatherDeliversEveryBlockEverywhere) {
  const int p = 5;
  World w(p);
  std::vector<std::vector<std::vector<double>>> out(p);
  for (int r = 0; r < p; ++r) w.eng.spawn(allgather_actor(*w.comm, r, out));
  w.eng.run();
  for (int r = 0; r < p; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(),
              static_cast<std::size_t>(p));
    for (int s = 0; s < p; ++s) {
      const auto& blk = out[static_cast<std::size_t>(r)]
                           [static_cast<std::size_t>(s)];
      ASSERT_EQ(blk.size(), 2u) << "rank " << r << " src " << s;
      EXPECT_DOUBLE_EQ(blk[0], s);
      EXPECT_DOUBLE_EQ(blk[1], s * 2);
    }
  }
}

sim::Co<void> scatter_actor(mpix::Comm& comm, int rank, int root,
                            std::vector<int>& got) {
  std::vector<mpix::Message> parts;
  if (rank == root) {
    for (int r = 0; r < comm.size(); ++r) {
      mpix::Message m(root, 0, 64);
      m.payload = r * 11;
      parts.push_back(std::move(m));
    }
  }
  const mpix::Message mine =
      co_await comm.scatter_from(rank, root, std::move(parts));
  got[static_cast<std::size_t>(rank)] = mine.as<int>();
}

TEST(Comm, ScatterDistributesPerRankParts) {
  const int p = 4;
  World w(p);
  std::vector<int> got(p, -1);
  for (int r = 0; r < p; ++r) w.eng.spawn(scatter_actor(*w.comm, r, 2, got));
  w.eng.run();
  for (int r = 0; r < p; ++r)
    EXPECT_EQ(got[static_cast<std::size_t>(r)], r * 11);
}

sim::Co<void> alltoall_actor(mpix::Comm& comm, int rank,
                             std::vector<std::vector<std::vector<double>>>& out) {
  std::vector<std::vector<double>> outgoing;
  for (int to = 0; to < comm.size(); ++to) {
    std::vector<double> v;
    v.push_back(static_cast<double>(rank * 10 + to));
    outgoing.push_back(std::move(v));
  }
  out[static_cast<std::size_t>(rank)] =
      co_await comm.alltoall(rank, std::move(outgoing));
}

TEST(Comm, AlltoallPersonalizedExchange) {
  const int p = 4;
  World w(p);
  std::vector<std::vector<std::vector<double>>> out(p);
  for (int r = 0; r < p; ++r) w.eng.spawn(alltoall_actor(*w.comm, r, out));
  w.eng.run();
  // rank r receives from rank s the value s*10 + r.
  for (int r = 0; r < p; ++r)
    for (int s = 0; s < p; ++s) {
      ASSERT_EQ(out[static_cast<std::size_t>(r)]
                   [static_cast<std::size_t>(s)].size(), 1u);
      EXPECT_DOUBLE_EQ(out[static_cast<std::size_t>(r)]
                          [static_cast<std::size_t>(s)][0],
                       s * 10 + r);
    }
}

TEST(Comm, MixedCollectiveSequenceNoCrosstalk) {
  const int p = 4;
  World w(p);
  std::vector<std::vector<std::vector<double>>> ag(p);
  std::vector<int> sc(p, -1);
  for (int r = 0; r < p; ++r) {
    w.eng.spawn([](mpix::Comm& c, int rank,
                   std::vector<std::vector<std::vector<double>>>& a,
                   std::vector<int>& s) -> sim::Co<void> {
      co_await c.barrier(rank);
      std::vector<double> mine;
      mine.push_back(static_cast<double>(rank));
      a[static_cast<std::size_t>(rank)] = co_await c.allgather(rank, std::move(mine));
      std::vector<mpix::Message> parts;
      if (rank == 0) {
        for (int i = 0; i < c.size(); ++i) {
          mpix::Message m(0, 0, 8);
          m.payload = i + 100;
          parts.push_back(std::move(m));
        }
      }
      const auto got = co_await c.scatter_from(rank, 0, std::move(parts));
      s[static_cast<std::size_t>(rank)] = got.as<int>();
      co_await c.barrier(rank);
    }(*w.comm, r, ag, sc));
  }
  w.eng.run();
  for (int r = 0; r < p; ++r) {
    EXPECT_EQ(sc[static_cast<std::size_t>(r)], r + 100);
    EXPECT_DOUBLE_EQ(ag[static_cast<std::size_t>(r)]
                        [static_cast<std::size_t>(r)][0], r);
  }
}

}  // namespace
