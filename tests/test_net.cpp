// Tests for the cluster/network model: topology distances, contention-free
// transfer timing, NIC and uplink contention, allocation properties.
#include <gtest/gtest.h>

#include "deisa/net/cluster.hpp"
#include "deisa/util/units.hpp"

namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::kMiB;

namespace {

net::ClusterParams small_params() {
  net::ClusterParams p;
  p.physical_nodes = 48;
  p.leaf_radix = 8;
  p.uplinks_per_leaf = 2;
  p.link_bandwidth = 1e9;     // 1 GB/s for round numbers
  p.memory_bandwidth = 4e9;
  p.hop_latency = 1e-6;
  p.software_overhead = 4e-6;
  p.jitter_sigma = 0.0;
  return p;
}

TEST(Cluster, LeafAndHops) {
  sim::Engine eng;
  net::Cluster c(eng, small_params());
  EXPECT_EQ(c.leaf_of(0), 0);
  EXPECT_EQ(c.leaf_of(7), 0);
  EXPECT_EQ(c.leaf_of(8), 1);
  EXPECT_EQ(c.hops(3, 3), 0);
  EXPECT_EQ(c.hops(0, 7), 2);
  EXPECT_EQ(c.hops(0, 8), 4);
}

exec::Co<void> one_transfer(net::Cluster& c, int src, int dst,
                            std::uint64_t bytes, double& finished_at) {
  co_await c.transfer(src, dst, bytes);
  finished_at = c.engine().now();
}

TEST(Cluster, UncontendedTransferMatchesIdealDuration) {
  sim::Engine eng;
  net::Cluster c(eng, small_params());
  double t = 0;
  eng.spawn(one_transfer(c, 0, 9, 1000000, t));
  eng.run();
  // 4 hops * 1us + 4us overhead + 1e6/1e9 s
  EXPECT_NEAR(t, 8e-6 + 1e-3, 1e-9);
}

TEST(Cluster, IntraNodeUsesMemoryBandwidth) {
  sim::Engine eng;
  net::Cluster c(eng, small_params());
  double t = 0;
  eng.spawn(one_transfer(c, 5, 5, 4000000, t));
  eng.run();
  EXPECT_NEAR(t, 4e-6 + 1e-3, 1e-9);  // 4 MB over 4 GB/s
}

TEST(Cluster, ReceiverNicSerializesIncomingFlows) {
  sim::Engine eng;
  net::Cluster c(eng, small_params());
  // Two senders on the same leaf as receiver, 1 MB each at 1 GB/s.
  double t1 = 0, t2 = 0;
  eng.spawn(one_transfer(c, 1, 0, 1000000, t1));
  eng.spawn(one_transfer(c, 2, 0, 1000000, t2));
  eng.run();
  const double first = std::min(t1, t2);
  const double second = std::max(t1, t2);
  EXPECT_NEAR(first, 6e-6 + 1e-3, 1e-8);
  // Second flow waits for the receiver NIC: ~2x duration.
  EXPECT_GT(second, 1.9e-3);
}

TEST(Cluster, PrunedUplinksLimitCrossLeafConcurrency) {
  sim::Engine eng;
  auto p = small_params();
  p.uplinks_per_leaf = 1;
  net::Cluster c(eng, p);
  // Two flows from leaf 0 to distinct nodes of leaf 1 share one uplink.
  double t1 = 0, t2 = 0;
  eng.spawn(one_transfer(c, 0, 8, 1000000, t1));
  eng.spawn(one_transfer(c, 1, 9, 1000000, t2));
  eng.run();
  EXPECT_GT(std::max(t1, t2), 1.9e-3);  // serialized by the uplink
  // With enough uplinks the same flows run concurrently.
  sim::Engine eng2;
  p.uplinks_per_leaf = 2;
  net::Cluster c2(eng2, p);
  eng2.spawn(one_transfer(c2, 0, 8, 1000000, t1));
  eng2.spawn(one_transfer(c2, 1, 9, 1000000, t2));
  eng2.run();
  EXPECT_LT(std::max(t1, t2), 1.1e-3);
}

TEST(Cluster, TransferStatsAccumulate) {
  sim::Engine eng;
  net::Cluster c(eng, small_params());
  double t = 0;
  eng.spawn(one_transfer(c, 0, 1, 500, t));
  eng.spawn(one_transfer(c, 1, 2, 700, t));
  eng.run();
  EXPECT_EQ(c.stats().count, 2u);
  EXPECT_EQ(c.stats().bytes, 1200u);
}

TEST(Cluster, JitterIsDeterministicPerSeed) {
  auto run = [](std::uint64_t seed) {
    sim::Engine eng;
    auto p = small_params();
    p.jitter_sigma = 0.2;
    p.jitter_seed = seed;
    net::Cluster c(eng, p);
    double t = 0;
    eng.spawn(one_transfer(c, 0, 9, 1000000, t));
    eng.run();
    return t;
  };
  EXPECT_DOUBLE_EQ(run(1), run(1));
  EXPECT_NE(run(1), run(2));
}

TEST(Allocate, ReturnsRequestedDistinctNodes) {
  const auto p = small_params();
  const auto nodes = net::allocate_nodes(p, 20, 42);
  EXPECT_EQ(nodes.size(), 20u);
  auto sorted = nodes;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end());
  for (int n : nodes) {
    EXPECT_GE(n, 0);
    EXPECT_LT(n, p.physical_nodes);
  }
}

TEST(Allocate, DeterministicPerSeedAndVariesAcrossSeeds) {
  const auto p = small_params();
  EXPECT_EQ(net::allocate_nodes(p, 12, 7), net::allocate_nodes(p, 12, 7));
  bool any_different = false;
  const auto base = net::allocate_nodes(p, 12, 7);
  for (std::uint64_t s = 8; s < 16 && !any_different; ++s)
    any_different = net::allocate_nodes(p, 12, s) != base;
  EXPECT_TRUE(any_different);
}

TEST(Allocate, SpansMultipleLeavesWhenLargerThanOneSwitch) {
  const auto p = small_params();  // 8 nodes per leaf
  sim::Engine eng;
  net::Cluster c(eng, p);
  const auto nodes = net::allocate_nodes(p, 20, 3);
  std::set<int> leaves;
  for (int n : nodes) leaves.insert(c.leaf_of(n));
  EXPECT_GE(leaves.size(), 3u);
}

TEST(Allocate, RejectsOversizedRequests) {
  const auto p = small_params();
  EXPECT_THROW(net::allocate_nodes(p, p.physical_nodes + 1, 0),
               deisa::util::Error);
}

}  // namespace
