// Contracts in action: the analytics selects only a region of the
// simulated field; each bridge filters locally, per timestep, and only
// ships the blocks the contract covers — no per-timestep metadata, no
// wasted bandwidth (paper §2.4.3). Each rank owns TWO chunks per step
// and pushes them through the coalesced send_blocks path, so blocks
// landing on the same worker share one transfer + one registration RPC.
#include <iostream>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/dts/runtime.hpp"

namespace arr = deisa::array;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

constexpr int kRanks = 4;            // each rank owns two blocks along Y
constexpr int kBlocksPerRank = 2;
constexpr std::int64_t kSteps = 6;
constexpr std::int64_t kEdge = 8;
constexpr std::int64_t kYBlocks = kRanks * kBlocksPerRank;

arr::Index shape3(std::int64_t a, std::int64_t b, std::int64_t c) {
  arr::Index i;
  i.push_back(a);
  i.push_back(b);
  i.push_back(c);
  return i;
}

core::VirtualArray field_array() {
  return core::VirtualArray("field", shape3(kSteps, kEdge, kEdge * kYBlocks),
                           shape3(1, kEdge, kEdge));
}

exec::Co<void> bridge_rank(core::Bridge& bridge, int rank) {
  const core::VirtualArray va = field_array();
  if (rank == 0) {
    std::vector<core::VirtualArray> arrays;
    arrays.push_back(va);
    co_await bridge.publish_arrays(std::move(arrays));
  }
  co_await bridge.wait_contract();
  for (std::int64_t t = 0; t < kSteps; ++t) {
    // All of this rank's blocks for the step in ONE coalesced push.
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    for (int b = 0; b < kBlocksPerRank; ++b) {
      arr::NDArray block(va.subsize, static_cast<double>(rank));
      const std::uint64_t bytes = block.bytes();
      blocks.emplace_back(shape3(t, 0, rank * kBlocksPerRank + b),
                          dts::Data::make<arr::NDArray>(std::move(block),
                                                        bytes));
    }
    const std::size_t sent = co_await bridge.send_blocks(va,
                                                         std::move(blocks));
    if (t == 0)
      std::cout << "rank " << rank << ": " << sent << "/" << kBlocksPerRank
                << " blocks inside contract -> sent, "
                << (kBlocksPerRank - sent) << " filtered locally\n";
  }
}

exec::Co<void> analytics(dts::Runtime& rt, dts::Client& client,
                         std::vector<core::Bridge*> bridges) {
  core::Adaptor adaptor(client, core::Mode::kDeisa3);
  const auto arrays = co_await adaptor.get_deisa_arrays();
  const auto& va = arrays[0];

  // Select only the middle quarter of the Y extent, all steps.
  arr::Box box;
  box.lo = shape3(0, 0, 2 * kEdge);
  box.hi = shape3(kSteps, kEdge, 4 * kEdge);
  adaptor.select(va.name, arr::Selection(box));
  auto darrays = co_await adaptor.validate_contract();
  std::cout << "contract signed: Y in [" << box.lo[2] << ", " << box.hi[2]
            << ") of " << va.shape[2] << "\n";

  // Gather the selected region once the blocks land.
  const arr::NDArray sub =
      co_await darrays.at(va.name).gather_box(arr::Selection(box));
  std::cout << "assembled selection of shape (" << sub.shape()[0] << ", "
            << sub.shape()[1] << ", " << sub.shape()[2] << ")\n";

  std::uint64_t sent = 0;
  std::uint64_t filtered = 0;
  for (const auto* b : bridges) {
    sent += b->blocks_sent();
    filtered += b->blocks_filtered();
  }
  std::cout << "blocks sent: " << sent << ", filtered at the source: "
            << filtered << " (saved "
            << filtered * field_array().block_bytes() / 1024 << " KiB of "
            << "network traffic)\n";
  std::cout << "registration RPCs: "
            << rt.scheduler().messages_received(
                   dts::SchedMsgKind::kUpdateData)
            << " for " << sent
            << " blocks (coalesced per rank/worker/step)\n";
  co_await rt.shutdown();
}

}  // namespace

int main() {
  sim::Engine engine;
  net::ClusterParams cp;
  cp.physical_nodes = 16;
  net::Cluster cluster(engine, cp);
  dts::Runtime runtime(engine, cluster, 0, {2, 3});
  runtime.start();

  std::vector<std::unique_ptr<core::Bridge>> bridges;
  std::vector<core::Bridge*> bridge_ptrs;
  for (int r = 0; r < kRanks; ++r) {
    bridges.push_back(std::make_unique<core::Bridge>(
        runtime.make_client(4 + r / 2), core::Mode::kDeisa3, r, kRanks));
    bridge_ptrs.push_back(bridges.back().get());
  }
  engine.spawn(analytics(runtime, runtime.make_client(1), bridge_ptrs));
  for (int r = 0; r < kRanks; ++r) engine.spawn(bridge_rank(*bridges[r], r));
  engine.run();
  return 0;
}
