// Tests for the paper's core contribution layer: virtual arrays (incl.
// Listing-1 config parsing), contracts, bridge/adaptor protocol in all
// three DEISA modes.
#include <gtest/gtest.h>

#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/config/yaml.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/core/bridge.hpp"
#include "deisa/dts/runtime.hpp"

namespace arr = deisa::array;
namespace cfg = deisa::config;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;
using deisa::util::ContractError;

namespace {

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

core::VirtualArray temp_array(std::int64_t steps = 4) {
  return core::VirtualArray("G_temp", ix(steps, 8, 16), ix(1, 4, 4));
}

TEST(VirtualArray, GridAndSizes) {
  const auto va = temp_array();
  EXPECT_EQ(va.grid().num_chunks(), 4 * 2 * 4);
  EXPECT_EQ(va.block_bytes(), 4u * 4u * 8u);
}

TEST(VirtualArray, ValidationRejectsBadShapes) {
  EXPECT_THROW(core::VirtualArray("a", ix(4, 8), ix(1, 3)),
               deisa::util::Error);  // 8 % 3 != 0
  EXPECT_THROW(core::VirtualArray("a", ix(4, 8), ix(2, 4)),
               deisa::util::Error);  // time block must be 1
  EXPECT_THROW(core::VirtualArray("", ix(4, 8), ix(1, 4)),
               deisa::util::Error);  // unnamed
}

TEST(VirtualArray, FromConfigEvaluatesExpressions) {
  const auto node = cfg::parse_yaml(R"(
size: ['$cfg.maxTimeStep', '$cfg.loc[0] * $cfg.proc[0]', '$cfg.loc[1] * $cfg.proc[1]']
subsize: [1, '$cfg.loc[0]', '$cfg.loc[1]']
timedim: 0
)");
  cfg::Env env;
  std::map<std::string, cfg::Value> c;
  c.emplace("loc", cfg::Value{std::vector<cfg::Value>{
                       cfg::Value{std::int64_t{4}},
                       cfg::Value{std::int64_t{4}}}});
  c.emplace("proc", cfg::Value{std::vector<cfg::Value>{
                        cfg::Value{std::int64_t{2}},
                        cfg::Value{std::int64_t{4}}}});
  c.emplace("maxTimeStep", cfg::Value{std::int64_t{4}});
  env.set("cfg", cfg::Value{std::move(c)});
  const auto va = core::VirtualArray::from_config("G_temp", node, env);
  EXPECT_EQ(va, temp_array());
}

TEST(BlockCoord, Listing1RankDecomposition) {
  const auto va = temp_array();
  // 2x4 process grid, x fastest: rank 5 -> (x=1, y=2).
  const auto c = core::block_coord(va, {2, 4}, 5, 3);
  EXPECT_EQ(c, ix(3, 1, 2));
  EXPECT_THROW(core::block_coord(va, {2, 4}, 8, 0), deisa::util::Error);
  EXPECT_THROW(core::block_coord(va, {2, 2}, 0, 0), deisa::util::Error);
}

TEST(Contract, IncludesChecksOverlap) {
  const auto va = temp_array();
  core::Contract c;
  c.selections["G_temp"] = arr::Box(ix(0, 0, 0), ix(4, 8, 8));  // half Y
  const arr::ChunkGrid grid = va.grid();
  EXPECT_TRUE(c.includes(va.name, grid, ix(0, 0, 0)));
  EXPECT_TRUE(c.includes(va.name, grid, ix(3, 1, 1)));
  EXPECT_FALSE(c.includes(va.name, grid, ix(0, 0, 2)));
  EXPECT_FALSE(c.includes(va.name, grid, ix(0, 0, 3)));
  // Unknown array name: nothing matches.
  EXPECT_FALSE(c.includes("other", grid, ix(0, 0, 0)));
}

TEST(Contract, ValidateAgainstOfferings) {
  std::vector<core::VirtualArray> offered;
  offered.push_back(temp_array());
  core::Contract good;
  good.selections["G_temp"] = arr::Box(ix(0, 0, 0), ix(4, 8, 16));
  EXPECT_NO_THROW(good.validate_against(offered));

  core::Contract unknown;
  unknown.selections["nope"] = arr::Box(ix(0, 0, 0), ix(1, 1, 1));
  EXPECT_THROW(unknown.validate_against(offered), ContractError);

  core::Contract oob;
  oob.selections["G_temp"] = arr::Box(ix(0, 0, 0), ix(4, 8, 32));
  EXPECT_THROW(oob.validate_against(offered), ContractError);

  core::Contract inverted;
  inverted.selections["G_temp"] = arr::Box(ix(0, 4, 0), ix(4, 2, 16));
  EXPECT_THROW(inverted.validate_against(offered), ContractError);
}

TEST(Mode, HeartbeatIntervals) {
  EXPECT_DOUBLE_EQ(core::bridge_heartbeat_interval(core::Mode::kDeisa1), 5.0);
  EXPECT_DOUBLE_EQ(core::bridge_heartbeat_interval(core::Mode::kDeisa2), 60.0);
  EXPECT_DOUBLE_EQ(core::bridge_heartbeat_interval(core::Mode::kDeisa3), 0.0);
  EXPECT_FALSE(core::uses_external_tasks(core::Mode::kDeisa1));
  EXPECT_TRUE(core::uses_external_tasks(core::Mode::kDeisa3));
}

// ---- end-to-end bridge/adaptor protocol ----

struct World {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;

  /// `heartbeat_timeout` > 0 arms the scheduler's failure detector.
  explicit World(double heartbeat_timeout = 0.0) {
    net::ClusterParams p;
    p.physical_nodes = 16;
    cluster = std::make_unique<net::Cluster>(eng, p);
    dts::RuntimeParams rp;
    rp.scheduler.heartbeat_timeout = heartbeat_timeout;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0,
                                        std::vector<int>{2, 3}, rp);
    rt->start();
  }
};

exec::Co<void> protocol_bridge(core::Bridge& bridge, int rank, int steps,
                               double& contract_at, int& remaining,
                               exec::Event& all_done) {
  const auto va = temp_array(steps);
  if (rank == 0) {
    std::vector<core::VirtualArray> arrays;
    arrays.push_back(va);
    co_await bridge.publish_arrays(std::move(arrays));
  }
  co_await bridge.wait_contract();
  contract_at = bridge.client().num_workers();  // reached after signing
  for (int t = 0; t < steps; ++t) {
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    blocks.emplace_back(core::block_coord(va, {2, 4}, rank, t),
                        dts::Data::sized(va.block_bytes()));
    (void)co_await bridge.send_blocks(va, std::move(blocks));
  }
  if (--remaining == 0) all_done.set();
}

exec::Co<void> protocol_adaptor(World& w, core::Adaptor& adaptor,
                                std::uint64_t& selected_chunks,
                                exec::Event& bridges_done) {
  const auto arrays = co_await adaptor.get_deisa_arrays();
  EXPECT_EQ(arrays.size(), 1u);
  adaptor.select(arrays[0].name,
                 arr::Selection(arr::Box(ix(0, 0, 0), ix(4, 8, 8))));
  const auto darrays = co_await adaptor.validate_contract();
  // Wait for all bridges before inspecting state and tearing down.
  co_await bridges_done.wait();
  (void)co_await adaptor.client().wait_key(
      darrays.at("G_temp").key_of(ix(3, 1, 1)));  // last selected block
  selected_chunks = 0;
  for (std::int64_t i = 0;
       i < darrays.at("G_temp").grid().num_chunks(); ++i) {
    const auto& key = darrays.at("G_temp").keys()[static_cast<std::size_t>(i)];
    if (w.rt->scheduler().knows(key)) ++selected_chunks;
  }
  co_await w.rt->shutdown();
}

TEST(Protocol, Deisa3ContractRoundTrip) {
  World w;
  std::vector<std::unique_ptr<core::Bridge>> bridges;
  std::vector<double> contract_at(8, -1);
  for (int r = 0; r < 8; ++r)
    bridges.push_back(std::make_unique<core::Bridge>(
        w.rt->make_client(4 + r / 2), core::Mode::kDeisa3, r, 8));
  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  std::uint64_t selected_chunks = 0;
  exec::Event bridges_done(w.eng);
  int remaining = 8;
  w.eng.spawn(protocol_adaptor(w, adaptor, selected_chunks, bridges_done));
  for (int r = 0; r < 8; ++r)
    w.eng.spawn(protocol_bridge(*bridges[r], r, 4, contract_at[r], remaining,
                                bridges_done));
  w.eng.run();
  // Selection = half the Y blocks: externals exist only for those.
  EXPECT_EQ(selected_chunks, 4u * 2u * 2u);
  // Only the selected half of the blocks crossed the network.
  std::uint64_t sent = 0;
  std::uint64_t filtered = 0;
  for (const auto& b : bridges) {
    sent += b->blocks_sent();
    filtered += b->blocks_filtered();
  }
  EXPECT_EQ(sent, 4u * 4u);      // 4 ranks in selection x 4 steps
  EXPECT_EQ(filtered, 4u * 4u);  // the other 4 ranks x 4 steps
  for (int r = 0; r < 8; ++r) EXPECT_GE(contract_at[r], 0.0) << r;
}

exec::Co<void> bad_selection_adaptor(World& w, core::Adaptor& adaptor,
                                     std::string& error) {
  (void)co_await adaptor.get_deisa_arrays();
  adaptor.select("G_temp",
                 arr::Selection(arr::Box(ix(0, 0, 0), ix(4, 8, 999))));
  try {
    (void)co_await adaptor.validate_contract();
  } catch (const ContractError& e) {
    error = e.what();
  }
  co_await w.rt->shutdown();
}

exec::Co<void> publish_only(core::Bridge& bridge) {
  std::vector<core::VirtualArray> arrays;
  arrays.push_back(temp_array());
  co_await bridge.publish_arrays(std::move(arrays));
}

TEST(Protocol, InvalidSelectionRejectedAtSigning) {
  World w;
  core::Bridge bridge(w.rt->make_client(4), core::Mode::kDeisa3, 0, 1);
  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  std::string error;
  w.eng.spawn(publish_only(bridge));
  w.eng.spawn(bad_selection_adaptor(w, adaptor, error));
  w.eng.run();
  EXPECT_NE(error.find("invalid selection"), std::string::npos);
}

TEST(Bridge, SendBeforeContractThrows) {
  World w;
  core::Bridge bridge(w.rt->make_client(4), core::Mode::kDeisa3, 0, 1);
  EXPECT_THROW((void)bridge.contract(), deisa::util::Error);
}

exec::Co<void> coalesced_bridge(core::Bridge& bridge, std::size_t& sent,
                                exec::Event& pushes_done) {
  const auto va = temp_array(2);
  std::vector<core::VirtualArray> arrays;
  arrays.push_back(va);
  co_await bridge.publish_arrays(std::move(arrays));
  co_await bridge.wait_contract();
  // One rank owns the whole step: all 8 blocks go through one
  // send_blocks call per timestep.
  for (std::int64_t t = 0; t < 2; ++t) {
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    for (std::int64_t x = 0; x < 2; ++x)
      for (std::int64_t y = 0; y < 4; ++y)
        blocks.emplace_back(ix(t, x, y), dts::Data::sized(va.block_bytes()));
    sent += co_await bridge.send_blocks(va, std::move(blocks));
  }
  pushes_done.set();
}

exec::Co<void> coalesced_adaptor(World& w, core::Adaptor& adaptor,
                                 exec::Event& pushes_done) {
  (void)co_await adaptor.get_deisa_arrays();
  // Half the Y extent: per step, 4 of the 8 blocks are in-contract.
  adaptor.select("G_temp", arr::Selection(arr::Box(ix(0, 0, 0), ix(2, 8, 8))));
  (void)co_await adaptor.validate_contract();
  // scatter_batch awaits the batched registration ack, so once the bridge
  // finished its pushes every surviving block is registered.
  co_await pushes_done.wait();
  co_await w.rt->shutdown();
}

TEST(Bridge, SendBlocksFiltersGroupsAndRegistersOnce) {
  World w;
  core::Bridge bridge(w.rt->make_client(4), core::Mode::kDeisa3, 0, 1);
  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  std::size_t sent = 0;
  exec::Event pushes_done(w.eng);
  w.eng.spawn(coalesced_adaptor(w, adaptor, pushes_done));
  w.eng.spawn(coalesced_bridge(bridge, sent, pushes_done));
  w.eng.run();
  EXPECT_EQ(sent, 8u);                      // 4 in-contract blocks x 2 steps
  EXPECT_EQ(bridge.blocks_sent(), 8u);
  EXPECT_EQ(bridge.blocks_filtered(), 8u);  // the other half of each step
  EXPECT_EQ(bridge.blocks_discarded(), 0u);
  // The selected blocks of each step round-robin over both workers, so a
  // step's push coalesces into exactly two registration RPCs — one per
  // target worker — instead of four.
  EXPECT_EQ(w.rt->scheduler().messages_received(dts::SchedMsgKind::kUpdateData),
            4u);
  // Brute force over the whole grid: exactly the in-contract coords ended
  // up registered and in memory.
  const auto va = temp_array(2);
  const arr::Box selection(ix(0, 0, 0), ix(2, 8, 8));
  for (std::int64_t i = 0; i < va.grid().num_chunks(); ++i) {
    const arr::Index coord = va.grid().coord_of(i);
    const std::string key =
        arr::chunk_key(arr::kDeisaPrefix, va.name, coord);
    const bool included =
        !va.grid().box_of(coord).intersect(selection).empty();
    EXPECT_EQ(w.rt->scheduler().knows(key), included) << key;
    if (included) {
      EXPECT_EQ(w.rt->scheduler().state_of(key), dts::TaskState::kMemory)
          << key;
    }
  }
}

exec::Co<void> whole_grid_bridge(core::Bridge& bridge, std::int64_t steps,
                                 exec::Event& pushes_done) {
  const auto va = temp_array(steps);
  std::vector<core::VirtualArray> arrays;
  arrays.push_back(va);
  co_await bridge.publish_arrays(std::move(arrays));
  co_await bridge.wait_contract();
  for (std::int64_t t = 0; t < steps; ++t) {
    std::vector<std::pair<arr::Index, dts::Data>> blocks;
    for (std::int64_t x = 0; x < 2; ++x)
      for (std::int64_t y = 0; y < 4; ++y)
        blocks.emplace_back(ix(t, x, y), dts::Data::sized(va.block_bytes()));
    (void)co_await bridge.send_blocks(va, std::move(blocks));
  }
  pushes_done.set();
}

exec::Co<void> whole_grid_adaptor(World& w, core::Adaptor& adaptor,
                                  std::int64_t steps,
                                  exec::Event& pushes_done) {
  (void)co_await adaptor.get_deisa_arrays();
  adaptor.select("G_temp",
                 arr::Selection(arr::Box(ix(0, 0, 0), ix(steps, 8, 16))));
  (void)co_await adaptor.validate_contract();
  co_await pushes_done.wait();
  co_await w.rt->shutdown();
}

/// Push every block of a `steps`-step array (8 blocks a step) through one
/// bridge and return how many it holds for replay afterwards.
std::size_t retained_after_pushes(double heartbeat_timeout,
                                  std::int64_t steps) {
  World w(heartbeat_timeout);
  core::Bridge bridge(w.rt->make_client(4), core::Mode::kDeisa3, 0, 1);
  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  exec::Event pushes_done(w.eng);
  w.eng.spawn(whole_grid_adaptor(w, adaptor, steps, pushes_done));
  w.eng.spawn(whole_grid_bridge(bridge, steps, pushes_done));
  w.eng.run();
  EXPECT_EQ(bridge.blocks_sent(), static_cast<std::uint64_t>(8 * steps));
  return bridge.blocks_retained();
}

TEST(Bridge, RetainsNoReplayCopiesWithoutFailureDetector) {
  // heartbeat_timeout 0: no detector, so no worker is ever declared lost
  // and nothing can ask for a block again.
  EXPECT_EQ(retained_after_pushes(0.0, 4), 0u);
  EXPECT_EQ(retained_after_pushes(0.0, 160), 0u);
}

TEST(Bridge, RetainsLast1024BlocksWithFailureDetector) {
  EXPECT_EQ(retained_after_pushes(3.0, 4), 32u);
  EXPECT_EQ(retained_after_pushes(3.0, 160), 1024u);  // 1280 pushed
}

/// Every key of a `steps`-step array, in grid order.
std::vector<std::string> all_keys(std::int64_t steps) {
  const auto va = temp_array(steps);
  std::vector<std::string> out;
  for (std::int64_t i = 0; i < va.grid().num_chunks(); ++i)
    out.push_back(
        arr::chunk_key(arr::kDeisaPrefix, va.name, va.grid().coord_of(i)));
  return out;
}

exec::Co<void> crash_after_final_push_adaptor(World& w, core::Adaptor& adaptor,
                                              std::int64_t steps,
                                              exec::Event& pushes_done,
                                              std::size_t& lost,
                                              std::vector<int>& owners) {
  (void)co_await adaptor.get_deisa_arrays();
  adaptor.select("G_temp",
                 arr::Selection(arr::Box(ix(0, 0, 0), ix(steps, 8, 16))));
  (void)co_await adaptor.validate_contract();
  co_await pushes_done.wait();
  const std::vector<std::string> keys = all_keys(steps);
  for (const auto& key : keys)
    if (co_await adaptor.client().wait_key(key) == 0) ++lost;
  // The bridge has pushed its final block: no later push or ack can tell
  // it that worker 0's blocks are gone.
  w.rt->worker(0).crash();
  co_await w.eng.delay(10.0);  // detection, then the replay lists
  for (const auto& key : keys)
    owners.push_back(co_await adaptor.client().wait_key(key));
  co_await w.rt->shutdown();
}

TEST(Bridge, ReplaysBlocksLostAfterItsFinalPush) {
  constexpr std::int64_t kSteps = 2;
  World w(/*heartbeat_timeout=*/3.0);
  core::Bridge bridge(w.rt->make_client(4), core::Mode::kDeisa3, 0, 1);
  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  exec::Event pushes_done(w.eng);
  std::size_t lost = 0;
  std::vector<int> owners;
  w.eng.spawn(crash_after_final_push_adaptor(w, adaptor, kSteps, pushes_done,
                                             lost, owners));
  w.eng.spawn(whole_grid_bridge(bridge, kSteps, pushes_done));
  w.eng.run();
  EXPECT_EQ(bridge.blocks_sent(), static_cast<std::uint64_t>(8 * kSteps));
  EXPECT_GT(lost, 0u);
  EXPECT_EQ(bridge.blocks_repushed(), lost);
  const dts::Scheduler& s = w.rt->scheduler();
  EXPECT_EQ(s.recovery().workers_lost, 1u);
  EXPECT_EQ(s.recovery().external_rearmed, lost);
  const std::vector<std::string> keys = all_keys(kSteps);
  ASSERT_EQ(owners.size(), keys.size());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_EQ(s.state_of(keys[i]), dts::TaskState::kMemory) << keys[i];
    EXPECT_FALSE(s.worker_is_dead(owners[i])) << keys[i];
  }
}

}  // namespace
