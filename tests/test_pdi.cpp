// Tests for the PDI layer: data store plumbing and the deisa plugin
// driving the full Listing-1 coupling (init event -> publish + contract;
// expose -> contract-filtered block sends with config-evaluated coords).
#include <gtest/gtest.h>

#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/config/yaml.hpp"
#include "deisa/core/adaptor.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/pdi/deisa_plugin.hpp"

namespace arr = deisa::array;
namespace cfg = deisa::config;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace pdi = deisa::pdi;
namespace sim = deisa::sim;

namespace {

template <typename... T>
arr::Index ix(T... v) {
  arr::Index i;
  (i.push_back(static_cast<std::int64_t>(v)), ...);
  return i;
}

const char* kConfig = R"(
plugins:
  PdiPluginDeisa:
    scheduler_info: scheduler.json
    init_on: init
    time_step: $step
    deisa_arrays:
      G_temp:
        type: array
        subtype: double
        size: ['$cfg.maxTimeStep', '$cfg.loc[0] * $cfg.proc[0]', '$cfg.loc[1] * $cfg.proc[1]']
        subsize: [1, '$cfg.loc[0]', '$cfg.loc[1]']
        start: [$step, '$cfg.loc[0] * ($rank % $cfg.proc[0])', '$cfg.loc[1] * ($rank / $cfg.proc[0])']
        timedim: 0
    map_in:
      temp: G_temp
)";

cfg::Node make_cfg(std::int64_t loc, std::int64_t px, std::int64_t py,
                   std::int64_t steps) {
  return cfg::Map{{"loc", cfg::Seq{cfg::Node{loc}, cfg::Node{loc}}},
                  {"proc", cfg::Seq{cfg::Node{px}, cfg::Node{py}}},
                  {"maxTimeStep", cfg::Node{steps}}};
}

class RecordingPlugin final : public pdi::Plugin {
public:
  exec::Co<void> on_event(pdi::DataStore&, const std::string& name) override {
    events.push_back(name);
    co_return;
  }
  exec::Co<void> on_data(pdi::DataStore&, const std::string& name,
                         const arr::NDArray& data) override {
    data_names.push_back(name);
    last_size = data.size();
    co_return;
  }
  std::vector<std::string> events;
  std::vector<std::string> data_names;
  std::int64_t last_size = 0;
};

exec::Co<void> drive_store(pdi::DataStore& store) {
  co_await store.event("init");
  arr::NDArray field(ix(2, 2), 1.0);
  co_await store.expose("temp", field);
  co_await store.event("finalize");
}

TEST(DataStore, DispatchesToAllPlugins) {
  sim::Engine eng;
  pdi::DataStore store(cfg::parse_yaml("a: 1"));
  auto p1 = std::make_shared<RecordingPlugin>();
  auto p2 = std::make_shared<RecordingPlugin>();
  store.add_plugin(p1);
  store.add_plugin(p2);
  eng.spawn(drive_store(store));
  eng.run();
  EXPECT_EQ(p1->events, (std::vector<std::string>{"init", "finalize"}));
  EXPECT_EQ(p2->data_names, (std::vector<std::string>{"temp"}));
  EXPECT_EQ(p2->last_size, 4);
}

struct World {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;

  World() {
    net::ClusterParams p;
    p.physical_nodes = 16;
    cluster = std::make_unique<net::Cluster>(eng, p);
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0,
                                        std::vector<int>{2, 3});
    rt->start();
  }
};

exec::Co<void> plugin_rank(pdi::DataStore& store,
                           std::shared_ptr<pdi::DeisaPlugin> plugin, int rank,
                           std::int64_t steps, std::int64_t loc) {
  (void)plugin;
  co_await store.event("init");
  for (std::int64_t t = 0; t < steps; ++t) {
    store.set_meta("step", cfg::Node{t});
    arr::NDArray field(ix(loc, loc), static_cast<double>(rank * 100 + t));
    co_await store.expose("temp", field);
  }
}

exec::Co<void> plugin_adaptor(World& w, core::Adaptor& adaptor,
                              arr::NDArray& out, const arr::Box& want) {
  const auto arrays = co_await adaptor.get_deisa_arrays();
  adaptor.select(arrays[0].name, arr::Selection(want));
  auto darrays = co_await adaptor.validate_contract();
  out = co_await darrays.at("G_temp").gather_box(arr::Selection(want));
  co_await w.rt->shutdown();
}

TEST(DeisaPlugin, EndToEndListing1Coupling) {
  // 2x2 ranks, 4x4 local blocks, 3 steps; analytics selects everything.
  constexpr std::int64_t kLoc = 4;
  constexpr std::int64_t kSteps = 3;
  World w;
  const cfg::Node spec = cfg::parse_yaml(kConfig);

  std::vector<std::unique_ptr<pdi::DataStore>> stores;
  for (int rank = 0; rank < 4; ++rank) {
    auto store = std::make_unique<pdi::DataStore>(spec);
    store->set_meta("cfg", make_cfg(kLoc, 2, 2, kSteps));
    store->set_meta("rank", cfg::Node{std::int64_t{rank}});
    store->set_meta("step", cfg::Node{std::int64_t{0}});
    auto plugin = std::make_shared<pdi::DeisaPlugin>(
        spec.at("plugins").at("PdiPluginDeisa"),
        w.rt->make_client(4 + rank / 2), core::Mode::kDeisa3, rank, 4);
    store->add_plugin(plugin);
    w.eng.spawn(plugin_rank(*store, plugin, rank, kSteps, kLoc));
    stores.push_back(std::move(store));
  }

  core::Adaptor adaptor(w.rt->make_client(1), core::Mode::kDeisa3);
  arr::NDArray out;
  arr::Box want(ix(0, 0, 0), ix(kSteps, 2 * kLoc, 2 * kLoc));
  w.eng.spawn(plugin_adaptor(w, adaptor, out, want));
  w.eng.run();

  // Every cell of block (rank, step) holds rank*100 + step; verify the
  // plugin placed each block at the coordinate its config computed.
  ASSERT_EQ(out.shape(), ix(kSteps, 8, 8));
  for (std::int64_t t = 0; t < kSteps; ++t)
    for (int rank = 0; rank < 4; ++rank) {
      const std::int64_t x0 = (rank % 2) * kLoc;
      const std::int64_t y0 = (rank / 2) * kLoc;
      EXPECT_DOUBLE_EQ(out.at(ix(t, x0, y0)),
                       static_cast<double>(rank * 100 + t))
          << "rank " << rank << " step " << t;
      EXPECT_DOUBLE_EQ(out.at(ix(t, x0 + kLoc - 1, y0 + kLoc - 1)),
                       static_cast<double>(rank * 100 + t));
    }
}

TEST(DeisaPlugin, ExposeBeforeInitThrows) {
  World w;
  const cfg::Node spec = cfg::parse_yaml(kConfig);
  pdi::DataStore store(spec);
  store.set_meta("cfg", make_cfg(4, 1, 1, 2));
  store.set_meta("rank", cfg::Node{std::int64_t{0}});
  store.set_meta("step", cfg::Node{std::int64_t{0}});
  store.add_plugin(std::make_shared<pdi::DeisaPlugin>(
      spec.at("plugins").at("PdiPluginDeisa"), w.rt->make_client(4),
      core::Mode::kDeisa3, 0, 1));
  arr::NDArray field(ix(4, 4));
  // expose() takes its name by reference and the spawned coroutine runs
  // after this statement, so the name must outlive run().
  const std::string name = "temp";
  w.eng.spawn(store.expose(name, field));
  EXPECT_THROW(w.eng.run(), deisa::util::Error);
}

TEST(DeisaPlugin, UnmappedDataIsIgnored) {
  World w;
  const cfg::Node spec = cfg::parse_yaml(kConfig);
  pdi::DataStore store(spec);
  store.set_meta("cfg", make_cfg(4, 1, 1, 2));
  store.set_meta("rank", cfg::Node{std::int64_t{0}});
  store.set_meta("step", cfg::Node{std::int64_t{0}});
  store.add_plugin(std::make_shared<pdi::DeisaPlugin>(
      spec.at("plugins").at("PdiPluginDeisa"), w.rt->make_client(4),
      core::Mode::kDeisa3, 0, 1));
  arr::NDArray other(ix(2, 2));
  // "pressure" is not in map_in: the plugin must not touch it, even
  // before init.
  const std::string name = "pressure";  // outlives run(), as above
  w.eng.spawn(store.expose(name, other));
  w.eng.run_until(5.0);
  w.eng.spawn(w.rt->shutdown());
  w.eng.run();
  SUCCEED();
}

}  // namespace
