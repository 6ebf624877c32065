#include "deisa/pdi/deisa_plugin.hpp"

namespace deisa::pdi {

DeisaPlugin::DeisaPlugin(config::Node plugin_spec, dts::Client& client,
                         core::Mode mode, int rank, int nranks)
    : spec_(std::move(plugin_spec)), bridge_(client, mode, rank, nranks) {
  init_event_ = spec_.get_string("init_on", "init");
  if (const config::Node* map_in = spec_.find("map_in")) {
    for (const auto& [local, global] : map_in->as_map())
      map_in_.emplace(local, global.as_string());
  }
}

core::VirtualArray DeisaPlugin::parse_array(const std::string& name,
                                            const config::Node& node,
                                            const config::Env& env) const {
  return core::VirtualArray::from_config(name, node, env);
}

exec::Co<void> DeisaPlugin::on_event(DataStore& store,
                                    const std::string& name) {
  if (name != init_event_ || initialized_) co_return;
  initialized_ = true;
  // Every rank parses the descriptors (they are needed locally to locate
  // blocks); rank 0 additionally publishes them to the adaptor.
  const config::Node* arrays_spec = spec_.find("deisa_arrays");
  DEISA_CHECK(arrays_spec != nullptr && arrays_spec->is_map(),
              "deisa plugin config lacks a deisa_arrays map");
  for (const auto& [aname, anode] : arrays_spec->as_map())
    arrays_.push_back(parse_array(aname, anode, store.env()));
  if (bridge_.rank() == 0) co_await bridge_.publish_arrays(arrays_);
  if (core::uses_external_tasks(bridge_.mode())) {
    co_await bridge_.wait_contract();
  } else {
    co_await bridge_.deisa1_fetch_selection();
  }
}

array::Index DeisaPlugin::block_coord_of(const core::VirtualArray& va,
                                         const config::Env& env) const {
  // The `start` expressions give the block's global start indices; the
  // chunk coordinate is start / subsize per dimension (time included:
  // start[0] is $step and the time block size is 1).
  const config::Node* arrays_spec = spec_.find("deisa_arrays");
  const config::Node& node = arrays_spec->at(va.name);
  const config::Node& start = node.at("start");
  DEISA_CHECK(start.size() == va.shape.size(),
              "start rank mismatch for array " << va.name);
  array::Index coord(va.shape.size());
  for (std::size_t d = 0; d < coord.size(); ++d) {
    const std::int64_t s = config::eval_node_int(start.at(d), env);
    DEISA_CHECK(s % va.subsize[d] == 0,
                "block start " << s << " in dim " << d
                               << " not aligned to block size "
                               << va.subsize[d]);
    coord[d] = s / va.subsize[d];
  }
  return coord;
}

exec::Co<void> DeisaPlugin::on_data(DataStore& store, const std::string& name,
                                   const array::NDArray& data) {
  const auto it = map_in_.find(name);
  if (it == map_in_.end()) co_return;
  DEISA_CHECK(initialized_, "data exposed before the init event");
  const core::VirtualArray* va = nullptr;
  for (const auto& a : arrays_)
    if (a.name == it->second) va = &a;
  DEISA_CHECK(va != nullptr, "map_in target '" << it->second
                                               << "' is not a deisa array");
  const array::Index coord = block_coord_of(*va, store.env());
  // The exposed buffer is 2D spatial; the deisa block carries the time
  // dimension with extent 1 in front.
  array::Index block_shape = va->subsize;
  array::NDArray block(block_shape);
  DEISA_CHECK(static_cast<std::int64_t>(data.flat().size()) == block.size(),
              "exposed data size does not match the deisa block size");
  std::copy(data.flat().begin(), data.flat().end(), block.flat().begin());
  const std::uint64_t bytes = block.bytes();
  dts::Data payload = dts::Data::make<array::NDArray>(std::move(block), bytes);
  if (core::uses_external_tasks(bridge_.mode())) {
    std::vector<std::pair<array::Index, dts::Data>> blocks;
    blocks.emplace_back(coord, std::move(payload));
    (void)co_await bridge_.send_blocks(*va, std::move(blocks));
  } else {
    (void)co_await bridge_.deisa1_send_block(*va, coord, std::move(payload));
  }
}

}  // namespace deisa::pdi
