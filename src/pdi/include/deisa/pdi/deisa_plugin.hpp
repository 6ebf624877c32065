// The PDI deisa plugin (§2.3): reads the Listing-1 configuration, owns
// this rank's Bridge, and drives the coupling:
//   * on the `init_on` event: rank 0 publishes the virtual arrays; every
//     rank then blocks until the contract is signed (Bridge::couple);
//   * on each exposed data named in `map_in`: evaluates the block's
//     spatiotemporal coordinate from the `start` expressions and sends it
//     (contract-filtered) to the preselected worker (Bridge::push).
#pragma once

#include <map>

#include "deisa/core/bridge.hpp"
#include "deisa/pdi/datastore.hpp"

namespace deisa::pdi {

class DeisaPlugin final : public Plugin {
public:
  /// `plugin_spec` is the `PdiPluginDeisa:` subtree of the config;
  /// `client` stands in for the connection the real plugin makes through
  /// the scheduler_info file.
  DeisaPlugin(config::Node plugin_spec, dts::Client& client, core::Mode mode,
              int rank, int nranks);

  exec::Co<void> on_event(DataStore& store, const std::string& name) override;
  exec::Co<void> on_data(DataStore& store, const std::string& name,
                        const array::NDArray& data) override;

  core::Bridge& bridge() { return bridge_; }
  /// The virtual arrays parsed from the config (rank 0 after init).
  const std::vector<core::VirtualArray>& arrays() const { return arrays_; }

private:
  core::VirtualArray parse_array(const std::string& name,
                                 const config::Node& node,
                                 const config::Env& env) const;
  array::Index block_coord_of(const core::VirtualArray& va,
                              const config::Env& env) const;

  config::Node spec_;
  core::Bridge bridge_;
  std::string init_event_;
  std::map<std::string, std::string> map_in_;  // local name -> deisa array
  std::vector<core::VirtualArray> arrays_;
  bool initialized_ = false;
};

}  // namespace deisa::pdi
