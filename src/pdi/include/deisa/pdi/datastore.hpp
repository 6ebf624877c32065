// PDI-style data interface (Roussel et al. 2017): the simulation exposes
// named buffers and raises named events against a declarative YAML
// specification; plugins react to both. This keeps the I/O/coupling
// concern out of the solver entirely — the Heat2D miniapp only calls
// set_meta / expose / event, exactly as a PDI-instrumented code would.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "deisa/array/ndarray.hpp"
#include "deisa/config/expr.hpp"
#include "deisa/config/node.hpp"
#include "deisa/exec/executor.hpp"

namespace deisa::pdi {

class DataStore;

/// Plugin interface: callbacks are coroutines because plugins perform
/// (simulated) communication.
class Plugin {
public:
  virtual ~Plugin() = default;
  virtual exec::Co<void> on_event(DataStore& store, const std::string& name) = 0;
  virtual exec::Co<void> on_data(DataStore& store, const std::string& name,
                                const array::NDArray& data) = 0;
};

class DataStore {
public:
  /// `spec` is the full configuration tree (Listing 1 shape).
  explicit DataStore(config::Node spec);

  const config::Node& spec() const { return spec_; }

  /// Set a metadata value referenced by $-expressions ($step, $rank,
  /// $cfg...): a scalar node or a whole parsed subtree.
  void set_meta(const std::string& name, config::Node value);
  const config::Env& env() const { return env_; }

  void add_plugin(std::shared_ptr<Plugin> plugin);

  /// Expose a named buffer to the plugins (no copy: the reference is only
  /// valid for the duration of the call, as in PDI's share/reclaim).
  exec::Co<void> expose(const std::string& name, const array::NDArray& data);
  /// Raise a named event.
  exec::Co<void> event(const std::string& name);

private:
  config::Node spec_;
  config::Env env_;
  std::vector<std::shared_ptr<Plugin>> plugins_;
};

}  // namespace deisa::pdi
