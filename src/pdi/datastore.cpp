#include "deisa/pdi/datastore.hpp"

#include "deisa/util/error.hpp"

namespace deisa::pdi {

DataStore::DataStore(config::Node spec) : spec_(std::move(spec)) {}

void DataStore::set_meta(const std::string& name, config::Node value) {
  env_.set(name, std::move(value));
}

void DataStore::add_plugin(std::shared_ptr<Plugin> plugin) {
  DEISA_CHECK(plugin != nullptr, "null plugin");
  plugins_.push_back(std::move(plugin));
}

exec::Co<void> DataStore::expose(const std::string& name,
                                const array::NDArray& data) {
  for (const auto& p : plugins_) co_await p->on_data(*this, name, data);
}

exec::Co<void> DataStore::event(const std::string& name) {
  for (const auto& p : plugins_) co_await p->on_event(*this, name);
}

}  // namespace deisa::pdi
