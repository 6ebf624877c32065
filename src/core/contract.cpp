#include "deisa/core/contract.hpp"

#include "deisa/util/error.hpp"

namespace deisa::core {

bool Contract::includes(const VirtualArray& va,
                        const array::Index& coord) const {
  return includes(va.name, va.grid(), coord);
}

bool Contract::includes(const std::string& name, const array::ChunkGrid& grid,
                        const array::Index& coord) const {
  const auto it = selections.find(name);
  if (it == selections.end()) return false;
  return !grid.box_of(coord).intersect(it->second).empty();
}

void Contract::validate_against(
    const std::vector<VirtualArray>& offered) const {
  for (const auto& [name, box] : selections) {
    const VirtualArray* va = nullptr;
    for (const auto& a : offered)
      if (a.name == name) va = &a;
    if (va == nullptr)
      throw util::ContractError(
          "analytics selected array '" + name +
          "' which the simulation does not make available");
    DEISA_CHECK(box.ndim() == va->shape.size(),
                "selection rank mismatch for array " << name);
    for (std::size_t d = 0; d < box.ndim(); ++d) {
      if (box.lo[d] < 0 || box.hi[d] > va->shape[d] ||
          box.lo[d] >= box.hi[d])
        throw util::ContractError(
            "invalid selection for array '" + name + "' in dim " +
            std::to_string(d) + ": [" + std::to_string(box.lo[d]) + ", " +
            std::to_string(box.hi[d]) + ") of " +
            std::to_string(va->shape[d]));
    }
  }
}

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kDeisa1: return "DEISA1";
    case Mode::kDeisa2: return "DEISA2";
    case Mode::kDeisa3: return "DEISA3";
  }
  return "?";
}

double bridge_heartbeat_interval(Mode m) {
  switch (m) {
    case Mode::kDeisa1: return 5.0;   // dask default kept by the prototype
    case Mode::kDeisa2: return 60.0;  // raised interval
    case Mode::kDeisa3: return 0.0;   // infinity: disabled
  }
  return 0.0;
}

bool uses_external_tasks(Mode m) { return m != Mode::kDeisa1; }

std::string deisa1_selection_queue(int rank) {
  return "deisa1/sel/" + std::to_string(rank);
}

}  // namespace deisa::core
