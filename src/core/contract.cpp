#include "deisa/core/contract.hpp"

#include <algorithm>

#include "deisa/util/error.hpp"

namespace deisa::core {

bool Contract::includes(const std::string& name, const array::ChunkGrid& grid,
                        const array::Index& coord) const {
  const auto it = selections.find(name);
  if (it == selections.end()) return false;
  // The chunk's box meets the selection iff their extents overlap in
  // every dimension; compared in place, so no box is built per block.
  const array::Box& sel = it->second;
  const std::size_t ndim = grid.ndim();
  DEISA_CHECK(coord.size() == ndim, "chunk coordinate rank mismatch");
  DEISA_CHECK(sel.ndim() == ndim, "box rank mismatch");
  bool overlap = true;
  for (std::size_t d = 0; d < ndim; ++d) {
    DEISA_CHECK(coord[d] >= 0 && coord[d] < grid.chunks_in(d),
                "chunk coordinate " << coord[d] << " out of range in dim "
                                    << d);
    const std::int64_t lo = coord[d] * grid.chunk_shape()[d];
    const std::int64_t hi =
        std::min(grid.shape()[d], lo + grid.chunk_shape()[d]);
    overlap = overlap && std::max(lo, sel.lo[d]) < std::min(hi, sel.hi[d]);
  }
  return overlap;
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
