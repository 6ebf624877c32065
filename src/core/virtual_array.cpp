#include "deisa/core/virtual_array.hpp"

#include "deisa/util/error.hpp"

namespace deisa::core {

void VirtualArray::validate() const {
  DEISA_CHECK(!name.empty(), "virtual array needs a name");
  DEISA_CHECK(shape.size() == subsize.size(),
              "shape/subsize rank mismatch for array " << name);
  DEISA_CHECK(timedim == 0,
              "this implementation requires the time dimension first "
              "(timedim tag 0), got "
                  << timedim);
  DEISA_CHECK(!shape.empty(), "virtual array " << name << " has no dims");
  DEISA_CHECK(subsize[0] == 1,
              "time dimension must be produced one step per block");
  for (std::size_t d = 0; d < shape.size(); ++d) {
    DEISA_CHECK(shape[d] > 0 && subsize[d] > 0,
                "non-positive extent in array " << name << " dim " << d);
    DEISA_CHECK(shape[d] % subsize[d] == 0,
                "array " << name << " dim " << d << ": global size "
                         << shape[d] << " not divisible by block size "
                         << subsize[d]);
  }
}

array::ChunkGrid VirtualArray::grid() const {
  return array::ChunkGrid(shape, subsize);
}

std::uint64_t VirtualArray::block_bytes() const {
  std::int64_t v = 1;
  for (std::int64_t s : subsize) v *= s;
  return static_cast<std::uint64_t>(v) * sizeof(double);
}

VirtualArray VirtualArray::from_config(const std::string& name,
                                       const config::Node& node,
                                       const config::Env& env) {
  const auto eval_list = [&](const config::Node& seq) {
    array::Index out;
    for (const auto& e : seq.as_seq())
      out.push_back(config::eval_node_int(e, env));
    return out;
  };
  VirtualArray va;
  va.name = name;
  va.shape = eval_list(node.at("size"));
  va.subsize = eval_list(node.at("subsize"));
  va.timedim = static_cast<int>(node.get_int("timedim", 0));
  va.validate();
  return va;
}

array::Index block_coord(const VirtualArray& va,
                         const std::vector<int>& proc_grid, int rank,
                         std::int64_t t) {
  DEISA_CHECK(proc_grid.size() + 1 == va.shape.size(),
              "process grid rank mismatch for array " << va.name);
  // Listing-1 rank decomposition: the FIRST spatial dimension varies
  // fastest (x = rank % proc[0], y = rank / proc[0], ...).
  array::Index coord(va.shape.size());
  coord[0] = t;
  int rest = rank;
  for (std::size_t d = 0; d < proc_grid.size(); ++d) {
    const int p = proc_grid[d];
    DEISA_CHECK(p > 0, "process grid entries must be positive");
    coord[d + 1] = rest % p;
    rest /= p;
  }
  DEISA_CHECK(rest == 0, "rank " << rank << " outside process grid");
  // Process grid must tile the chunk grid.
  const array::ChunkGrid g = va.grid();
  for (std::size_t d = 0; d < proc_grid.size(); ++d)
    DEISA_CHECK(g.chunks_in(d + 1) == proc_grid[d],
                "process grid dim " << d << " (" << proc_grid[d]
                                    << ") does not match chunk grid ("
                                    << g.chunks_in(d + 1) << ")");
  return coord;
}

}  // namespace deisa::core
