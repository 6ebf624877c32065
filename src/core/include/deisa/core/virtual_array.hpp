// DEISA virtual arrays (§2.4.2): descriptors of the spatiotemporal
// decomposition of data the simulation will produce — global sizes
// (time dimension included), per-block subsizes, and the timedim tag.
// Built either programmatically or from the PDI deisa-plugin YAML
// (Listing 1).
#pragma once

#include <string>

#include "deisa/array/chunks.hpp"
#include "deisa/config/expr.hpp"
#include "deisa/config/node.hpp"

namespace deisa::core {

struct VirtualArray {
  VirtualArray() = default;
  VirtualArray(std::string name_, array::Index shape_, array::Index subsize_,
               int timedim_ = 0)
      : name(std::move(name_)),
        shape(std::move(shape_)),
        subsize(std::move(subsize_)),
        timedim(timedim_) {
    validate();
  }

  std::string name;      // e.g. "G_temp"
  array::Index shape;    // global sizes, time dimension included
  array::Index subsize;  // block (chunk) sizes; time extent must be 1
  int timedim = 0;       // which dimension is time

  /// The implied chunk grid (time-major: dimension 0 is time).
  array::ChunkGrid grid() const;

  /// Bytes of one block.
  std::uint64_t block_bytes() const;

  /// Parse one entry of the plugin's `deisa_arrays:` map. Expressions are
  /// evaluated against `env` ($cfg, $rank, ...; the time-dimension size
  /// uses $cfg.maxTimeStep-style expressions).
  static VirtualArray from_config(const std::string& name,
                                  const config::Node& node,
                                  const config::Env& env);

  void validate() const;
  bool operator==(const VirtualArray& other) const = default;
};

/// Chunk coordinate of the block owned by `rank` at timestep `t`, given a
/// process grid decomposition `proc` over the spatial dimensions (the
/// Listing-1 layout: rank = proc-grid row-major, spatial dims follow the
/// time dimension).
array::Index block_coord(const VirtualArray& va,
                         const std::vector<int>& proc_grid, int rank,
                         std::int64_t t);

}  // namespace deisa::core
