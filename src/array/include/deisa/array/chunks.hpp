// Chunk geometry of a distributed array: a regular grid decomposition of
// an n-d index space, identical on the simulation side (one block per MPI
// rank per timestep) and the analytics side (one task/chunk per block),
// plus the naming scheme mapping chunk coordinates to task keys (§2.4.1).
#pragma once

#include <string>
#include <string_view>

#include "deisa/array/ndarray.hpp"

namespace deisa::array {

/// Regular chunking of an n-d shape. Every dimension d is split into
/// ceil(shape[d]/chunk[d]) chunks; the last chunk of a dimension may be
/// smaller.
class ChunkGrid {
public:
  ChunkGrid() = default;
  ChunkGrid(Index shape, Index chunk_shape);

  const Index& shape() const { return shape_; }
  const Index& chunk_shape() const { return chunk_; }
  std::size_t ndim() const { return shape_.size(); }

  /// Number of chunks along dimension d.
  std::int64_t chunks_in(std::size_t d) const;
  /// Total number of chunks.
  std::int64_t num_chunks() const;

  /// Bounding box (global coordinates) of the chunk at grid coordinate c.
  Box box_of(const Index& c) const;
  /// Grid coordinate of chunk number `linear` (row-major over the grid).
  Index coord_of(std::int64_t linear) const;
  std::int64_t linear_of(const Index& c) const;

  /// Grid coordinates of every chunk intersecting `box` (row-major order).
  std::vector<Index> chunks_overlapping(const Box& box) const;
  /// The chunks of timestep `t` (row-major order): dimension 0 is time,
  /// chunked one step per chunk (checked), so a step is the slab
  /// [t, t + 1) along it. Every analytics graph walks its input this way.
  std::vector<Index> step_chunks(std::int64_t t) const;

  bool operator==(const ChunkGrid& other) const = default;

private:
  Index shape_;
  Index chunk_;
};

/// Naming scheme of §2.4.1: (prefix-name, (t, i, j)) rendered as a single
/// string key, e.g. "deisa-temp|3,1,5".
std::string chunk_key(const std::string& prefix, const std::string& name,
                      const Index& coord);

/// Renders chunk keys that share one (prefix, name) stem into a reused
/// buffer: the "prefix+name|" part is concatenated once at construction
/// and render() appends the coordinates with to_chars, so per-key cost is
/// a few digit writes instead of a string allocation per component. The
/// returned reference is valid until the next render(); callers copy it
/// only where an owning Key is needed (e.g. into a message).
class ChunkKeyBuilder {
public:
  ChunkKeyBuilder() = default;
  ChunkKeyBuilder(std::string_view prefix, std::string_view name);

  const std::string& render(const Index& coord);

private:
  std::string buf_;
  std::size_t stem_ = 0;
};

/// A rectangular selection (contract filter): per-dimension [start, stop).
struct Selection {
  Selection() = default;
  explicit Selection(Box box_) : box(std::move(box_)) {}
  Box box;

  /// Full-array selection (the `[...]` of Listing 2).
  static Selection all(const Index& shape);
};

}  // namespace deisa::array
