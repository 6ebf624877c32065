// h5mini: a chunked n-dimensional array container with real file I/O —
// the role HDF5 chunked datasets play in the paper's post-hoc baseline
// ("We have chunked the HDF5 files and used the same chunking in the
// analytics"). A dataset is a directory holding a YAML header plus one
// raw little-endian double file per chunk, addressable by chunk
// coordinate without reading the rest of the dataset.
#pragma once

#include <filesystem>
#include <string>

#include "deisa/array/chunks.hpp"

namespace deisa::io {

class H5Mini {
public:
  /// Create a dataset directory (truncates an existing one).
  static H5Mini create(const std::filesystem::path& dir, array::Index shape,
                       array::Index chunk_shape);
  /// Open an existing dataset.
  static H5Mini open(const std::filesystem::path& dir);

  const array::ChunkGrid& grid() const { return grid_; }
  const std::filesystem::path& dir() const { return dir_; }

  /// Path of one chunk file (exists after write_chunk).
  std::filesystem::path chunk_path(const array::Index& coord) const;

  /// Write a chunk; shape must match the grid's box for `coord`.
  void write_chunk(const array::Index& coord, const array::NDArray& data);
  /// Read one chunk back.
  array::NDArray read_chunk(const array::Index& coord) const;

private:
  H5Mini(std::filesystem::path dir, array::ChunkGrid grid)
      : dir_(std::move(dir)), grid_(std::move(grid)) {}

  std::filesystem::path dir_;
  array::ChunkGrid grid_;
};

}  // namespace deisa::io
