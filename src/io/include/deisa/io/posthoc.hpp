// Post-hoc (plain Dask) baseline: the simulation writes chunked datasets
// to the parallel file system; the analytics later reads them back
// through read tasks. This is the "DASK" configuration of the paper's
// evaluation.
#pragma once

#include <optional>

#include "deisa/io/h5mini.hpp"
#include "deisa/io/pfs.hpp"
#include "deisa/ml/insitu.hpp"

namespace deisa::io {

/// A chunked dataset on the modeled PFS, optionally backed by a real
/// h5mini container for functional runs.
struct PosthocDataset {
  PosthocDataset() = default;
  PosthocDataset(std::string path_, array::ChunkGrid grid_)
      : path(std::move(path_)), grid(std::move(grid_)) {}

  std::string path;       // logical PFS path (one file per timestep)
  array::ChunkGrid grid;  // spatiotemporal grid (dim 0 = time)
  std::optional<H5Mini> file;  // real storage (functional mode)

  /// Bytes of the chunk at `coord`.
  std::uint64_t chunk_bytes(const array::Index& coord) const;
  /// Logical PFS path of the file holding timestep t.
  std::string step_path(std::int64_t t) const;
};

/// Simulation-side writer: one call per rank per timestep.
class PosthocWriter {
public:
  PosthocWriter(Pfs& pfs, PosthocDataset* ds) : pfs_(&pfs), ds_(ds) {}

  /// Write the block at chunk coordinate `coord` (time included). Charges
  /// PFS time; also persists to the real container when present.
  exec::Co<void> write_block(const array::Index& coord,
                            const array::NDArray* data = nullptr);

private:
  Pfs* pfs_;
  PosthocDataset* ds_;
};

/// Analytics-side chunk provider: one read task per chunk per submission.
/// Fresh keys per submission reproduce plain Dask's behaviour where
/// separately-submitted graphs cannot share loaded data.
class PosthocReadProvider final : public ml::ChunkProvider {
public:
  PosthocReadProvider(Pfs& pfs, const PosthocDataset* ds)
      : pfs_(&pfs), ds_(ds) {}

  const array::ChunkGrid& grid() const override { return ds_->grid; }
  std::vector<dts::Key> chunks(int submission, std::int64_t t,
                               std::vector<dts::TaskSpec>& tasks) override;

  std::uint64_t read_tasks_created() const { return read_tasks_created_; }

private:
  Pfs* pfs_;
  const PosthocDataset* ds_;
  std::uint64_t read_tasks_created_ = 0;
};

}  // namespace deisa::io
