#include "deisa/io/posthoc.hpp"

namespace deisa::io {

namespace arr = array;

std::uint64_t PosthocDataset::chunk_bytes(const arr::Index& coord) const {
  return static_cast<std::uint64_t>(grid.box_of(coord).volume()) *
         sizeof(double);
}

std::string PosthocDataset::step_path(std::int64_t t) const {
  return path + "/step-" + std::to_string(t);
}

exec::Co<void> PosthocWriter::write_block(const arr::Index& coord,
                                         const arr::NDArray* data) {
  DEISA_CHECK(!coord.empty(), "empty chunk coordinate");
  if (data != nullptr && ds_->file.has_value())
    ds_->file->write_chunk(coord, *data);
  co_await pfs_->write(ds_->step_path(coord[0]), ds_->chunk_bytes(coord));
}

std::vector<dts::Key> PosthocReadProvider::chunks(
    int submission, std::int64_t t, std::vector<dts::TaskSpec>& tasks) {
  std::vector<dts::Key> keys;
  for (const arr::Index& coord : ds_->grid.step_chunks(t)) {
    const std::uint64_t bytes = ds_->chunk_bytes(coord);
    dts::Key key = "ph-read/s" + std::to_string(submission) + "/" +
                   arr::chunk_key("", "c", coord);
    ++read_tasks_created_;

    dts::TaskFn fn;
    if (ds_->file.has_value()) {
      const H5Mini file = *ds_->file;  // cheap handle copy (path + grid)
      fn = [file, coord](const std::vector<dts::Data>&) {
        arr::NDArray chunk = file.read_chunk(coord);
        const std::uint64_t b = chunk.bytes();
        return dts::Data::make<arr::NDArray>(std::move(chunk), b);
      };
    }
    dts::TaskSpec spec(key, {}, std::move(fn), /*cost=*/0.0,
                       /*out_bytes=*/bytes);
    // Reading charges PFS time with contention across concurrent reads.
    Pfs* pfs = pfs_;
    const std::string path = ds_->step_path(t);
    spec.io = [pfs, path, bytes]() -> exec::Co<void> {
      co_await pfs->read(path, bytes);
    };
    tasks.push_back(std::move(spec));
    keys.push_back(std::move(key));
  }
  return keys;
}

}  // namespace deisa::io
