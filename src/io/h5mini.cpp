#include "deisa/io/h5mini.hpp"

#include <fstream>

#include "deisa/config/yaml.hpp"
#include "deisa/util/error.hpp"

namespace deisa::io {

namespace fs = std::filesystem;
using util::Error;

namespace {

std::string render_index(const array::Index& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) s += ", ";
    s += std::to_string(v[i]);
  }
  return s + "]";
}

array::Index index_of(const config::Node& seq) {
  array::Index out;
  for (const auto& e : seq.as_seq()) out.push_back(e.as_int());
  return out;
}

}  // namespace

H5Mini H5Mini::create(const fs::path& dir, array::Index shape,
                      array::Index chunk_shape) {
  array::ChunkGrid grid(std::move(shape), std::move(chunk_shape));
  fs::remove_all(dir);
  fs::create_directories(dir);
  std::ofstream meta(dir / "meta.yaml");
  DEISA_CHECK(meta.good(), "cannot create dataset header in " << dir);
  meta << "format: h5mini-v1\n"
       << "dtype: float64\n"
       << "shape: " << render_index(grid.shape()) << "\n"
       << "chunk: " << render_index(grid.chunk_shape()) << "\n";
  return H5Mini(dir, std::move(grid));
}

H5Mini H5Mini::open(const fs::path& dir) {
  const config::Node meta = config::parse_yaml_file((dir / "meta.yaml").string());
  DEISA_CHECK(meta.get_string("format", "") == "h5mini-v1",
              "not an h5mini dataset: " << dir);
  array::ChunkGrid grid(index_of(meta.at("shape")), index_of(meta.at("chunk")));
  return H5Mini(dir, std::move(grid));
}

fs::path H5Mini::chunk_path(const array::Index& coord) const {
  return dir_ / ("chunk-" + std::to_string(grid_.linear_of(coord)) + ".bin");
}

void H5Mini::write_chunk(const array::Index& coord,
                         const array::NDArray& data) {
  const array::Box box = grid_.box_of(coord);
  for (std::size_t d = 0; d < box.ndim(); ++d)
    DEISA_CHECK(data.shape()[d] == box.extent(d),
                "chunk shape mismatch in dim " << d << " for coord "
                                               << render_index(coord));
  std::ofstream out(chunk_path(coord), std::ios::binary | std::ios::trunc);
  DEISA_CHECK(out.good(), "cannot write chunk file " << chunk_path(coord));
  const auto flat = data.flat();
  out.write(reinterpret_cast<const char*>(flat.data()),
            static_cast<std::streamsize>(flat.size() * sizeof(double)));
  DEISA_CHECK(out.good(), "short write to " << chunk_path(coord));
}

array::NDArray H5Mini::read_chunk(const array::Index& coord) const {
  const array::Box box = grid_.box_of(coord);
  array::Index shape(box.ndim());
  for (std::size_t d = 0; d < box.ndim(); ++d) shape[d] = box.extent(d);
  array::NDArray out(shape);
  std::ifstream in(chunk_path(coord), std::ios::binary);
  DEISA_CHECK(in.good(), "cannot open chunk file " << chunk_path(coord));
  auto flat = out.flat();
  in.read(reinterpret_cast<char*>(flat.data()),
          static_cast<std::streamsize>(flat.size() * sizeof(double)));
  DEISA_CHECK(in.gcount() ==
                  static_cast<std::streamsize>(flat.size() * sizeof(double)),
              "short read from " << chunk_path(coord));
  return out;
}

}  // namespace deisa::io
