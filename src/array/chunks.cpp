#include "deisa/array/chunks.hpp"

#include <charconv>

#include "deisa/util/error.hpp"

namespace deisa::array {

ChunkGrid::ChunkGrid(Index shape, Index chunk_shape)
    : shape_(std::move(shape)), chunk_(std::move(chunk_shape)) {
  DEISA_CHECK(shape_.size() == chunk_.size(),
              "shape and chunk rank mismatch: " << shape_.size() << " vs "
                                                << chunk_.size());
  for (std::size_t d = 0; d < shape_.size(); ++d) {
    DEISA_CHECK(shape_[d] > 0, "dimension " << d << " must be positive");
    DEISA_CHECK(chunk_[d] > 0 && chunk_[d] <= shape_[d],
                "chunk size in dim " << d << " must be in [1, " << shape_[d]
                                     << "], got " << chunk_[d]);
  }
}

std::int64_t ChunkGrid::chunks_in(std::size_t d) const {
  return (shape_[d] + chunk_[d] - 1) / chunk_[d];
}

std::int64_t ChunkGrid::num_chunks() const {
  std::int64_t n = 1;
  for (std::size_t d = 0; d < shape_.size(); ++d) n *= chunks_in(d);
  return n;
}

Box ChunkGrid::box_of(const Index& c) const {
  DEISA_CHECK(c.size() == ndim(), "chunk coordinate rank mismatch");
  Box box;
  box.lo.resize(ndim());
  box.hi.resize(ndim());
  for (std::size_t d = 0; d < ndim(); ++d) {
    DEISA_CHECK(c[d] >= 0 && c[d] < chunks_in(d),
                "chunk coordinate " << c[d] << " out of range in dim " << d);
    box.lo[d] = c[d] * chunk_[d];
    box.hi[d] = std::min(shape_[d], box.lo[d] + chunk_[d]);
  }
  return box;
}

Index ChunkGrid::coord_of(std::int64_t linear) const {
  DEISA_CHECK(linear >= 0 && linear < num_chunks(),
              "linear chunk index out of range: " << linear);
  Index c(ndim());
  for (std::size_t d = ndim(); d-- > 0;) {
    const std::int64_t n = chunks_in(d);
    c[d] = linear % n;
    linear /= n;
  }
  return c;
}

std::int64_t ChunkGrid::linear_of(const Index& c) const {
  DEISA_CHECK(c.size() == ndim(), "chunk coordinate rank mismatch");
  std::int64_t linear = 0;
  for (std::size_t d = 0; d < ndim(); ++d) {
    DEISA_CHECK(c[d] >= 0 && c[d] < chunks_in(d),
                "chunk coordinate out of range in dim " << d);
    linear = linear * chunks_in(d) + c[d];
  }
  return linear;
}

std::vector<Index> ChunkGrid::chunks_overlapping(const Box& box) const {
  DEISA_CHECK(box.ndim() == ndim(), "box rank mismatch");
  Index lo(ndim());
  Index hi(ndim());
  for (std::size_t d = 0; d < ndim(); ++d) {
    const std::int64_t b_lo = std::max<std::int64_t>(0, box.lo[d]);
    const std::int64_t b_hi = std::min(shape_[d], box.hi[d]);
    if (b_lo >= b_hi) return {};
    lo[d] = b_lo / chunk_[d];
    hi[d] = (b_hi - 1) / chunk_[d] + 1;
  }
  std::vector<Index> out;
  Index c = lo;
  while (true) {
    out.push_back(c);
    std::size_t d = ndim();
    bool done = true;
    while (d-- > 0) {
      if (++c[d] < hi[d]) {
        done = false;
        break;
      }
      c[d] = lo[d];
      if (d == 0) break;
    }
    if (done) break;
  }
  return out;
}

std::vector<Index> ChunkGrid::step_chunks(std::int64_t t) const {
  DEISA_CHECK(ndim() > 0 && chunk_[0] == 1,
              "time dimension must be chunked per timestep");
  Box slab;
  slab.lo.assign(ndim(), 0);
  slab.hi = shape_;
  slab.lo[0] = t;
  slab.hi[0] = t + 1;
  return chunks_overlapping(slab);
}

std::string chunk_key(const std::string& prefix, const std::string& name,
                      const Index& coord) {
  ChunkKeyBuilder builder(prefix, name);
  return builder.render(coord);
}

ChunkKeyBuilder::ChunkKeyBuilder(std::string_view prefix,
                                 std::string_view name) {
  buf_.reserve(prefix.size() + name.size() + 1 + 24);
  buf_.append(prefix);
  buf_.append(name);
  buf_.push_back('|');
  stem_ = buf_.size();
}

const std::string& ChunkKeyBuilder::render(const Index& coord) {
  buf_.resize(stem_);
  char digits[24];
  for (std::size_t d = 0; d < coord.size(); ++d) {
    if (d > 0) buf_.push_back(',');
    const auto [end, ec] =
        std::to_chars(digits, digits + sizeof digits, coord[d]);
    DEISA_ASSERT(ec == std::errc(), "coordinate render failed");
    buf_.append(digits, end);
  }
  return buf_;
}

Selection Selection::all(const Index& shape) {
  Box box;
  box.lo.assign(shape.size(), 0);
  box.hi = shape;
  return Selection(std::move(box));
}

}  // namespace deisa::array
