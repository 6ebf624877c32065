#include "deisa/linalg/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "deisa/util/error.hpp"
#include "kernel.hpp"

namespace deisa::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

Matrix Matrix::from_rows(
    std::initializer_list<std::initializer_list<double>> rows) {
  const std::size_t nr = rows.size();
  DEISA_CHECK(nr > 0, "from_rows needs at least one row");
  const std::size_t nc = rows.begin()->size();
  Matrix m(nr, nc);
  std::size_t i = 0;
  for (const auto& r : rows) {
    DEISA_CHECK(r.size() == nc, "ragged rows in from_rows");
    std::size_t j = 0;
    for (double v : r) m(i, j++) = v;
    ++i;
  }
  return m;
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::from_row_major(std::size_t rows, std::size_t cols,
                              std::span<const double> values) {
  DEISA_CHECK(values.size() == rows * cols,
              "from_row_major size mismatch: " << values.size() << " values "
                                               << "for " << rows << "x"
                                               << cols);
  Matrix m(rows, cols);
  const double* src = values.data();
  for (std::size_t j = 0; j < cols; ++j) {
    const auto mj = m.col(j);
    const double* sp = src + j;
    for (std::size_t i = 0; i < rows; ++i) {
      mj[i] = *sp;
      sp += cols;
    }
  }
  return m;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t j = 0; j < cols_; ++j) {
    const auto src = col(j);
    double* dst = t.data().data() + j;
    for (std::size_t i = 0; i < rows_; ++i) dst[i * cols_] = src[i];
  }
  return t;
}

Matrix Matrix::vstack(const Matrix& below) const {
  if (empty()) return below;
  if (below.empty()) return *this;
  DEISA_CHECK(cols_ == below.cols_, "vstack column mismatch: "
                                        << cols_ << " vs " << below.cols_);
  Matrix out(rows_ + below.rows_, cols_);
  for (std::size_t j = 0; j < cols_; ++j) {
    const auto a = col(j);
    const auto b = below.col(j);
    const auto o = out.col(j);
    std::copy(a.begin(), a.end(), o.begin());
    std::copy(b.begin(), b.end(),
              o.begin() + static_cast<std::ptrdiff_t>(rows_));
  }
  return out;
}

Matrix Matrix::block(std::size_t r0, std::size_t c0, std::size_t nr,
                     std::size_t nc) const {
  DEISA_CHECK(r0 + nr <= rows_ && c0 + nc <= cols_,
              "block out of range: (" << r0 << "," << c0 << ")+(" << nr << ","
                                      << nc << ") in " << rows_ << "x"
                                      << cols_);
  Matrix out(nr, nc);
  for (std::size_t j = 0; j < nc; ++j) {
    const auto src = col(c0 + j).subspan(r0, nr);
    std::copy(src.begin(), src.end(), out.col(j).begin());
  }
  return out;
}

namespace {

constexpr std::size_t kTileCols = 6;

// Columns [0, cols) of a depth x n B, k-major: b(k, j) broadcast into
// both lanes at [k * cols + j], and has_zero[k] set where one of row k's
// entries is 0.
void pack_b(const double* b, std::size_t depth, std::size_t cols,
            std::vector<Pair>& bb, std::vector<char>& has_zero) {
  std::fill(has_zero.begin(), has_zero.end(), 0);
  for (std::size_t j = 0; j < cols; ++j)
    for (std::size_t k = 0; k < depth; ++k) {
      const double v = b[j * depth + k];
      bb[k * cols + j] = Pair{v, v};
      has_zero[k] |= v == 0.0;
    }
}

// One register tile of C: W pairs of rows by kCols columns. Each step k
// loads W pairs of A's column k (element (i, k) at a[k * lda + i]) and
// multiplies them by kCols packed entries of B's row k, so one pass over
// the depth feeds 2 W kCols independent sums. Every element's sum starts
// at +0.0 and adds its terms in ascending k; with kSkipZero a zero
// b(k, j) adds no term (tested entry by entry only on the rows has_zero
// marks), so 0 * inf puts no NaN into the sum.
template <int W, int kCols, bool kSkipZero>
void tile(const double* a, std::size_t lda, const Pair* bb,
          const char* has_zero, std::size_t depth, double* c,
          std::size_t ldc) {
  Pair acc[kCols][W] = {};
  for (std::size_t k = 0; k < depth; ++k) {
    Pair ak[W];
    for (int w = 0; w < W; ++w) ak[w] = load<Pair>(a + k * lda + 2 * w);
    const Pair* bk = bb + k * kCols;
    if (kSkipZero && has_zero[k]) {
      for (int j = 0; j < kCols; ++j)
        if (bk[j][0] != 0.0)
          for (int w = 0; w < W; ++w) acc[j][w] += ak[w] * bk[j];
      continue;
    }
    for (int j = 0; j < kCols; ++j)
      for (int w = 0; w < W; ++w) acc[j][w] += ak[w] * bk[j];
  }
  for (int j = 0; j < kCols; ++j)
    for (int w = 0; w < W; ++w) store(c + j * ldc + 2 * w, acc[j][w]);
}

// The same sums for one row (an odd last row of C).
template <int kCols, bool kSkipZero>
void row(const double* a, std::size_t lda, const Pair* bb, std::size_t depth,
         double* c, std::size_t ldc) {
  double acc[kCols] = {};
  for (std::size_t k = 0; k < depth; ++k)
    for (int j = 0; j < kCols; ++j) {
      const double bkj = bb[k * kCols + j][0];
      if (kSkipZero && bkj == 0.0) continue;
      acc[j] += a[k * lda] * bkj;
    }
  for (int j = 0; j < kCols; ++j) c[j * ldc] = acc[j];
}

// C's columns [0, kCols) over all m rows of A (m x depth, column-major),
// from one packed column tile of B; C has leading dimension m.
template <int kCols, bool kSkipZero>
void column_tile(const double* a, std::size_t m, const Pair* bb,
                 const char* has_zero, std::size_t depth, double* c) {
  std::size_t i = 0;
  for (; i + 4 <= m; i += 4)
    tile<2, kCols, kSkipZero>(a + i, m, bb, has_zero, depth, c + i, m);
  if (i + 2 <= m) {
    tile<1, kCols, kSkipZero>(a + i, m, bb, has_zero, depth, c + i, m);
    i += 2;
  }
  if (i < m) row<kCols, kSkipZero>(a + i, m, bb, depth, c + i, m);
}

template <bool kSkipZero>
void gemm(const Matrix& a, const Matrix& b, Matrix& c) {
  const std::size_t m = a.rows();
  const std::size_t depth = b.rows();
  const double* ad = a.data().data();
  std::vector<Pair> bb(depth * kTileCols);
  std::vector<char> has_zero(depth);
  for (std::size_t j = 0; j < b.cols(); j += kTileCols) {
    const std::size_t cols = std::min(kTileCols, b.cols() - j);
    pack_b(b.col(j).data(), depth, cols, bb, has_zero);
    double* cj = c.col(j).data();
    switch (cols) {
      case 6: column_tile<6, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
      case 5: column_tile<5, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
      case 4: column_tile<4, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
      case 3: column_tile<3, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
      case 2: column_tile<2, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
      default: column_tile<1, kSkipZero>(ad, m, bb.data(), has_zero.data(), depth, cj); break;
    }
  }
}

}  // namespace

Matrix multiply(const Matrix& a, const Matrix& b, bool skip_zero) {
  Matrix c(a.rows(), b.cols());
  if (c.empty() || b.rows() == 0) return c;
  if (skip_zero)
    gemm<true>(a, b, c);
  else
    gemm<false>(a, b, c);
  return c;
}

Matrix matmul(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.cols() == b.rows(), "matmul shape mismatch: "
                                        << a.rows() << "x" << a.cols() << " * "
                                        << b.rows() << "x" << b.cols());
  return multiply(a, b, true);
}

Matrix matmul_tn(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.rows() == b.rows(), "matmul_tn shape mismatch");
  // A^T's row i is A's column i, laid out as matmul reads A's rows.
  return multiply(a.transposed(), b, false);
}

double dot(std::span<const double> a, std::span<const double> b) {
  DEISA_CHECK(a.size() == b.size(), "dot length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  DEISA_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  double m = 0.0;
  auto ad = a.data();
  auto bd = b.data();
  for (std::size_t i = 0; i < ad.size(); ++i)
    m = std::max(m, std::abs(ad[i] - bd[i]));
  return m;
}

}  // namespace deisa::linalg
