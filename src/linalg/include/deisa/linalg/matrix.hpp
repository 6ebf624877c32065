// Dense column-major double matrix used by the PCA/IPCA analytics.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace deisa::linalg {

class Matrix {
public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  /// Row-major convenience constructor for tests:
  /// Matrix::from_rows({{1,2},{3,4}}).
  static Matrix from_rows(
      std::initializer_list<std::initializer_list<double>> rows);
  static Matrix identity(std::size_t n);
  /// Build from a contiguous row-major buffer of rows*cols doubles (the
  /// NDArray layout): transposes into column-major storage column by
  /// column, without per-element index vectors.
  static Matrix from_row_major(std::size_t rows, std::size_t cols,
                               std::span<const double> values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  double& operator()(std::size_t i, std::size_t j) {
    return data_[j * rows_ + i];
  }
  double operator()(std::size_t i, std::size_t j) const {
    return data_[j * rows_ + i];
  }

  /// Contiguous storage of column j.
  std::span<double> col(std::size_t j) {
    return {data_.data() + j * rows_, rows_};
  }
  std::span<const double> col(std::size_t j) const {
    return {data_.data() + j * rows_, rows_};
  }

  std::span<double> data() { return data_; }
  std::span<const double> data() const { return data_; }

  Matrix transposed() const;

  /// Vertical concatenation: rows of `below` appended under *this.
  Matrix vstack(const Matrix& below) const;

  /// Extract a block [r0, r0+nr) x [c0, c0+nc).
  Matrix block(std::size_t r0, std::size_t c0, std::size_t nr,
               std::size_t nc) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// C = A * B. Each element sums its terms in ascending k from +0.0 and
/// adds no term for a zero b(k, j), so 0 * inf puts no NaN into it.
Matrix matmul(const Matrix& a, const Matrix& b);
/// C = A^T * B. Each element sums all its terms in ascending k from +0.0.
Matrix matmul_tn(const Matrix& a, const Matrix& b);

double dot(std::span<const double> a, std::span<const double> b);
double norm2(std::span<const double> a);
/// max_ij |a_ij - b_ij|; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

}  // namespace deisa::linalg
