// Kernel pieces shared by the linalg sources (private to src/linalg).
#pragma once

#include <cstring>

#include "deisa/linalg/matrix.hpp"

namespace deisa::linalg {

// Two doubles in one SSE2 register: GCC's vector extension, which Clang
// also accepts. Lane-wise +, - and * are the scalar IEEE operations, so a
// tile of these computes every element exactly as a scalar loop would.
// GCC keeps such a tile in registers; over plain double arrays it left
// the same tile scalar, with spills.
typedef double Pair __attribute__((vector_size(16)));

/// Unaligned load and store of a Pair, or of one double.
template <typename T>
T load(const double* p) {
  T v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

template <typename T>
void store(double* p, T v) {
  std::memcpy(p, &v, sizeof v);
}

/// C = A * B, each element summed in ascending k from +0.0. With
/// skip_zero a zero b(k, j) adds no term (matmul's rule); without it every
/// term is added (matmul_tn's, which is multiply(A^T, B, false)). The
/// caller checks the shapes.
Matrix multiply(const Matrix& a, const Matrix& b, bool skip_zero);

}  // namespace deisa::linalg
