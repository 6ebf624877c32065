#include "deisa/linalg/decomp.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "deisa/util/error.hpp"
#include "deisa/util/rng.hpp"
#include "kernel.hpp"

namespace deisa::linalg {

namespace {

// Applies H = I - 2 v v^T, where v covers rows [k, m), to kCount lane
// groups of columns of a row-major matrix (x points at row k of the first
// column, rows ld apart). One pass over the rows sums every column's
// v . x(:, j) in ascending row order from +0.0; a second subtracts
// (2 (v . x(:, j))) v from each column.
template <typename T, int kCount>
void reflect(std::span<const double> v, double* x, std::size_t ld) {
  constexpr std::size_t kLanes = sizeof(T) / sizeof(double);
  T proj[kCount] = {};
  for (std::size_t i = 0; i < v.size(); ++i)
    for (int c = 0; c < kCount; ++c)
      proj[c] += v[i] * load<T>(x + i * ld + c * kLanes);
  for (int c = 0; c < kCount; ++c) proj[c] *= 2.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    // Read before the row's stores, which the compiler cannot tell apart
    // from v.
    const double vi = v[i];
    for (int c = 0; c < kCount; ++c) {
      double* xc = x + i * ld + c * kLanes;
      store(xc, load<T>(xc) - proj[c] * vi);
    }
  }
}

// Applies H = I - 2 v v^T, where v covers rows [k, m), to the columns
// [k, n) of the row-major m x n matrix x, in pairs of columns from the
// even column at or below k and up to six pairs per pass over v. The
// column k - 1 that an odd k adds changes only in rows [k, m): below R's
// diagonal, and +0.0 that stays +0.0 in Q.
void reflect_columns(std::span<const double> v, std::size_t k, double* x,
                     std::size_t n) {
  double* row_k = x + k * n;
  std::size_t j = k - k % 2;
  for (; j + 12 <= n; j += 12) reflect<Pair, 6>(v, row_k + j, n);
  switch ((n - j) / 2) {
    case 5: reflect<Pair, 5>(v, row_k + j, n); break;
    case 4: reflect<Pair, 4>(v, row_k + j, n); break;
    case 3: reflect<Pair, 3>(v, row_k + j, n); break;
    case 2: reflect<Pair, 2>(v, row_k + j, n); break;
    case 1: reflect<Pair, 1>(v, row_k + j, n); break;
    default: break;
  }
  if ((n - j) % 2 == 1) reflect<double, 1>(v, row_k + n - 1, n);
}

}  // namespace

QrResult qr_thin(const Matrix& a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DEISA_CHECK(m >= n, "qr_thin requires rows >= cols, got " << m << "x" << n);
  // R is reduced in place in row-major order, so that the columns of one
  // row sit side by side in pairs.
  std::vector<double> r(m * n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto aj = a.col(j);
    for (std::size_t i = 0; i < m; ++i) r[i * n + j] = aj[i];
  }
  // Reflector k in rows [k, m) of column k; a zero column keeps the
  // all-zero (identity) reflector.
  Matrix vs(m, n);

  for (std::size_t k = 0; k < n; ++k) {
    // Build the reflector for column k below the diagonal.
    const auto v = vs.col(k).subspan(k);
    for (std::size_t i = k; i < m; ++i) v[i - k] = r[i * n + k];
    const double alpha = norm2(v);
    if (alpha == 0.0) {
      std::fill(v.begin(), v.end(), 0.0);
      continue;
    }
    const double sign = v[0] >= 0.0 ? 1.0 : -1.0;
    v[0] += sign * alpha;
    const double vnorm = norm2(v);
    if (vnorm > 0.0)
      for (double& x : v) x /= vnorm;
    // Apply H = I - 2 v v^T to the trailing block of R.
    reflect_columns(v, k, r.data(), n);
  }

  // Q = H_0 H_1 ... H_{n-1} * [I_n; 0]  (thin), row-major like R.
  // Reflector k leaves the columns j < k at +0.0 in rows [k, m), and the
  // zero reflector (v[0] is 0 only for it) leaves every column as it is,
  // so neither is applied.
  std::vector<double> qr(m * n, 0.0);
  for (std::size_t j = 0; j < n; ++j) qr[j * n + j] = 1.0;
  for (std::size_t k = n; k-- > 0;) {
    const auto v = vs.col(k).subspan(k);
    if (v[0] != 0.0) reflect_columns(v, k, qr.data(), n);
  }
  Matrix q(m, n);
  for (std::size_t j = 0; j < n; ++j) {
    const auto qj = q.col(j);
    for (std::size_t i = 0; i < m; ++i) qj[i] = qr[i * n + j];
  }

  // Zero the sub-diagonal noise of R and truncate to n x n.
  Matrix r_out(n, n);
  for (std::size_t j = 0; j < n; ++j)
    for (std::size_t i = 0; i <= j; ++i) r_out(i, j) = r[i * n + j];
  return {std::move(q), std::move(r_out)};
}

namespace {

// The three sums a Jacobi rotation of columns (p, q) is decided on, each
// its own ascending sum from +0.0. Products come two rows at a time in
// Pairs and are added lane by lane, low row first.
struct Dots {
  double alpha = 0.0;  // ap . ap
  double beta = 0.0;   // aq . aq
  double gamma = 0.0;  // ap . aq

  static double lane(double x, std::size_t) { return x; }
  static double lane(Pair x, std::size_t l) { return x[l]; }

  template <typename T>
  void add(T x, T y) {
    const T xx = x * x;
    const T yy = y * y;
    const T xy = x * y;
    for (std::size_t l = 0; l < sizeof(T) / sizeof(double); ++l) {
      alpha += lane(xx, l);
      beta += lane(yy, l);
      gamma += lane(xy, l);
    }
  }
};

/// One-sided Jacobi on an m x n matrix with m >= n: rotates column pairs
/// until all are pairwise orthogonal. Returns U (m x n), s (n), V (n x n).
SvdResult jacobi_tall(Matrix a) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DEISA_ASSERT(m >= n, "jacobi_tall requires m >= n");
  Matrix v = Matrix::identity(n);

  const std::size_t body = m - m % 2;
  const auto dots = [m, body](const double* ap, const double* aq) {
    Dots d;
    for (std::size_t i = 0; i < body; i += 2)
      d.add(load<Pair>(ap + i), load<Pair>(aq + i));
    if (body < m) d.add(ap[body], aq[body]);
    return d;
  };

  constexpr int kMaxSweeps = 64;
  constexpr double kTol = 1e-14;
  for (int sweep = 0; sweep < kMaxSweeps; ++sweep) {
    bool rotated = false;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      double* ap = a.col(p).data();
      Dots d = dots(ap, a.col(p + 1).data());
      for (std::size_t q = p + 1; q < n; ++q) {
        double* aq = a.col(q).data();
        // Column q + 1 of the next pair, which this pair leaves as it is
        // (column q after the last pair, whose next sums go unused).
        const double* an = a.col(q + 1 < n ? q + 1 : q).data();
        if (std::abs(d.gamma) <= kTol * std::sqrt(d.alpha * d.beta)) {
          if (q + 1 < n) d = dots(ap, an);
          continue;
        }
        rotated = true;
        const double zeta = (d.beta - d.alpha) / (2.0 * d.gamma);
        const double t = (zeta >= 0.0 ? 1.0 : -1.0) /
                         (std::abs(zeta) + std::sqrt(1.0 + zeta * zeta));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        // Rotate, and sum the next pair's dots over the rotated column p
        // in the same pass.
        Dots next;
        const auto rotate = [&](auto x, auto y, double* xp, double* yp) {
          const auto xr = c * x - s * y;
          store(xp, xr);
          store(yp, s * x + c * y);
          return xr;
        };
        for (std::size_t i = 0; i < body; i += 2) {
          const Pair xr = rotate(load<Pair>(ap + i), load<Pair>(aq + i),
                                 ap + i, aq + i);
          next.add(xr, load<Pair>(an + i));
        }
        if (body < m)
          next.add(rotate(ap[body], aq[body], ap + body, aq + body), an[body]);
        d = next;
        for (std::size_t i = 0; i < n; ++i) {
          const double x = v(i, p);
          const double y = v(i, q);
          v(i, p) = c * x - s * y;
          v(i, q) = s * x + c * y;
        }
      }
    }
    if (!rotated) break;
  }

  // Singular values are the column norms; normalized columns are U.
  std::vector<double> s(n);
  for (std::size_t j = 0; j < n; ++j) s[j] = norm2(a.col(j));

  // Sort by descending singular value.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return s[x] > s[y]; });
  SvdResult out;
  out.u = Matrix(m, n);
  out.v = Matrix(n, n);
  out.s.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::size_t src = order[j];
    const double nj = s[src];
    out.s[j] = nj;
    if (nj > 0.0)
      for (std::size_t i = 0; i < m; ++i) out.u(i, j) = a(i, src) / nj;
    for (std::size_t i = 0; i < n; ++i) out.v(i, j) = v(i, src);
  }
  return out;
}

}  // namespace

SvdResult svd(const Matrix& a) {
  DEISA_CHECK(!a.empty(), "svd of empty matrix");
  if (a.rows() >= a.cols()) return jacobi_tall(a);
  // A = U S V^T  <=>  A^T = V S U^T.
  SvdResult t = jacobi_tall(a.transposed());
  SvdResult out;
  out.u = std::move(t.v);
  out.v = std::move(t.u);
  out.s = std::move(t.s);
  return out;
}

SvdResult randomized_svd(const Matrix& a, std::size_t k, std::size_t oversample,
                         std::size_t power_iters, std::uint64_t seed) {
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  DEISA_CHECK(k >= 1, "randomized_svd needs k >= 1");
  const std::size_t rank_cap = std::min(m, n);
  k = std::min(k, rank_cap);
  const std::size_t p = std::min(k + oversample, rank_cap);

  util::Rng rng(seed);
  Matrix omega(n, p);
  for (double& x : omega.data()) x = rng.normal();

  // A^T once, for every product with it below: multiply(at, q, false) is
  // matmul_tn(a, q) sum for sum.
  const Matrix at = a.transposed();
  Matrix q = qr_thin(matmul(a, omega)).q;  // m x p
  for (std::size_t it = 0; it < power_iters; ++it) {
    const Matrix z = qr_thin(multiply(at, q, false)).q;  // n x p
    q = qr_thin(matmul(a, z)).q;
  }
  // Q^T A as (A^T Q)^T: the same products, each sum in the same order.
  const Matrix b = multiply(at, q, false).transposed();  // p x n
  SvdResult small = svd(b);
  SvdResult out;
  out.u = matmul(q, small.u.block(0, 0, p, std::min(k, small.u.cols())));
  const std::size_t kk = std::min(k, small.s.size());
  out.s.assign(small.s.begin(), small.s.begin() + static_cast<long>(kk));
  out.v = small.v.block(0, 0, n, kk);
  return out;
}

Matrix svd_reconstruct(const SvdResult& r) {
  Matrix us = r.u;
  for (std::size_t j = 0; j < us.cols(); ++j) {
    auto cj = us.col(j);
    for (double& x : cj) x *= r.s[j];
  }
  return matmul(us, r.v.transposed());
}

}  // namespace deisa::linalg
