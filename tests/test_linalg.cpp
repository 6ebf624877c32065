// Tests for dense linear algebra: matrix ops, QR, Jacobi SVD, randomized
// SVD. Property-style sweeps use parameterized tests over shapes/seeds.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <sstream>

#include "deisa/linalg/decomp.hpp"
#include "deisa/linalg/matrix.hpp"
#include "deisa/util/error.hpp"
#include "deisa/util/rng.hpp"

namespace la = deisa::linalg;
using deisa::util::Rng;

namespace {

la::Matrix random_matrix(std::size_t m, std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  la::Matrix a(m, n);
  for (double& x : a.data()) x = rng.normal();
  return a;
}

/// FNV-1a over the bytes of every double's bit pattern, in storage order.
std::uint64_t fnv1a(std::span<const double> xs) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const double x : xs) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &x, sizeof bits);
    for (int b = 0; b < 8; ++b) {
      h ^= (bits >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

std::string hex(double x) {
  std::ostringstream os;
  os << std::hexfloat << x;
  return os.str();
}

::testing::AssertionResult same_bits(const la::Matrix& got,
                                     const la::Matrix& want) {
  if (!got.same_shape(want))
    return ::testing::AssertionFailure()
           << got.rows() << "x" << got.cols() << " vs " << want.rows() << "x"
           << want.cols();
  for (std::size_t j = 0; j < got.cols(); ++j)
    for (std::size_t i = 0; i < got.rows(); ++i)
      if (!same_bits(got(i, j), want(i, j)))
        return ::testing::AssertionFailure()
               << "element (" << i << ", " << j << "): " << hex(got(i, j))
               << " vs " << hex(want(i, j));
  return ::testing::AssertionSuccess();
}

/// A pinned hash; a failure prints the value to record.
void expect_hash(const la::Matrix& m, std::uint64_t want, const char* what) {
  const std::uint64_t got = fnv1a(m.data());
  EXPECT_EQ(got, want) << what << ": 0x" << std::hex << got << "ull";
}

/// Pinned doubles, compared as bits; a failure prints them as literals.
void expect_bits(const std::vector<double>& got,
                 const std::vector<double>& want, const char* what) {
  bool same = got.size() == want.size();
  for (std::size_t i = 0; same && i < got.size(); ++i)
    same = same_bits(got[i], want[i]);
  std::string literals;
  for (const double x : got) literals += hex(x) + ", ";
  EXPECT_TRUE(same) << what << ": {" << literals << "}";
}

double orthonormality_error(const la::Matrix& q) {
  const la::Matrix qtq = la::matmul_tn(q, q);
  return la::max_abs_diff(qtq, la::Matrix::identity(q.cols()));
}

TEST(Matrix, BasicAccessAndFromRows) {
  const auto a = la::Matrix::from_rows({{1, 2, 3}, {4, 5, 6}});
  EXPECT_EQ(a.rows(), 2u);
  EXPECT_EQ(a.cols(), 3u);
  EXPECT_DOUBLE_EQ(a(0, 1), 2);
  EXPECT_DOUBLE_EQ(a(1, 2), 6);
}

TEST(Matrix, TransposeRoundTrip) {
  const auto a = random_matrix(5, 3, 1);
  EXPECT_DOUBLE_EQ(la::max_abs_diff(a.transposed().transposed(), a), 0.0);
}

TEST(Matrix, MatmulAgainstHandComputed) {
  const auto a = la::Matrix::from_rows({{1, 2}, {3, 4}});
  const auto b = la::Matrix::from_rows({{5, 6}, {7, 8}});
  const auto c = la::matmul(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatmulTnMatchesExplicitTranspose) {
  const auto a = random_matrix(6, 4, 2);
  const auto b = random_matrix(6, 3, 3);
  EXPECT_LT(la::max_abs_diff(la::matmul_tn(a, b),
                             la::matmul(a.transposed(), b)),
            1e-12);
}

// The blocked kernels against a plain loop per output element: each sum
// runs in ascending k from +0.0, and matmul skips zero b(k, j) terms. The
// shapes cover full tiles (4 rows by 6 columns) and every edge: 2- and
// 1-row remainders and 1- to 5-column tiles, up to heat2d-ipca's 195 x 48
// stack times its 12-column sketch. B has zero entries and A an all-zero
// column; an infinity in A meets a zero of B, so a kernel that dropped
// the skip would put 0 * inf = NaN into that sum.
struct Shape {
  std::size_t m, k, n;  // (m x k) * (k x n)
};
const Shape kTileShapes[] = {{1, 1, 1}, {3, 5, 2},     {7, 9, 7},
                             {5, 3, 5}, {6, 4, 3},     {2, 6, 4},
                             {195, 48, 12}, {48, 195, 12}};

TEST(Matrix, MatmulMatchesAscendingOracleBitForBit) {
  std::uint64_t seed = 81;
  for (const auto [m, k, n] : kTileShapes) {
    auto a = random_matrix(m, k, seed++);
    auto b = random_matrix(k, n, seed++);
    for (std::size_t i = 0; i < b.size(); i += 3) b.data()[i] = 0.0;
    if (k > 2)
      for (std::size_t i = 0; i < m; ++i) a(i, 1) = 0.0;
    a(m - 1, 0) = std::numeric_limits<double>::infinity();
    la::Matrix want(m, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::size_t kk = 0; kk < k; ++kk)
          if (b(kk, j) != 0.0) s += a(i, kk) * b(kk, j);
        want(i, j) = s;
      }
    EXPECT_TRUE(same_bits(la::matmul(a, b), want))
        << m << "x" << k << " * " << k << "x" << n;
  }
}

TEST(Matrix, MatmulTnMatchesAscendingOracleBitForBit) {
  std::uint64_t seed = 91;
  for (const auto [m, k, n] : kTileShapes) {
    auto a = random_matrix(k, m, seed++);  // the product is A^T (m x k) * B
    auto b = random_matrix(k, n, seed++);
    for (std::size_t i = 0; i < b.size(); i += 3) b.data()[i] = 0.0;
    if (m > 2)
      for (std::size_t r = 0; r < k; ++r) a(r, 1) = 0.0;
    la::Matrix want(m, n);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t i = 0; i < m; ++i) {
        double s = 0.0;
        for (std::size_t r = 0; r < k; ++r) s += a(r, i) * b(r, j);
        want(i, j) = s;
      }
    EXPECT_TRUE(same_bits(la::matmul_tn(a, b), want))
        << m << "x" << k << " * " << k << "x" << n;
  }
}

TEST(Matrix, VstackAndBlock) {
  const auto a = la::Matrix::from_rows({{1, 2}});
  const auto b = la::Matrix::from_rows({{3, 4}, {5, 6}});
  const auto s = a.vstack(b);
  EXPECT_EQ(s.rows(), 3u);
  EXPECT_DOUBLE_EQ(s(2, 1), 6);
  const auto blk = s.block(1, 0, 2, 2);
  EXPECT_DOUBLE_EQ(blk(0, 0), 3);
  EXPECT_DOUBLE_EQ(blk(1, 1), 6);
}

TEST(Matrix, ShapeMismatchThrows) {
  const auto a = random_matrix(2, 3, 1);
  const auto b = random_matrix(2, 3, 2);
  EXPECT_THROW(la::matmul(a, b), deisa::util::Error);
  EXPECT_THROW(a.block(0, 0, 3, 3), deisa::util::Error);
}

class QrShapes : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(QrShapes, ReconstructsAndIsOrthonormal) {
  const auto [m, n] = GetParam();
  const auto a = random_matrix(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n), 77);
  const auto [q, r] = la::qr_thin(a);
  EXPECT_LT(orthonormality_error(q), 1e-10);
  EXPECT_LT(la::max_abs_diff(la::matmul(q, r), a), 1e-10);
  // R upper triangular.
  for (std::size_t j = 0; j < r.cols(); ++j)
    for (std::size_t i = j + 1; i < r.rows(); ++i)
      EXPECT_DOUBLE_EQ(r(i, j), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Shapes, QrShapes,
                         ::testing::Values(std::pair{4, 4}, std::pair{8, 3},
                                           std::pair{20, 12},
                                           std::pair{50, 7},
                                           std::pair{5, 1}));

TEST(Qr, RankDeficientStillReconstructs) {
  auto a = random_matrix(8, 4, 9);
  // Make column 2 a multiple of column 0.
  for (std::size_t i = 0; i < 8; ++i) a(i, 2) = 3.0 * a(i, 0);
  const auto [q, r] = la::qr_thin(a);
  EXPECT_LT(la::max_abs_diff(la::matmul(q, r), a), 1e-10);
}

class SvdShapes
    : public ::testing::TestWithParam<std::tuple<int, int, std::uint64_t>> {};

TEST_P(SvdShapes, FullSvdProperties) {
  const auto [m, n, seed] = GetParam();
  const auto a = random_matrix(static_cast<std::size_t>(m),
                               static_cast<std::size_t>(n), seed);
  const auto r = la::svd(a);
  const std::size_t k = std::min(a.rows(), a.cols());
  ASSERT_EQ(r.s.size(), k);
  // Descending non-negative singular values.
  for (std::size_t i = 0; i + 1 < k; ++i) {
    EXPECT_GE(r.s[i], r.s[i + 1]);
    EXPECT_GE(r.s[i + 1], 0.0);
  }
  EXPECT_LT(orthonormality_error(r.u), 1e-9);
  EXPECT_LT(orthonormality_error(r.v), 1e-9);
  EXPECT_LT(la::max_abs_diff(la::svd_reconstruct(r), a), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SvdShapes,
    ::testing::Values(std::tuple{6, 6, 11}, std::tuple{12, 5, 12},
                      std::tuple{5, 12, 13}, std::tuple{30, 8, 14},
                      std::tuple{3, 40, 15}, std::tuple{1, 5, 16},
                      std::tuple{7, 1, 17}));

TEST(Svd, MatchesKnownDiagonal) {
  const auto a = la::Matrix::from_rows({{3, 0}, {0, -2}});
  const auto r = la::svd(a);
  EXPECT_NEAR(r.s[0], 3.0, 1e-12);
  EXPECT_NEAR(r.s[1], 2.0, 1e-12);
}

TEST(Svd, SingularValuesOfOrthogonalMatrixAreOnes) {
  const auto q = la::qr_thin(random_matrix(9, 9, 21)).q;
  const auto r = la::svd(q);
  for (double s : r.s) EXPECT_NEAR(s, 1.0, 1e-9);
}

TEST(Svd, LowRankMatrixHasZeroTail) {
  // Rank-2 matrix: outer products.
  const auto u = random_matrix(10, 2, 31);
  const auto v = random_matrix(6, 2, 32);
  const auto a = la::matmul(u, v.transposed());
  const auto r = la::svd(a);
  EXPECT_GT(r.s[1], 1e-6);
  for (std::size_t i = 2; i < r.s.size(); ++i) EXPECT_LT(r.s[i], 1e-9);
}

TEST(RandomizedSvd, RecoversLowRankExactly) {
  const auto u = random_matrix(40, 3, 41);
  const auto v = random_matrix(25, 3, 42);
  const auto a = la::matmul(u, v.transposed());
  const auto exact = la::svd(a);
  const auto rnd = la::randomized_svd(a, 3, 8, 2, 7);
  ASSERT_EQ(rnd.s.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_NEAR(rnd.s[i], exact.s[i], 1e-8 * std::max(1.0, exact.s[0]));
  // Rank-3 reconstruction matches A.
  EXPECT_LT(la::max_abs_diff(la::svd_reconstruct(rnd), a), 1e-7);
}

TEST(RandomizedSvd, TopSingularValuesCloseOnFullRank) {
  const auto a = random_matrix(60, 30, 51);
  const auto exact = la::svd(a);
  const auto rnd = la::randomized_svd(a, 5, 10, 3, 9);
  for (std::size_t i = 0; i < 5; ++i)
    EXPECT_NEAR(rnd.s[i], exact.s[i], 0.05 * exact.s[0]);
}

TEST(RandomizedSvd, DeterministicPerSeed) {
  const auto a = random_matrix(20, 10, 61);
  const auto r1 = la::randomized_svd(a, 4, 6, 2, 5);
  const auto r2 = la::randomized_svd(a, 4, 6, 2, 5);
  EXPECT_DOUBLE_EQ(la::max_abs_diff(r1.u, r2.u), 0.0);
  EXPECT_EQ(r1.s, r2.s);
}

TEST(RandomizedSvd, KLargerThanRankIsClamped) {
  const auto a = random_matrix(4, 3, 71);
  const auto r = la::randomized_svd(a, 10);
  EXPECT_LE(r.s.size(), 3u);
}

// Recorded results at heat2d-ipca's shapes: QR of the 195 x 12 and
// 48 x 12 panels, the Jacobi SVD of the 12 x 48 sketch, and the whole
// randomized SVD of a 192 x 48 batch; plus an odd width for QR and an
// odd height for Jacobi, which take the kernels' one-lane tails. The
// constants were printed by these tests (a failure prints the value to
// record) when every kernel still ran one plain ascending loop per output
// element, and the blocked kernels must reproduce them bit for bit. They
// hold for GCC at the default x86-64 target (SSE2 doubles, no FMA) with
// glibc's libm, which Rng::normal calls.
TEST(LinalgPins, QrThinReproducesRecordedBits) {
  const auto tall = la::qr_thin(random_matrix(195, 12, 901));
  expect_hash(tall.q, 0xcad406e67bca3ce0ull, "q 195x12");
  expect_hash(tall.r, 0x0134871d8c5c5ea1ull, "r 195x12");
  auto a = random_matrix(48, 12, 902);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 5) = 0.0;  // a zero reflector
  const auto narrow = la::qr_thin(a);
  expect_hash(narrow.q, 0x2f4ab0ff17051e7bull, "q 48x12");
  expect_hash(narrow.r, 0xf2c1e72ec7655f13ull, "r 48x12");
  const auto odd = la::qr_thin(random_matrix(50, 7, 906));  // a lone column
  expect_hash(odd.q, 0xa59306d2affdb9c6ull, "q 50x7");
  expect_hash(odd.r, 0x7988062d297e5556ull, "r 50x7");
}

TEST(LinalgPins, JacobiSvdReproducesRecordedBits) {
  const auto r = la::svd(random_matrix(12, 48, 903));
  expect_bits(r.s,
              {0x1.59830a14cc8e5p+3, 0x1.206c1144167b9p+3,
               0x1.f91c10af8b252p+2, 0x1.cf1d783e8013cp+2,
               0x1.af448a6d5cd0cp+2, 0x1.9a13d9f8c012dp+2,
               0x1.8202bbb292395p+2, 0x1.76fd90fa375d1p+2,
               0x1.5171f1729fb1ap+2, 0x1.394a4f285c01bp+2,
               0x1.22a606fca0182p+2, 0x1.03e649a2ec667p+2},
              "s 12x48");
  expect_hash(r.u, 0x1664cfa5ef47d75full, "u 12x48");
  expect_hash(r.v, 0x643aa7959a670afaull, "v 12x48");
  const auto odd = la::svd(random_matrix(13, 6, 907));  // an odd last row
  expect_bits(odd.s,
              {0x1.a113ed81ed9d3p+2, 0x1.001f68edd0602p+2,
               0x1.81a1d51c612f1p+1, 0x1.5d7c0da64c2bap+1,
               0x1.2ee2cf580cea2p+1, 0x1.a276937fd711cp+0},
              "s 13x6");
  expect_hash(odd.u, 0x7ceab0d1c57d77eaull, "u 13x6");
  expect_hash(odd.v, 0x662b06879f29d1a6ull, "v 13x6");
}

TEST(LinalgPins, RandomizedSvdReproducesRecordedBits) {
  const auto r = la::randomized_svd(random_matrix(192, 48, 904), 2, 10, 4,
                                    905);
  expect_bits(r.s, {0x1.47c195619531dp+4, 0x1.3e12335066b6ep+4}, "s 192x48");
  expect_hash(r.u, 0x8f4d14dc72e06651ull, "u 192x48");
  expect_hash(r.v, 0x4a644f5c4e6912f3ull, "v 192x48");
}

}  // namespace
