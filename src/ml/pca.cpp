#include "deisa/ml/pca.hpp"

#include <algorithm>
#include <cmath>

#include "deisa/util/error.hpp"

namespace deisa::ml {

namespace la = linalg;

void svd_flip_v(la::Matrix& u, la::Matrix& vt) {
  // vt rows are components; u columns correspond to them.
  for (std::size_t r = 0; r < vt.rows(); ++r) {
    double best = 0.0;
    double best_abs = -1.0;
    for (std::size_t c = 0; c < vt.cols(); ++c) {
      const double a = std::abs(vt(r, c));
      if (a > best_abs) {
        best_abs = a;
        best = vt(r, c);
      }
    }
    if (best < 0.0) {
      for (std::size_t c = 0; c < vt.cols(); ++c) vt(r, c) = -vt(r, c);
      if (r < u.cols())
        for (std::size_t i = 0; i < u.rows(); ++i) u(i, r) = -u(i, r);
    }
  }
}

namespace {

la::SvdResult solve_svd(const la::Matrix& a, const PcaOptions& opts) {
  if (opts.randomized &&
      opts.n_components + kSketchOversample < std::min(a.rows(), a.cols()))
    return la::randomized_svd(a, opts.n_components, kSketchOversample,
                              kSketchPowerIters, opts.seed);
  return la::svd(a);
}

/// For each column j of x, the sum from +0.0 of term(x(i, j), j) in
/// ascending i. Eight columns share each pass over the rows, so eight
/// sums advance side by side instead of one chain at a time.
template <std::size_t kWidth, typename Term>
void column_sums(const la::Matrix& x, std::size_t j0, Term term,
                 std::vector<double>& out) {
  double s[kWidth] = {};
  for (std::size_t i = 0; i < x.rows(); ++i)
    for (std::size_t c = 0; c < kWidth; ++c)
      s[c] += term(x(i, j0 + c), j0 + c);
  std::copy_n(s, kWidth, out.begin() + static_cast<std::ptrdiff_t>(j0));
}

template <typename Term>
std::vector<double> column_sums(const la::Matrix& x, Term term) {
  std::vector<double> out(x.cols());
  std::size_t j = 0;
  for (; j + 8 <= x.cols(); j += 8) column_sums<8>(x, j, term, out);
  for (; j < x.cols(); ++j) column_sums<1>(x, j, term, out);
  return out;
}

std::vector<double> column_means(const la::Matrix& x) {
  std::vector<double> mean =
      column_sums(x, [](double v, std::size_t) { return v; });
  for (double& s : mean) s /= static_cast<double>(x.rows());
  return mean;
}

la::Matrix center(const la::Matrix& x, const std::vector<double>& mean) {
  la::Matrix c = x;
  for (std::size_t j = 0; j < c.cols(); ++j) {
    const auto cj = c.col(j);
    const double mj = mean[j];
    for (double& v : cj) v -= mj;
  }
  return c;
}

}  // namespace

Pca::Pca(PcaOptions opts) : opts_(opts) {
  DEISA_CHECK(opts_.n_components >= 1, "n_components must be >= 1");
}

void Pca::fit(const la::Matrix& x) {
  DEISA_CHECK(x.rows() >= 2, "PCA needs at least two samples");
  mean_ = column_means(x);
  const la::Matrix xc = center(x, mean_);
  la::SvdResult r = solve_svd(xc, opts_);
  la::Matrix vt = r.v.transposed();
  svd_flip_v(r.u, vt);
  const std::size_t k = std::min(opts_.n_components, r.s.size());
  components_ = vt.block(0, 0, k, vt.cols());
  singular_values_.assign(r.s.begin(), r.s.begin() + static_cast<long>(k));
  const double denom = static_cast<double>(x.rows() - 1);
  // The total comes from the data, not from r.s: a sketch returns only
  // the leading singular values (sklearn's randomized PCA does the same).
  const double total_var = la::dot(xc.data(), xc.data()) / denom;
  explained_variance_.clear();
  explained_variance_ratio_.clear();
  for (std::size_t i = 0; i < k; ++i) {
    const double ev = r.s[i] * r.s[i] / denom;
    explained_variance_.push_back(ev);
    explained_variance_ratio_.push_back(total_var > 0 ? ev / total_var : 0.0);
  }
}

IncrementalPca::IncrementalPca(PcaOptions opts) : opts_(opts) {
  DEISA_CHECK(opts_.n_components >= 1, "n_components must be >= 1");
}

std::uint64_t IncrementalPca::state_bytes() const {
  return sizeof(double) *
         (components_.size() + singular_values_.size() + mean_.size() +
          var_.size() + explained_variance_.size() + 8);
}

void IncrementalPca::partial_fit(const la::Matrix& x) {
  const std::size_t m = x.rows();
  const std::size_t f = x.cols();
  DEISA_CHECK(m >= 1, "partial_fit needs at least one sample");
  if (n_samples_seen_ == 0) {
    mean_.assign(f, 0.0);
    var_.assign(f, 0.0);
  }
  DEISA_CHECK(f == mean_.size(), "feature count changed between batches: "
                                     << mean_.size() << " -> " << f);
  DEISA_CHECK(
      n_samples_seen_ > 0 || m >= opts_.n_components,
      "first batch must have at least n_components samples");

  // --- incremental mean and variance (sklearn _incremental_mean_and_var)
  const double n_old = static_cast<double>(n_samples_seen_);
  const double n_new = static_cast<double>(m);
  const double n_tot = n_old + n_new;
  const std::vector<double> batch_mean = column_means(x);
  std::vector<double> batch_var =
      column_sums(x, [&batch_mean](double v, std::size_t j) {
        const double d = v - batch_mean[j];
        return d * d;
      });
  for (double& v : batch_var) v /= n_new;  // population variance
  std::vector<double> new_mean(f);
  std::vector<double> new_var(f);
  for (std::size_t j = 0; j < f; ++j) {
    new_mean[j] = (n_old * mean_[j] + n_new * batch_mean[j]) / n_tot;
    const double m2_old = var_[j] * n_old;
    const double m2_new = batch_var[j] * n_new;
    const double delta = batch_mean[j] - mean_[j];
    new_var[j] =
        (m2_old + m2_new + delta * delta * n_old * n_new / n_tot) / n_tot;
  }

  // --- the stacked matrix [S.V; X - batch mean; mean correction], or
  // the centered batch alone for the first batch, in one pass per column
  const std::size_t top = n_samples_seen_ == 0 ? 0 : components_.rows();
  la::Matrix stack(n_samples_seen_ == 0 ? m : top + m + 1, f);
  const double scale = std::sqrt(n_old * n_new / n_tot);
  for (std::size_t c = 0; c < f; ++c) {
    const auto out = stack.col(c);
    for (std::size_t r = 0; r < top; ++r)
      out[r] = singular_values_[r] * components_(r, c);
    const auto xc = x.col(c);
    const double mu = batch_mean[c];
    for (std::size_t i = 0; i < m; ++i) out[top + i] = xc[i] - mu;
    if (n_samples_seen_ > 0) out[top + m] = scale * (mean_[c] - mu);
  }

  la::SvdResult r = solve_svd(stack, opts_);
  la::Matrix vt = r.v.transposed();
  svd_flip_v(r.u, vt);

  const std::size_t k = std::min(opts_.n_components, r.s.size());
  components_ = vt.block(0, 0, k, f);
  singular_values_.assign(r.s.begin(), r.s.begin() + static_cast<long>(k));
  mean_ = std::move(new_mean);
  var_ = std::move(new_var);
  n_samples_seen_ += m;

  const double denom = static_cast<double>(n_samples_seen_ - 1);
  explained_variance_.clear();
  for (std::size_t i = 0; i < k; ++i)
    explained_variance_.push_back(denom > 0 ? r.s[i] * r.s[i] / denom : 0.0);
}

}  // namespace deisa::ml
