// Principal component analysis — batch PCA and the incremental PCA of
// Ross et al. as implemented by scikit-learn/dask-ml (the model used in
// the paper's end-to-end workflow, §3.1–3.2). partial_fit follows the
// sklearn update exactly: incremental mean/variance tracking, the
// [S·V ; X_centered ; mean-correction] stacked SVD, and sign flipping for
// deterministic component orientation.
#pragma once

#include <cstdint>
#include <optional>

#include "deisa/linalg/decomp.hpp"
#include "deisa/linalg/matrix.hpp"

namespace deisa::ml {

struct PcaOptions {
  std::size_t n_components = 2;
  /// Use the randomized SVD solver (Listing 2: svd_solver='randomized'):
  /// a rank-n_components sketch, n_components + oversample columns wide
  /// with power_iters power iterations, like dask's svd_compressed. It
  /// returns only the leading n_components singular values; matrices no
  /// wider than the sketch fall back to the exact SVD.
  bool randomized = false;
  std::size_t oversample = 10;
  std::size_t power_iters = 4;
  std::uint64_t seed = 0x9cada;
};

/// Batch PCA (requires all samples in memory — the limitation IPCA lifts).
class Pca {
public:
  explicit Pca(PcaOptions opts);

  /// Fit on X (rows = samples, cols = features).
  void fit(const linalg::Matrix& x);
  linalg::Matrix transform(const linalg::Matrix& x) const;

  const linalg::Matrix& components() const { return components_; }
  const std::vector<double>& singular_values() const {
    return singular_values_;
  }
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }
  const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  const std::vector<double>& mean() const { return mean_; }

private:
  PcaOptions opts_;
  linalg::Matrix components_;  // k x f
  std::vector<double> singular_values_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
  std::vector<double> mean_;
};

/// Incremental PCA: constant-memory minibatch fitting. With the randomized
/// solver each partial_fit sketches the (k + batch + 1) x features stack
/// at rank k instead of taking its full SVD; explained-variance ratios
/// divide by the tracked per-feature variance, so they need no more than
/// the k singular values a sketch returns.
class IncrementalPca {
public:
  explicit IncrementalPca(PcaOptions opts);

  /// Update the model with one minibatch (rows = samples).
  void partial_fit(const linalg::Matrix& x);
  linalg::Matrix transform(const linalg::Matrix& x) const;

  std::size_t n_samples_seen() const { return n_samples_seen_; }
  std::size_t n_features() const { return mean_.size(); }
  const linalg::Matrix& components() const { return components_; }
  const std::vector<double>& singular_values() const {
    return singular_values_;
  }
  const std::vector<double>& explained_variance() const {
    return explained_variance_;
  }
  const std::vector<double>& explained_variance_ratio() const {
    return explained_variance_ratio_;
  }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& variance() const { return var_; }

  /// Serialized size estimate (what moves between tasks).
  std::uint64_t state_bytes() const;

private:
  PcaOptions opts_;
  std::size_t n_samples_seen_ = 0;
  std::vector<double> mean_;  // per-feature running mean
  std::vector<double> var_;   // per-feature running variance (population)
  linalg::Matrix components_;
  std::vector<double> singular_values_;
  std::vector<double> explained_variance_;
  std::vector<double> explained_variance_ratio_;
};

/// Deterministic component orientation (sklearn svd_flip with
/// u_based_decision=False): flip each right-singular row so its
/// largest-magnitude entry is positive.
void svd_flip_v(linalg::Matrix& u, linalg::Matrix& vt);

}  // namespace deisa::ml
