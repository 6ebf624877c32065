// Deterministic random number generation. The discrete-event simulator
// must be fully reproducible: every stochastic source (network jitter,
// scheduler service noise, allocation placement) draws from an explicitly
// seeded stream, never from global state.
#pragma once

#include <cstdint>

namespace deisa::util {

/// SplitMix64 — used to expand a single seed into stream seeds.
class SplitMix64 {
public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();

private:
  std::uint64_t state_;
};

/// xoshiro256** — fast, high-quality PRNG for simulation draws.
class Rng {
public:
  explicit Rng(std::uint64_t seed);

  std::uint64_t next_u64();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi);
  /// Uniform integer in [0, n).
  std::uint64_t uniform_index(std::uint64_t n);
  /// Standard normal via Box-Muller (cached pair).
  double normal();
  double normal(double mean, double stddev);
  /// Lognormal parameterized by the *linear-space* mean and the sigma of
  /// the underlying normal — convenient for service-time jitter.
  double lognormal_mean(double mean, double sigma);

  /// Derive an independent child stream (seeded via SplitMix64).
  Rng split();

private:
  std::uint64_t s_[4];
  bool has_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace deisa::util
