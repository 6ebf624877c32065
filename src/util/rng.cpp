#include "deisa/util/rng.hpp"

#include <cmath>
#include <numbers>

#include "deisa/util/error.hpp"

namespace deisa::util {

std::uint64_t SplitMix64::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {
inline std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.next();
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  DEISA_CHECK(n > 0, "uniform_index over empty range");
  // Rejection-free for our purposes; bias is negligible for n << 2^64.
  return next_u64() % n;
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  return mean + stddev * normal();
}

double Rng::lognormal_mean(double mean, double sigma) {
  DEISA_CHECK(mean > 0.0, "lognormal mean must be positive");
  // E[exp(N(mu, sigma^2))] = exp(mu + sigma^2/2) == mean.
  const double mu = std::log(mean) - 0.5 * sigma * sigma;
  return std::exp(mu + sigma * normal());
}

Rng Rng::split() { return Rng(next_u64()); }

}  // namespace deisa::util
