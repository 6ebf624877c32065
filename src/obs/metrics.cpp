#include "deisa/obs/metrics.hpp"

#include <algorithm>

namespace deisa::obs {

void Histogram::merge(const Histogram& other) {
  stats_.merge(other.stats_);
  const std::size_t n =
      std::min(max_samples_ - samples_.size(), other.samples_.size());
  samples_.insert(samples_.end(), other.samples_.begin(),
                  other.samples_.begin() + static_cast<std::ptrdiff_t>(n));
}

HistogramSummary Histogram::summary() const {
  HistogramSummary s;
  s.count = stats_.count();
  s.mean = stats_.mean();
  s.stddev = stats_.stddev();
  s.min = stats_.min();
  s.max = stats_.max();
  s.p50 = util::percentile(samples_, 0.50);
  s.p95 = util::percentile(samples_, 0.95);
  s.p99 = util::percentile(samples_, 0.99);
  return s;
}

}  // namespace deisa::obs
