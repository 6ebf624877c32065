#include "deisa/obs/metrics.hpp"

namespace deisa::obs {

std::atomic<MetricsRegistry*> MetricsRegistry::current_{nullptr};

MetricsSnapshot MetricsRegistry::snapshot() const {
  std::lock_guard lk(mu_);
  MetricsSnapshot snap;
  for (const auto& [name, h] : histograms_) {
    const util::RunningStats rs = h.stats();
    HistogramSummary s;
    s.count = rs.count();
    s.mean = rs.mean();
    s.stddev = rs.stddev();
    s.min = rs.min();
    s.max = rs.max();
    s.p50 = h.percentile(0.50);
    s.p95 = h.percentile(0.95);
    s.p99 = h.percentile(0.99);
    snap.histograms.emplace(name, s);
  }
  return snap;
}

}  // namespace deisa::obs
