// Metrics: the duration Histogram the actors keep, and the MetricsSnapshot
// a run reports.
//
// Every count and every duration is an always-on typed field on the
// object that observes it (Scheduler, Worker, Bridge, transport, PFS,
// ...), and the harness names them all once, after the run, when it
// builds the snapshot (harness/scenario.cpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "deisa/util/stats.hpp"

namespace deisa::obs {

struct HistogramSummary {
  std::size_t count = 0;
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
};

/// A distribution of observed values: streaming moments over every
/// sample, and the first `max_samples` samples for percentile export
/// (memory stays bounded on arbitrarily long runs; beyond the cap only
/// the moments keep updating). A plain value with no lock: its owner
/// observes it from one strand, or under a lock it already holds.
class Histogram {
public:
  static constexpr std::size_t kDefaultMaxSamples = 1u << 16;

  explicit Histogram(std::size_t max_samples = kDefaultMaxSamples)
      : max_samples_(max_samples) {}

  void observe(double x) {
    stats_.add(x);
    if (samples_.size() < max_samples_) {
      // The first sample reserves the whole buffer, so no later one
      // allocates (pages the samples never reach are never touched).
      if (samples_.empty()) samples_.reserve(max_samples_);
      samples_.push_back(x);
    }
  }
  /// Fold `other` in as if its samples had been observed after this
  /// one's.
  void merge(const Histogram& other);

  std::size_t count() const { return stats_.count(); }
  /// Moments over every sample; percentiles over the retained ones.
  HistogramSummary summary() const;

private:
  std::size_t max_samples_;
  util::RunningStats stats_;
  std::vector<double> samples_;
};

/// The metrics of one run, named and read from the actors' typed fields
/// once the run is over. Cheap to carry in RunResult and to compare
/// across runs.
struct MetricsSnapshot {
  std::map<std::string, std::uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSummary> histograms;

  /// Counter value, 0 when the counter was never touched.
  std::uint64_t counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
  }
};

}  // namespace deisa::obs
