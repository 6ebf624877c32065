// Metrics: duration histograms recorded live, and the MetricsSnapshot a
// run reports.
//
// Counts are not recorded here. Every count is an always-on typed field
// on the object that observes it (Scheduler, Worker, Bridge, transport,
// ...), and the harness builds the snapshot's counters and gauges from
// those fields once, after the run (harness/scenario.cpp). Only
// durations, which need a distribution, go through the registry.
//
// Histograms reuse util::RunningStats for streaming moments and keep a
// bounded sample buffer for percentile export (memory stays bounded on
// arbitrarily long runs; beyond the cap only the moments keep updating).
//
// Like the trace recorder, sites reach the registry through
// MetricsRegistry::current() — a null check when observability is off.
//
// Thread-safe: histograms take a per-histogram mutex, and the registry's
// name lookups are serialized (std::map keeps references stable, so the
// returned histograms stay valid while other threads insert).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "deisa/util/stats.hpp"

namespace deisa::obs {

class Histogram {
public:
  static constexpr std::size_t kDefaultMaxSamples = 1u << 16;

  explicit Histogram(std::size_t max_samples = kDefaultMaxSamples)
      : max_samples_(max_samples) {}

  void observe(double x) {
    std::lock_guard lk(mu_);
    stats_.add(x);
    if (samples_.size() < max_samples_) samples_.push_back(x);
  }

  /// Copy of the streaming moments (consistent under concurrent observe).
  util::RunningStats stats() const {
    std::lock_guard lk(mu_);
    return stats_;
  }
  std::size_t count() const {
    std::lock_guard lk(mu_);
    return stats_.count();
  }
  /// Percentile over the retained samples (all of them until the cap).
  double percentile(double q) const {
    std::lock_guard lk(mu_);
    return util::percentile(samples_, q);
  }

private:
  mutable std::mutex mu_;
  std::size_t max_samples_;
  util::RunningStats stats_;
  std::vector<double> samples_;
};

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

/// The metrics of one run: counters and gauges read from the typed
/// fields, histograms copied from the registry. Cheap to carry in
/// RunResult and to compare across runs.
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

class MetricsRegistry {
public:
  /// The process-wide registry instrumentation writes to; nullptr (the
  /// default) disables the histograms everywhere.
  static MetricsRegistry* current() {
    return current_.load(std::memory_order_acquire);
  }
  static void install(MetricsRegistry* registry) {
    current_.store(registry, std::memory_order_release);
  }

  Histogram& histogram(const std::string& name) {
    std::lock_guard lk(mu_);
    return histograms_[name];
  }

  /// A snapshot holding the histograms only.
  MetricsSnapshot snapshot() const;

private:
  /// Guards the name->histogram map (not the histograms themselves,
  /// which synchronize their own mutation).
  mutable std::mutex mu_;
  // std::map: deterministic dump order, stable references on insert.
  std::map<std::string, Histogram> histograms_;

  static std::atomic<MetricsRegistry*> current_;
};

/// The installed registry, or nullptr when metrics are disabled.
inline MetricsRegistry* metrics() { return MetricsRegistry::current(); }

}  // namespace deisa::obs
