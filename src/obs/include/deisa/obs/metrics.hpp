// Metrics registry: named counters, gauges and histograms with a
// snapshot() API, used by the scheduler/worker/bridge/PFS/net
// instrumentation and read back by the figure benches (fig_msgcount
// asserts the paper's message formulas from these counters instead of
// bespoke per-class fields).
//
// Histograms reuse util::RunningStats for streaming moments and keep a
// bounded sample buffer for percentile export (memory stays bounded on
// arbitrarily long runs; beyond the cap only the moments keep updating).
//
// Like the trace recorder, sites reach the registry through
// MetricsRegistry::current() — a null check when observability is off.
//
// Thread-safe: counters and gauges are atomics, histograms take a
// per-histogram mutex, and the registry's name lookups are serialized
// (std::map keeps references stable, so the returned instruments stay
// valid while other threads insert).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "deisa/util/stats.hpp"

namespace deisa::obs {

class Counter {
public:
  void add(std::uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<std::uint64_t> value_{0};
};

class Gauge {
public:
  void set(double v) { value_.store(v, std::memory_order_relaxed); }
  void add(double d) { value_.fetch_add(d, std::memory_order_relaxed); }
  double value() const { return value_.load(std::memory_order_relaxed); }

private:
  std::atomic<double> value_{0.0};
};

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

/// Immutable copy of a registry at one point in time; cheap to carry in
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
  double gauge(const std::string& name) const {
    const auto it = gauges.find(name);
    return it == gauges.end() ? 0.0 : it->second;
  }
  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }
};

class MetricsRegistry {
public:
  /// The process-wide registry instrumentation writes to; nullptr (the
  /// default) disables metrics everywhere.
  static MetricsRegistry* current() {
    return current_.load(std::memory_order_acquire);
  }
  static void install(MetricsRegistry* registry) {
    current_.store(registry, std::memory_order_release);
  }

  Counter& counter(const std::string& name) {
    std::lock_guard lk(mu_);
    return counters_[name];
  }
  Gauge& gauge(const std::string& name) {
    std::lock_guard lk(mu_);
    return gauges_[name];
  }
  Histogram& histogram(const std::string& name) {
    std::lock_guard lk(mu_);
    return histograms_[name];
  }

  MetricsSnapshot snapshot() const;
  void clear();

private:
  /// Guards the name->instrument maps (not the instruments themselves,
  /// which synchronize their own mutation).
  mutable std::mutex mu_;
  // std::map: deterministic dump order, stable references on insert.
  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;

  static std::atomic<MetricsRegistry*> current_;
};

/// The installed registry, or nullptr when metrics are disabled.
inline MetricsRegistry* metrics() { return MetricsRegistry::current(); }

// The three helpers take a view, so an instrumentation site passing a
// literal builds no std::string unless a registry is installed.
inline void count(std::string_view name, std::uint64_t n = 1) {
  if (MetricsRegistry* m = MetricsRegistry::current())
    m->counter(std::string(name)).add(n);
}

inline void gauge_set(std::string_view name, double value) {
  if (MetricsRegistry* m = MetricsRegistry::current())
    m->gauge(std::string(name)).set(value);
}

inline void observe(std::string_view name, double value) {
  if (MetricsRegistry* m = MetricsRegistry::current())
    m->histogram(std::string(name)).observe(value);
}

}  // namespace deisa::obs
