// In-situ field monitoring: per-timestep streaming statistics (min, max,
// mean, variance, histogram) computed over external-task arrays with one
// data-local task per chunk and a binary merge tree — the "other ML
// models / digital twins" direction of the paper's conclusion. Unlike
// the IPCA, the statistics math is cheap enough to run for real at any
// scale, so this model is exact in both functional and synthetic runs
// whenever payloads are present.
#pragma once

#include <span>
#include <vector>

#include "deisa/array/darray.hpp"
#include "deisa/ml/insitu.hpp"

namespace deisa::ml {

/// Mergeable summary of a set of samples.
struct FieldStats {
  FieldStats() = default;  // non-aggregate rule: see mpix::Message note
  std::int64_t count = 0;
  double min = 0.0;
  double max = 0.0;
  double mean = 0.0;
  double m2 = 0.0;  // sum of squared deviations (Chan et al.)
  std::vector<std::uint64_t> histogram;
  double hist_lo = 0.0;
  double hist_hi = 1.0;

  /// Samples per chunk of of()'s kernel: 2 KiB of doubles, so the
  /// kernel's passes over a chunk read it from L1.
  static constexpr std::size_t kChunk = 256;

  double variance() const { return count > 1 ? m2 / double(count) : 0.0; }
  double stddev() const;

  /// Summarize a buffer into `bins` histogram bins over [lo, hi). A
  /// sample lands in bin (x - lo) / (width of a bin), truncated;
  /// out-of-range samples (infinities included) clamp to the edge bins,
  /// and NaN counts in bin 0. Count, min, max and the histogram are
  /// exact; mean and m2 come from a chunked two-pass kernel merged with
  /// Chan's rule (see streaming.cpp).
  static FieldStats of(std::span<const double> samples, std::size_t bins,
                       double lo, double hi);
  /// Exact parallel merge (Chan et al. variance combination).
  static FieldStats merged(const FieldStats& a, const FieldStats& b);

  std::uint64_t bytes() const {
    return sizeof(FieldStats) + histogram.size() * sizeof(std::uint64_t);
  }
};

struct MonitorOptions {
  std::string name = "monitor";
  std::size_t bins = 16;
  double hist_lo = 0.0;
  double hist_hi = 100.0;
  /// Cost model for synthetic runs (per-byte scan rate).
  double scan_bytes_rate = 6.0e9;
};

/// Handle on a submitted monitoring graph.
struct MonitorFit {
  std::vector<dts::Key> step_keys;  // per-timestep merged stats
};

class InSituFieldMonitor {
public:
  InSituFieldMonitor(dts::Client& client, MonitorOptions opts);

  /// Build and submit the whole monitoring graph ahead of the data: per
  /// chunk a local-stats task, merged pairwise into one FieldStats per
  /// timestep (log-depth tree).
  exec::Co<MonitorFit> submit(ChunkProvider& provider);

  /// Gather the per-step statistics (functional mode).
  exec::Co<std::vector<FieldStats>> collect(const MonitorFit& fit);

private:
  dts::Client* client_;
  MonitorOptions opts_;
};

}  // namespace deisa::ml
