#include "deisa/ml/streaming.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "deisa/util/error.hpp"

namespace deisa::ml {

namespace arr = array;

double FieldStats::stddev() const { return std::sqrt(variance()); }

namespace {

/// Independent accumulators per statistic in the moment passes, so no
/// add, min or max waits on the previous sample's result.
constexpr std::size_t kLanes = 4;

/// The lanes added in lane order (a fixed rounding on every build).
double lane_sum(const double (&lanes)[kLanes]) {
  double total = lanes[0];
  for (std::size_t j = 1; j < kLanes; ++j) total += lanes[j];
  return total;
}

}  // namespace

FieldStats FieldStats::of(std::span<const double> samples, std::size_t bins,
                          double lo, double hi) {
  DEISA_CHECK(bins >= 1, "histogram needs at least one bin");
  DEISA_CHECK(bins <= static_cast<std::size_t>(
                          std::numeric_limits<std::int32_t>::max()),
              "histogram has more bins than an int32 can index");
  DEISA_CHECK(hi > lo, "histogram range must be non-empty");
  FieldStats s;
  s.histogram.assign(bins, 0);
  s.hist_lo = lo;
  s.hist_hi = hi;
  if (samples.empty()) return s;
  // Chunked kernel, so that no division sits on a loop-carried chain (a
  // per-sample Welford update divides by the running count, and each
  // sample waits for the previous sample's division). Per chunk of
  // kChunk samples: pass 1 sums and takes min and max in kLanes
  // independent accumulators; pass 2 sums the deviations about the chunk
  // mean and their squares, and takes the rounding-correction term
  // (sum of deviations)^2 / n off m2 (the corrected two-pass algorithm);
  // pass 3 bins each sample; Chan's merge then folds the chunk's
  // (n, mean, m2) into the running totals. Moments are taken about the
  // first sample, so a constant block has m2 exactly 0, and a field far
  // from zero keeps its low-order bits in the merge.
  const double shift = samples[0];
  double mn[kLanes];
  double mx[kLanes];
  std::fill_n(mn, kLanes, shift);
  std::fill_n(mx, kLanes, shift);
  double n = 0.0;
  double mean = 0.0;  // of the shifted samples
  double m2 = 0.0;
  const double width = (hi - lo) / static_cast<double>(bins);
  const double top = static_cast<double>(bins - 1);
  std::uint64_t* histo = s.histogram.data();
  std::int32_t bin[kChunk] = {};
  for (std::size_t at = 0; at < samples.size(); at += kChunk) {
    const double* x = samples.data() + at;
    const std::size_t len = std::min(kChunk, samples.size() - at);
    const std::size_t body = len - len % kLanes;
    const double cn = static_cast<double>(len);

    double sum[kLanes] = {};
    const auto pass1 = [&](std::size_t j, double v) {
      sum[j] += v - shift;
      mn[j] = v < mn[j] ? v : mn[j];  // std::min's NaN rule, per lane
      mx[j] = mx[j] < v ? v : mx[j];
    };
    for (std::size_t i = 0; i < body; i += kLanes)
      for (std::size_t j = 0; j < kLanes; ++j) pass1(j, x[i + j]);
    for (std::size_t i = body; i < len; ++i) pass1(i - body, x[i]);
    const double center = shift + lane_sum(sum) / cn;

    // Two loops, not one: each then vectorizes without shuffles.
    double dev[kLanes] = {};
    double dev2[kLanes] = {};
    for (std::size_t i = 0; i < body; i += kLanes)
      for (std::size_t j = 0; j < kLanes; ++j) dev[j] += x[i + j] - center;
    for (std::size_t i = body; i < len; ++i) dev[i - body] += x[i] - center;
    for (std::size_t i = 0; i < body; i += kLanes)
      for (std::size_t j = 0; j < kLanes; ++j) {
        const double d = x[i + j] - center;
        dev2[j] += d * d;
      }
    for (std::size_t i = body; i < len; ++i) {
      const double d = x[i] - center;
      dev2[i - body] += d * d;
    }
    const double c = lane_sum(dev);
    const double cm2 = lane_sum(dev2) - c * c / cn;
    const double cmean = (center - shift) + c / cn;

    // Clamp the quotient as a double: NaN and anything below 0 go to bin
    // 0, anything at or above the last bin (inf included) to the last,
    // so the conversion never sees an out-of-range value. Converting to
    // an int32 buffer lets the division, clamps and conversion vectorize;
    // the increments follow in their own loop.
    for (std::size_t i = 0; i < len; ++i) {
      double q = (x[i] - lo) / width;
      q = q >= 0.0 ? q : 0.0;
      q = q < top ? q : top;
      bin[i] = static_cast<std::int32_t>(q);
    }
    for (std::size_t i = 0; i < len; ++i)
      ++histo[static_cast<std::size_t>(bin[i])];

    const double total = n + cn;
    const double delta = cmean - mean;
    mean += delta * (cn / total);
    m2 += cm2 + delta * delta * (n * (cn / total));
    n = total;
  }
  double lo_all = mn[0];
  double hi_all = mx[0];
  for (std::size_t j = 1; j < kLanes; ++j) {
    lo_all = mn[j] < lo_all ? mn[j] : lo_all;
    hi_all = hi_all < mx[j] ? mx[j] : hi_all;
  }
  s.count = static_cast<std::int64_t>(samples.size());
  s.min = lo_all;
  s.max = hi_all;
  s.mean = shift + mean;
  s.m2 = m2;
  return s;
}

FieldStats FieldStats::merged(const FieldStats& a, const FieldStats& b) {
  if (a.count == 0) return b;
  if (b.count == 0) return a;
  DEISA_CHECK(a.histogram.size() == b.histogram.size() &&
                  a.hist_lo == b.hist_lo && a.hist_hi == b.hist_hi,
              "cannot merge statistics with different histogram layouts");
  FieldStats out;
  out.count = a.count + b.count;
  out.min = std::min(a.min, b.min);
  out.max = std::max(a.max, b.max);
  const double na = static_cast<double>(a.count);
  const double nb = static_cast<double>(b.count);
  const double delta = b.mean - a.mean;
  out.mean = a.mean + delta * nb / (na + nb);
  out.m2 = a.m2 + b.m2 + delta * delta * na * nb / (na + nb);
  out.hist_lo = a.hist_lo;
  out.hist_hi = a.hist_hi;
  out.histogram.resize(a.histogram.size());
  for (std::size_t i = 0; i < out.histogram.size(); ++i)
    out.histogram[i] = a.histogram[i] + b.histogram[i];
  return out;
}

InSituFieldMonitor::InSituFieldMonitor(dts::Client& client,
                                       MonitorOptions opts)
    : client_(&client), opts_(std::move(opts)) {}

namespace {

dts::TaskFn make_chunk_stats_fn(MonitorOptions opts,
                                std::uint64_t out_bytes_hint) {
  return [opts, out_bytes_hint](const std::vector<dts::Data>& in) {
    if (!in[0].has_value()) return dts::Data::sized(out_bytes_hint);
    const auto& chunk = in[0].as<arr::NDArray>();
    FieldStats s =
        FieldStats::of(chunk.flat(), opts.bins, opts.hist_lo, opts.hist_hi);
    const std::uint64_t b = s.bytes();
    return dts::Data::make<FieldStats>(std::move(s), b);
  };
}

dts::TaskFn make_merge_fn(std::uint64_t out_bytes_hint) {
  return [out_bytes_hint](const std::vector<dts::Data>& in) {
    if (!in[0].has_value()) return dts::Data::sized(out_bytes_hint);
    FieldStats acc = in[0].as<FieldStats>();
    for (std::size_t i = 1; i < in.size(); ++i)
      acc = FieldStats::merged(acc, in[i].as<FieldStats>());
    const std::uint64_t b = acc.bytes();
    return dts::Data::make<FieldStats>(std::move(acc), b);
  };
}

}  // namespace

exec::Co<MonitorFit> InSituFieldMonitor::submit(ChunkProvider& provider) {
  const arr::ChunkGrid& grid = provider.grid();
  DEISA_CHECK(grid.chunk_shape()[0] == 1,
              "time dimension must be chunked per timestep");
  const std::int64_t steps = grid.chunks_in(0);
  const std::uint64_t stats_bytes =
      sizeof(FieldStats) + opts_.bins * sizeof(std::uint64_t);

  MonitorFit fit;
  std::vector<dts::TaskSpec> tasks;
  for (std::int64_t t = 0; t < steps; ++t) {
    std::vector<dts::Key> chunk_keys = provider.chunks(0, t, tasks);
    arr::Box slab;
    slab.lo.assign(grid.ndim(), 0);
    slab.hi = grid.shape();
    slab.lo[0] = t;
    slab.hi[0] = t + 1;
    const auto coords = grid.chunks_overlapping(slab);

    // Leaf level: one data-local stats task per chunk.
    std::vector<dts::Key> level;
    for (std::size_t i = 0; i < chunk_keys.size(); ++i) {
      const std::uint64_t elems =
          static_cast<std::uint64_t>(grid.box_of(coords[i]).volume());
      dts::Key key = opts_.name + "/leaf/t" + std::to_string(t) + "/c" +
                     std::to_string(i);
      tasks.emplace_back(key, std::vector<dts::Key>{chunk_keys[i]},
                         make_chunk_stats_fn(opts_, stats_bytes),
                         static_cast<double>(elems * sizeof(double)) /
                             opts_.scan_bytes_rate,
                         stats_bytes);
      level.push_back(std::move(key));
    }
    // Pairwise merge tree (log depth).
    int round = 0;
    while (level.size() > 1) {
      std::vector<dts::Key> next;
      for (std::size_t i = 0; i < level.size(); i += 2) {
        if (i + 1 == level.size()) {
          next.push_back(level[i]);
          break;
        }
        dts::Key key = opts_.name + "/merge/t" + std::to_string(t) + "/r" +
                       std::to_string(round) + "/" + std::to_string(i / 2);
        std::vector<dts::Key> deps;
        deps.push_back(level[i]);
        deps.push_back(level[i + 1]);
        tasks.emplace_back(key, std::move(deps), make_merge_fn(stats_bytes),
                           1e-6, stats_bytes);
        next.push_back(std::move(key));
      }
      level = std::move(next);
      ++round;
    }
    fit.step_keys.push_back(level.front());
  }
  co_await client_->submit(std::move(tasks), fit.step_keys);
  co_return fit;
}

exec::Co<std::vector<FieldStats>> InSituFieldMonitor::collect(
    const MonitorFit& fit) {
  std::vector<FieldStats> out;
  for (const dts::Key& key : fit.step_keys) {
    const dts::Data d = co_await client_->gather(key);
    out.push_back(d.as<FieldStats>());
  }
  co_return out;
}

}  // namespace deisa::ml
