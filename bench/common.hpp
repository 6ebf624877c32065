// Shared helpers for the figure benches: scenario construction with the
// paper's fixed settings, multi-run averaging, and table printing with
// paper-reference columns for at-a-glance shape comparison.
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"
#include "deisa/util/table.hpp"
#include "deisa/util/units.hpp"

namespace bench {

namespace harness = deisa::harness;
namespace util = deisa::util;

/// The paper's fixed experiment settings (§3.3): 10 timesteps and three
/// runs per configuration (two processes per node is
/// harness::kRanksPerNode).
inline harness::ScenarioParams paper_defaults() {
  harness::ScenarioParams p;
  p.timesteps = 10;
  return p;
}

inline constexpr int kRunsPerConfig = 3;

/// Mean over per-iteration samples of several runs (optionally skipping
/// the first iteration, as the paper does for post-hoc writes).
struct SeriesStats {
  double mean = 0.0;
  double stddev = 0.0;
};

inline SeriesStats iteration_stats(
    const std::vector<harness::RunResult>& runs,
    const std::vector<std::vector<double>> harness::RunResult::* series,
    int skip_first = 0) {
  util::RunningStats rs;
  for (const auto& r : runs) {
    const auto s = r.iteration_summary(r.*series, skip_first);
    // Aggregate raw samples via merge-equivalent: weight by count.
    // (We re-add mean/σ-preserving via summary; simplest: recompute.)
    for (const auto& per_rank : r.*series)
      for (std::size_t t = 0; t < per_rank.size(); ++t)
        if (static_cast<int>(t) >= skip_first) rs.add(per_rank[t]);
    (void)s;
  }
  return {rs.mean(), rs.stddev()};
}

inline SeriesStats analytics_stats(const std::vector<harness::RunResult>& runs) {
  util::RunningStats rs;
  for (const auto& r : runs) rs.add(r.analytics_seconds);
  return {rs.mean(), rs.stddev()};
}

inline std::string ms(const SeriesStats& s, int precision = 2) {
  return util::Table::num(s.mean, precision) + " ± " +
         util::Table::num(s.stddev, precision);
}

/// Run one pipeline `kRunsPerConfig` times with different allocation
/// seeds (independent Slurm submissions, as in the paper).
inline std::vector<harness::RunResult> run_many(harness::Pipeline pipeline,
                                                harness::ScenarioParams p,
                                                int runs = kRunsPerConfig) {
  std::vector<harness::RunResult> out;
  for (int i = 0; i < runs; ++i) {
    p.alloc_seed = 1000 + static_cast<std::uint64_t>(i) * 77;
    out.push_back(harness::run_scenario(pipeline, p));
  }
  return out;
}

/// Core-hour cost of a phase: allocated nodes x 48 cores (Irene skylake)
/// x hours, as the paper's Figure 4 reports.
inline double core_hours(int nodes, double seconds) {
  return static_cast<double>(nodes) * 48.0 * seconds / 3600.0;
}

inline void print_header(const std::string& title, const std::string& note) {
  std::cout << "\n=== " << title << " ===\n";
  if (!note.empty()) std::cout << note << "\n";
}

}  // namespace bench
