// Figure 4a — strong scaling, simulation side, 8 GiB total problem size,
// 16→64 processes; cost in core-hours (allocated nodes x 48 cores x
// hours, two processes per node). Paper shape: the solver strong-scales
// (flat cost); post-hoc writes grow with the process count and reach
// ~x18 the DEISA3 communication cost at 64 processes; DEISA3 < DEISA1.
#include "common.hpp"

int main() {
  using namespace bench;
  print_header("Figure 4a — strong scaling cost, simulation side (8 GiB)",
               "paper: write cost rises with procs, x18 DEISA3 at 64; "
               "DEISA3 cheaper than DEISA1");
  util::Table table({"procs", "simulation (core-h)", "posthoc write (core-h)",
                     "DEISA1 comm (core-h)", "DEISA3 comm (core-h)",
                     "write/DEISA3"});
  const std::uint64_t total_bytes = 8ull << 30;
  for (int procs : {16, 32, 64}) {
    harness::ScenarioParams p = paper_defaults();
    p.ranks = procs;
    p.workers = std::max(2, procs / 2);
    p.block_bytes = total_bytes / static_cast<std::uint64_t>(procs);
    const int sim_nodes = procs / harness::kRanksPerNode;

    const auto ph = run_many(harness::Pipeline::kPosthocNewIpca, p);
    const auto d1 = run_many(harness::Pipeline::kDeisa1, p);
    const auto d3 = run_many(harness::Pipeline::kDeisa3, p);

    // Per-iteration phase seconds x timesteps -> phase core-hours.
    const auto phase_cost = [&](const std::vector<harness::RunResult>& runs,
                                const std::vector<std::vector<double>>
                                    harness::RunResult::* series,
                                int skip) {
      const auto s = iteration_stats(runs, series, skip);
      return core_hours(sim_nodes, s.mean * p.timesteps);
    };
    const double sim = phase_cost(d3, &harness::RunResult::sim_compute, 0);
    const double wr = phase_cost(ph, &harness::RunResult::sim_io, 1);
    const double c1 = phase_cost(d1, &harness::RunResult::sim_io, 0);
    const double c3 = phase_cost(d3, &harness::RunResult::sim_io, 0);
    table.add_row({std::to_string(procs), util::Table::num(sim, 2),
                   util::Table::num(wr, 2), util::Table::num(c1, 2),
                   util::Table::num(c3, 2),
                   "x" + util::Table::num(wr / c3, 1)});
  }
  table.print(std::cout);
  return 0;
}
