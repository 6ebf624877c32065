// Design ablations (DESIGN.md §6): isolate each mechanism the paper's
// improvements rely on.
//   A. heartbeat interval (5 s / 60 s / infinity) — the DEISA1→2→3 axis
//   B. ahead-of-time single graph vs per-step submission over the SAME
//      external-task transport — isolates §3.2's contribution
//   C. contract selectivity — bytes moved and analytics time vs fraction
//   D. scheduler service-time sensitivity — validates that DEISA1's
//      slowdown is queueing at the centralized scheduler, not transport
#include "common.hpp"

int main() {
  using namespace bench;

  // ---------- A: heartbeat interval ----------
  {
    print_header("Ablation A — bridge heartbeat interval (64 procs)",
                 "DEISA1 = 5 s, DEISA2 = 60 s, DEISA3 = infinity");
    util::Table t({"mode", "comm mean (s)", "comm stddev (s)",
                   "bridge heartbeats"});
    harness::ScenarioParams p = paper_defaults();
    p.ranks = 64;
    p.workers = 32;
    p.block_bytes = 128ull << 20;
    for (auto [pl, label] : {std::pair{harness::Pipeline::kDeisa1, "DEISA1"},
                             std::pair{harness::Pipeline::kDeisa2, "DEISA2"},
                             std::pair{harness::Pipeline::kDeisa3, "DEISA3"}}) {
      const auto runs = run_many(pl, p);
      const auto s = iteration_stats(runs, &harness::RunResult::sim_io);
      std::uint64_t hb = 0;
      for (const auto& r : runs)
        hb += r.metrics.counter("scheduler.messages.heartbeat_bridge");
      t.add_row({label, util::Table::num(s.mean, 2),
                 util::Table::num(s.stddev, 2),
                 std::to_string(hb / runs.size())});
    }
    t.print(std::cout);
  }

  // ---------- B: AOT vs per-step graphs on external tasks ----------
  {
    print_header("Ablation B — ahead-of-time vs per-step submission "
                 "(DEISA3 transport, 32 procs / 16 workers)",
                 "isolates the single-graph contribution of §3.2");
    util::Table t({"graph submission", "analytics (s)", "update_graph msgs"});
    harness::ScenarioParams p = paper_defaults();
    p.ranks = 32;
    p.workers = 16;
    p.block_bytes = 128ull << 20;
    for (bool per_step : {false, true}) {
      p.force_per_step_analytics = per_step;
      const auto runs = run_many(harness::Pipeline::kDeisa3, p);
      const auto s = analytics_stats(runs);
      std::uint64_t g = 0;
      for (const auto& r : runs)
        g += r.metrics.counter("scheduler.messages.update_graph");
      t.add_row({per_step ? "per-step (old style)" : "single AOT graph",
                 ms(s), std::to_string(g / runs.size())});
    }
    t.print(std::cout);
  }

  // ---------- C: contract selectivity ----------
  {
    print_header("Ablation C — contract data filtering (DEISA3, 32 procs)",
                 "selection fraction of the Y dimension");
    util::Table t({"fraction", "blocks sent", "blocks filtered",
                   "network GiB", "analytics (s)"});
    harness::ScenarioParams p = paper_defaults();
    p.ranks = 32;
    p.workers = 16;
    p.block_bytes = 128ull << 20;
    for (double f : {1.0, 0.5, 0.25, 0.125}) {
      p.contract_fraction = f;
      const auto r = harness::run_scenario(harness::Pipeline::kDeisa3, p);
      const auto count = [&r](const char* name) {
        return r.metrics.counter(name);
      };
      t.add_row({util::Table::num(f, 3),
                 std::to_string(count("bridge.blocks_sent")),
                 std::to_string(count("bridge.blocks_filtered")),
                 util::Table::num(static_cast<double>(count("net.bytes")) /
                                      (1024.0 * 1024.0 * 1024.0),
                                  2),
                 util::Table::num(r.analytics_seconds, 2)});
    }
    t.print(std::cout);
  }

  // ---------- D: scheduler service-time sensitivity ----------
  {
    print_header("Ablation D — scheduler service-time sensitivity "
                 "(64 procs)",
                 "scaling the per-message service cost; DEISA1 degrades, "
                 "DEISA3 barely moves");
    util::Table t({"service scale", "DEISA1 comm (s)", "DEISA3 comm (s)"});
    // Beyond ~3x the background heartbeat load alone exceeds the
    // scheduler's capacity and DEISA1 diverges (queues grow without
    // bound) — itself a faithful property of a saturated centralized
    // scheduler. The sweep stays below that point; worker heartbeats are
    // relaxed to 5 s to isolate the per-message-cost effect.
    for (double scale : {0.5, 1.0, 2.0, 3.0}) {
      harness::ScenarioParams p = paper_defaults();
      p.ranks = 64;
      p.workers = 32;
      p.block_bytes = 128ull << 20;
      p.worker_heartbeat_interval = 5.0;
      p.sched.service_base *= scale;
      p.sched.service_per_task *= scale;
      p.sched.service_per_key *= scale;
      p.sched.service_queue_extra *= scale;
      const auto d1 = iteration_stats(run_many(harness::Pipeline::kDeisa1, p),
                                      &harness::RunResult::sim_io);
      const auto d3 = iteration_stats(run_many(harness::Pipeline::kDeisa3, p),
                                      &harness::RunResult::sim_io);
      t.add_row({util::Table::num(scale, 1), ms(d1), ms(d3)});
    }
    t.print(std::cout);
  }
  return 0;
}
