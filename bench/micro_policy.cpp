// Policy tournament: the seeded scenario corpus (src/testkit) x both
// scheduling policies, on the simulated substrate where makespans are
// deterministic model predictions (modeled, not measured).
//
// For every (scenario, policy) pair the driver records the end-to-end
// makespan and the critical-path category breakdown (compute / transfer
// / scheduler / idle seconds, via obs::analyze_critical_path on the
// run's trace), then:
//
//   * asserts the property the corpus encodes — both policies
//     produce byte-identical fitted singular values per scenario (only
//     timings may differ); any mismatch is a correctness regression and
//     the process exits nonzero with the offending seed printed
//     (replay: deisa_scenario --scenario-seed=<seed>);
//   * names the winning (lowest-makespan) policy per scenario family.
//
// Emits BENCH_policy.json (gated by ci/check_bench.py policy).
//
// Usage: micro_policy [--out BENCH_policy.json] [--count N]
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"
#include "deisa/obs/causal.hpp"
#include "deisa/testkit/corpus.hpp"
#include "deisa/util/table.hpp"

namespace dts = deisa::dts;
namespace harness = deisa::harness;
namespace obs = deisa::obs;
namespace testkit = deisa::testkit;
namespace util = deisa::util;

namespace {

// Fixed corpus seed: the tournament (and its committed baseline) is a
// deterministic function of this value and --count.
constexpr std::uint64_t kCorpusSeed = 2026;
constexpr int kNumPolicies = static_cast<int>(dts::kNumSchedulingPolicies);

struct Row {
  std::string scenario;
  testkit::Family family{};
  std::uint64_t seed = 0;
  dts::SchedulingPolicy policy{};
  double makespan = 0.0;
  double compute = 0.0;
  double transfer = 0.0;
  double scheduler = 0.0;
  double idle = 0.0;
};

Row run_one(const testkit::GeneratedScenario& g, dts::SchedulingPolicy pol,
            std::vector<double>* singular_values) {
  harness::ScenarioParams p = g.params;
  p.sched.policy = pol;
  p.trace = true;
  const harness::RunResult res = harness::run_scenario(g.pipeline, p);
  Row row;
  row.scenario = g.name;
  row.family = g.family;
  row.seed = g.seed;
  row.policy = pol;
  row.makespan = res.total_seconds;
  const obs::CriticalPathReport rep =
      obs::analyze_critical_path(obs::build_causal_graph(*res.trace));
  row.compute = rep.category(obs::Category::kCompute);
  row.transfer = rep.category(obs::Category::kTransfer);
  row.scheduler = rep.category(obs::Category::kScheduler);
  row.idle = rep.category(obs::Category::kIdle);
  *singular_values = res.singular_values;
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows,
                const std::vector<std::string>& winners, bool identical) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"micro_policy\",\n  \"corpus_seed\": " << kCorpusSeed
    << ",\n  \"identical_analytics\": " << (identical ? "true" : "false")
    << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"scenario\": \"" << r.scenario << "\", \"family\": \""
      << testkit::to_string(r.family) << "\", \"seed\": " << r.seed
      << ", \"policy\": \"" << dts::to_string(r.policy)
      << "\", \"makespan\": " << r.makespan << ", \"compute_s\": " << r.compute
      << ", \"transfer_s\": " << r.transfer
      << ", \"scheduler_s\": " << r.scheduler << ", \"idle_s\": " << r.idle
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ],\n  \"winner_by_family\": {";
  for (std::size_t fi = 0; fi < testkit::kNumFamilies; ++fi) {
    f << (fi ? ", " : "") << "\""
      << testkit::to_string(static_cast<testkit::Family>(fi)) << "\": \""
      << winners[fi] << "\"";
  }
  f << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string out = "BENCH_policy.json";
  int count = 10;  // two scenarios per family
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else if (a == "--count" && i + 1 < argc) {
      count = std::stoi(argv[++i]);
    } else {
      std::cerr << "usage: micro_policy [--out file.json] [--count N]\n";
      return 2;
    }
  }

  const std::vector<testkit::GeneratedScenario> corpus =
      testkit::generate_corpus(kCorpusSeed, count);

  std::vector<Row> rows;
  bool identical = true;
  // Per-family win tally (wins[family][policy]).
  std::vector<std::vector<int>> wins(
      testkit::kNumFamilies, std::vector<int>(kNumPolicies, 0));

  std::cout << "\n=== policy tournament: " << corpus.size()
            << " seeded scenarios x " << kNumPolicies
            << " policies (simulated) ===\n";
  util::Table t({"scenario", "policy", "makespan", "compute", "transfer",
                 "sched", "idle"});
  for (const testkit::GeneratedScenario& g : corpus) {
    std::vector<double> reference;
    double best_makespan = 0.0;
    int best_policy = -1;
    for (int pi = 0; pi < kNumPolicies; ++pi) {
      const auto pol = static_cast<dts::SchedulingPolicy>(pi);
      std::vector<double> sv;
      const Row row = run_one(g, pol, &sv);
      rows.push_back(row);
      t.add_row({row.scenario, dts::to_string(pol),
                 util::Table::num(row.makespan, 3),
                 util::Table::num(row.compute, 3),
                 util::Table::num(row.transfer, 3),
                 util::Table::num(row.scheduler, 3),
                 util::Table::num(row.idle, 3)});
      if (pi == 0) {
        reference = sv;
      } else if (sv != reference) {
        identical = false;
        std::cerr << "ANALYTICS MISMATCH: scenario " << g.name << " policy "
                  << dts::to_string(pol)
                  << " diverges from locality (replay: deisa_scenario "
                     "--scenario-seed="
                  << g.seed << ")\n";
      }
      if (best_policy < 0 || row.makespan < best_makespan) {
        best_makespan = row.makespan;
        best_policy = pi;
      }
    }
    ++wins[static_cast<std::size_t>(g.family)][best_policy];
  }
  t.print(std::cout);

  std::vector<std::string> winners(testkit::kNumFamilies, "-");
  std::cout << "\nwinning policy per family (lowest makespan, wins over the "
               "family's scenarios):\n";
  for (std::size_t fi = 0; fi < testkit::kNumFamilies; ++fi) {
    int best = 0;
    for (int pi = 1; pi < kNumPolicies; ++pi)
      if (wins[fi][pi] > wins[fi][best]) best = pi;
    winners[fi] = dts::to_string(static_cast<dts::SchedulingPolicy>(best));
    std::cout << "  " << testkit::to_string(static_cast<testkit::Family>(fi))
              << ": " << winners[fi] << "\n";
  }
  std::cout << "analytics byte-identical across all policies: "
            << (identical ? "yes" : "NO — REGRESSION") << "\n";

  write_json(out, rows, winners, identical);
  std::cout << "\nwrote " << out << "\n";
  return identical ? 0 : 1;
}
