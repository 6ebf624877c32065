// Locality makespans over the seeded scenario corpus (src/testkit), on
// the simulated substrate where makespans are deterministic model
// predictions (modeled, not measured).
//
// For every scenario the bench records the end-to-end makespan and the
// critical-path category breakdown (compute / transfer / scheduler /
// idle seconds, via obs::analyze_critical_path on the run's trace). A
// makespan change means placement, the scheduler model or the corpus
// generator changed; replay one row with
// deisa_scenario --scenario-seed=<seed>.
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

namespace harness = deisa::harness;
namespace obs = deisa::obs;
namespace testkit = deisa::testkit;
namespace util = deisa::util;

namespace {

// Fixed corpus seed: the table (and its committed baseline) is a
// deterministic function of this value and --count.
constexpr std::uint64_t kCorpusSeed = 2026;

struct Row {
  std::string scenario;
  testkit::Family family{};
  std::uint64_t seed = 0;
  double makespan = 0.0;
  double compute = 0.0;
  double transfer = 0.0;
  double scheduler = 0.0;
  double idle = 0.0;
};

Row run_one(const testkit::GeneratedScenario& g) {
  harness::ScenarioParams p = g.params;
  p.trace = true;
  const harness::RunResult res = harness::run_scenario(g.pipeline, p);
  Row row;
  row.scenario = g.name;
  row.family = g.family;
  row.seed = g.seed;
  row.makespan = res.total_seconds;
  const obs::CriticalPathReport rep =
      obs::analyze_critical_path(obs::build_causal_graph(*res.trace));
  row.compute = rep.category(obs::Category::kCompute);
  row.transfer = rep.category(obs::Category::kTransfer);
  row.scheduler = rep.category(obs::Category::kScheduler);
  row.idle = rep.category(obs::Category::kIdle);
  return row;
}

void write_json(const std::string& path, const std::vector<Row>& rows) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"micro_policy\",\n  \"corpus_seed\": " << kCorpusSeed
    << ",\n  \"rows\": [\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const Row& r = rows[i];
    f << "    {\"scenario\": \"" << r.scenario << "\", \"family\": \""
      << testkit::to_string(r.family) << "\", \"seed\": " << r.seed
      << ", \"makespan\": " << r.makespan << ", \"compute_s\": " << r.compute
      << ", \"transfer_s\": " << r.transfer
      << ", \"scheduler_s\": " << r.scheduler << ", \"idle_s\": " << r.idle
      << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  f << "  ]\n}\n";
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

  std::cout << "\n=== locality makespans: " << corpus.size()
            << " seeded scenarios (simulated) ===\n";
  util::Table t({"scenario", "makespan", "compute", "transfer", "sched",
                 "idle"});
  std::vector<Row> rows;
  for (const testkit::GeneratedScenario& g : corpus) {
    const Row row = run_one(g);
    rows.push_back(row);
    t.add_row({row.scenario, util::Table::num(row.makespan, 3),
               util::Table::num(row.compute, 3),
               util::Table::num(row.transfer, 3),
               util::Table::num(row.scheduler, 3),
               util::Table::num(row.idle, 3)});
  }
  t.print(std::cout);

  write_json(out, rows);
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
