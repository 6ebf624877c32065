// deisa_scenario — run any of the paper's five workflow pipelines from a
// YAML description and print the measured timings.
//
//   $ deisa_scenario [--trace-out trace.json] [--metrics-out metrics.json]
//         [--metrics-format=table|json] my_run.yaml
//   $ deisa_scenario --scenario-seed=N [--substrate=...]   # corpus replay
//
//   # my_run.yaml
//   pipeline: DEISA3         # DEISA1|DEISA2|DEISA3|posthoc-old|posthoc-new
//   ranks: 64
//   workers: 32
//   block_mib: 128
//   block_kib: 0             # optional: sub-MiB blocks (wins over
//                            #           block_mib; tiny functional runs)
//   timesteps: 10
//   runs: 3
//   seed: 1000
//   contract_fraction: 1.0   # optional: fraction of Y kept by the contract
//   arrays: 1                # optional: multi-array workflow (DEISA2/3)
//   real_data: false         # optional: move real Heat2D data (small runs)
//   n_components: 2          # optional: IPCA components (real_data runs)
//   faults: "kill:1@30"      # optional: fault plan (the --fault= spec)
//   substrate: sim           # optional: sim (default) | threads
//   substrate_threads: 0     # optional: threads backend worker count
//   release_consumed: false  # optional: refcount-GC consumed keys
//                            #           (--release-consumed= wins)
//   shards: 1                # optional: scheduler shards (--shards= wins)
//   time_scale: 0.05         # optional: wall seconds per model second
//   trace_capacity: 1048576  # optional: trace ring size (events; a full
//                            #           ring evicts its oldest event)
//
// Every top-level config key must be one of the keys listed above: a
// misspelled or retired key aborts with exit code 2 and the known-key
// list instead of silently running the default.
//
// --scenario-seed=N replays a generated corpus scenario (src/testkit):
// the seed fully determines the ScenarioParams, so a corpus/micro_policy
// failure reproduces with no config file. --substrate/--fault/--shards/
// --release-consumed/--trace-out still apply on top.
//
// --substrate=threads (or `substrate: threads`) runs the same actor code
// on the real-thread executor/transport instead of the simulator: outputs
// are functional (real_data analytics match the sim bit for bit) but the
// timing columns are wall-clock artifacts, not model predictions. Fault
// plans require the sim substrate.
//
// The faults key takes the compact spec string of --fault, e.g.
// "kill:1@30;drop:0.01;dup:0.02;delay:0.05@0.2;seed:7" (see
// fault::FaultPlan::parse). --fault=SPEC overrides the config. Same plan
// + same seed reproduces the same failure trace bit for bit.
//
// --shards=N partitions the scheduler key space across N scheduler
// actors (dts::ShardedScheduler). N=1 (the default) is bit-identical to
// the single scheduler. N>1 composes with --fault= (shard 0 is the
// liveness authority and broadcasts worker deaths to its peers) and
// with --release-consumed= (cross-shard consumers are charged through
// the subscription slices and drained back via release acks; see
// DESIGN.md §5j).
//
// Every option accepts both `--flag value` and `--flag=value`. Unknown
// options abort with exit code 2 and the known-flag list.
//
// --trace-out records the first run's event trace and writes it as Chrome
// trace-event JSON (open in ui.perfetto.dev or chrome://tracing, or feed
// to deisa_trace; a .csv extension switches to flat CSV). --metrics-out
// dumps the first run's counters/gauges/histograms, as JSON by default or
// as aligned text tables with --metrics-format=table. Output paths are
// probed before the run so a typo fails fast with a non-zero exit.
#include <algorithm>
#include <fstream>
#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "deisa/config/yaml.hpp"
#include "deisa/fault/fault.hpp"
#include "deisa/harness/scenario.hpp"
#include "deisa/obs/export.hpp"
#include "deisa/testkit/corpus.hpp"
#include "deisa/util/table.hpp"
#include "deisa/util/units.hpp"

namespace cfg = deisa::config;
namespace fault = deisa::fault;
namespace harness = deisa::harness;
namespace obs = deisa::obs;
namespace testkit = deisa::testkit;
namespace util = deisa::util;

namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::ofstream open_out(const std::string& path) {
  std::ofstream out(path);
  if (!out) throw util::ConfigError("cannot open '" + path + "' for writing");
  return out;
}

/// Fail fast on unwritable output paths: a typo'd --trace-out directory
/// should abort before the (possibly long) run, not after it.
void check_writable(const std::string& path) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  if (!probe)
    throw util::ConfigError("cannot open '" + path + "' for writing");
}

/// Parse the `faults:` config key: the compact spec string of --fault.
fault::FaultPlan faults_of(const cfg::Node& node) {
  if (!node.is_scalar())
    throw util::ConfigError(
        "faults: expected a spec string such as "
        "\"kill:1@30;drop:0.01;dup:0.02;delay:0.05@0.2;seed:7\"");
  return fault::FaultPlan::parse(node.as_string());
}

harness::Substrate substrate_of(const std::string& name) {
  if (name == "sim") return harness::Substrate::kSim;
  if (name == "threads") return harness::Substrate::kThreads;
  throw util::ConfigError("unknown substrate '" + name +
                          "' (expected sim|threads)");
}

harness::Pipeline pipeline_of(const std::string& name) {
  if (name == "DEISA1") return harness::Pipeline::kDeisa1;
  if (name == "DEISA2") return harness::Pipeline::kDeisa2;
  if (name == "DEISA3") return harness::Pipeline::kDeisa3;
  if (name == "posthoc-old") return harness::Pipeline::kPosthocOldIpca;
  if (name == "posthoc-new") return harness::Pipeline::kPosthocNewIpca;
  throw util::ConfigError(
      "unknown pipeline '" + name +
      "' (expected DEISA1|DEISA2|DEISA3|posthoc-old|posthoc-new)");
}

/// Parsed command line. Every value-taking option lands in one slot; the
/// known-flag table below maps names to slots.
struct Flags {
  std::string config;
  std::string trace_out;
  std::string metrics_out;
  std::string metrics_format = "json";
  std::string fault_spec;
  std::string substrate;
  std::string scenario_seed;
  std::string shards;
  std::string release_consumed;
};

/// Known value-taking options, each accepted as `--name value` or
/// `--name=value`. An option not in this table aborts with exit code 2
/// and prints the list.
struct FlagSpec {
  const char* name;
  std::string Flags::* slot;
};

const FlagSpec kFlagTable[] = {
    {"--trace-out", &Flags::trace_out},
    {"--metrics-out", &Flags::metrics_out},
    {"--metrics-format", &Flags::metrics_format},
    {"--fault", &Flags::fault_spec},
    {"--substrate", &Flags::substrate},
    {"--scenario-seed", &Flags::scenario_seed},
    {"--shards", &Flags::shards},
    {"--release-consumed", &Flags::release_consumed},
};

/// Known top-level config keys (the header comment documents each). A
/// key not in this table aborts with exit code 2 and prints the list.
const char* const kConfigKeys[] = {
    "pipeline", "ranks", "workers", "block_mib", "block_kib", "timesteps",
    "runs", "seed", "arrays", "real_data", "contract_fraction",
    "n_components", "faults", "substrate", "substrate_threads",
    "shards", "release_consumed", "time_scale", "trace_capacity",
};

/// The config's top-level keys that kConfigKeys does not list.
std::vector<std::string> unknown_config_keys(const cfg::Node& doc) {
  std::vector<std::string> unknown;
  if (!doc.is_map()) return unknown;
  for (const auto& [key, value] : doc.as_map())
    if (std::find(std::begin(kConfigKeys), std::end(kConfigKeys), key) ==
        std::end(kConfigKeys))
      unknown.push_back(key);
  return unknown;
}

bool bool_of(const std::string& name, const std::string& value) {
  if (value == "true" || value == "1" || value == "on") return true;
  if (value == "false" || value == "0" || value == "off") return false;
  throw util::ConfigError("unknown " + name + " value '" + value +
                          "' (expected true|false)");
}

int run(const Flags& flags) {
  const std::string& path = flags.config;
  const std::string& trace_out = flags.trace_out;
  const std::string& metrics_out = flags.metrics_out;
  const std::string& metrics_format = flags.metrics_format;
  const std::string& fault_spec = flags.fault_spec;
  const std::string& substrate_flag = flags.substrate;
  const std::string& scenario_seed_flag = flags.scenario_seed;
  check_writable(trace_out);
  check_writable(metrics_out);

  harness::ScenarioParams p;
  harness::Pipeline pipeline = harness::Pipeline::kDeisa3;
  int runs = 1;
  std::uint64_t seed = 1000;
  if (!scenario_seed_flag.empty()) {
    // Corpus replay: the seed alone rebuilds the generated scenario.
    const auto g = testkit::scenario_from_seed(
        std::stoull(scenario_seed_flag));
    p = g.params;
    pipeline = g.pipeline;
    seed = p.alloc_seed;
    if (!substrate_flag.empty()) p.substrate = substrate_of(substrate_flag);
    if (!fault_spec.empty()) p.faults = fault::FaultPlan::parse(fault_spec);
    std::cout << "generated scenario " << g.name << " (family "
              << testkit::to_string(g.family) << ", seed " << g.seed
              << (g.sim_only ? ", sim-only" : "") << ")\n";
  } else {
    const cfg::Node doc = cfg::parse_yaml_file(path);
    if (const auto unknown = unknown_config_keys(doc); !unknown.empty()) {
      for (const std::string& key : unknown)
        std::cerr << "unknown config key '" << key << "' in " << path << "\n";
      std::cerr << "known keys:";
      for (const char* k : kConfigKeys) std::cerr << " " << k;
      std::cerr << "\n";
      return 2;
    }
    pipeline = pipeline_of(doc.get_string("pipeline", "DEISA3"));
    p.substrate = substrate_of(!substrate_flag.empty()
                                   ? substrate_flag
                                   : doc.get_string("substrate", "sim"));
    p.substrate_threads =
        static_cast<int>(doc.get_int("substrate_threads", 0));
    p.time_scale = doc.get_double("time_scale", p.time_scale);
    p.release_consumed = doc.get_bool("release_consumed", false);
    p.shards = static_cast<int>(doc.get_int("shards", 1));
    p.ranks = static_cast<int>(doc.get_int("ranks", 4));
    p.workers = static_cast<int>(doc.get_int("workers", 2));
    p.block_bytes =
        static_cast<std::uint64_t>(doc.get_int("block_mib", 128)) * util::kMiB;
    if (const std::int64_t kib = doc.get_int("block_kib", 0); kib > 0)
      p.block_bytes = static_cast<std::uint64_t>(kib) * 1024;
    p.timesteps = static_cast<int>(doc.get_int("timesteps", 10));
    p.contract_fraction = doc.get_double("contract_fraction", 1.0);
    p.arrays = static_cast<int>(doc.get_int("arrays", 1));
    p.real_data = doc.get_bool("real_data", false);
    p.n_components =
        static_cast<std::size_t>(doc.get_int("n_components", 2));
    p.trace_capacity = static_cast<std::size_t>(
        doc.get_int("trace_capacity",
                    static_cast<std::int64_t>(p.trace_capacity)));
    runs = static_cast<int>(doc.get_int("runs", 1));
    seed = static_cast<std::uint64_t>(doc.get_int("seed", 1000));
    if (!fault_spec.empty()) {
      p.faults = fault::FaultPlan::parse(fault_spec);
    } else if (const cfg::Node* f = doc.find("faults")) {
      p.faults = faults_of(*f);
    }
  }
  // The flags win over both the yaml knobs and the generated defaults.
  if (!flags.shards.empty()) p.shards = std::stoi(flags.shards);
  if (!flags.release_consumed.empty())
    p.release_consumed = bool_of("--release-consumed", flags.release_consumed);

  std::cout << "pipeline " << harness::to_string(pipeline) << ": " << p.ranks
            << " ranks x " << util::format_bytes(p.block_bytes) << " x "
            << p.timesteps << " steps, " << p.workers << " workers, " << runs
            << " run(s), substrate " << harness::to_string(p.substrate)
            << (p.release_consumed ? " +gc" : "") << "\n";
  if (p.arrays > 1) std::cout << "arrays: " << p.arrays << "\n";
  if (p.shards > 1) std::cout << "scheduler shards: " << p.shards << "\n";
  if (p.substrate == harness::Substrate::kThreads)
    std::cout << "note: threads substrate timings are wall-clock artifacts"
                 " (time_scale " << p.time_scale
              << "), not model predictions\n";
  if (!p.faults.empty())
    std::cout << "faults: " << p.faults.describe() << "\n";

  util::Table t({"run", "sim compute (s/iter)", "sim io (s/iter)",
                 "analytics (s)", "total (s)", "scheduler msgs"});
  for (int i = 0; i < runs; ++i) {
    p.alloc_seed = seed + static_cast<std::uint64_t>(i) * 77;
    // Only the first run is traced: the point of the trace is a timeline
    // to look at, and run 1 is as representative as any.
    p.trace = i == 0 && !trace_out.empty();
    const auto r = harness::run_scenario(pipeline, p);
    const auto count = [&r](const std::string& name) {
      return r.metrics.counter(name);
    };
    if (p.trace && r.trace != nullptr) {
      auto out = open_out(trace_out);
      if (ends_with(trace_out, ".csv")) {
        obs::write_trace_csv(*r.trace, out);
      } else {
        obs::write_chrome_trace(*r.trace, out);
      }
      std::cout << "trace: " << r.trace->size() << " events ("
                << r.trace->dropped() << " dropped) -> " << trace_out << "\n";
    }
    if (i == 0 && !metrics_out.empty()) {
      auto out = open_out(metrics_out);
      if (metrics_format == "table") {
        obs::write_metrics_table(r.metrics, out);
      } else {
        obs::write_metrics_json(r.metrics, out);
      }
      std::cout << "metrics: " << r.metrics.counters.size() << " counters, "
                << r.metrics.histograms.size() << " histograms -> "
                << metrics_out << "\n";
    }
    const auto sim = r.iteration_summary(r.sim_compute);
    const auto io = r.iteration_summary(r.sim_io);
    t.add_row({std::to_string(i + 1),
               util::Table::num(sim.mean, 2) + " ± " +
                   util::Table::num(sim.stddev, 2),
               util::Table::num(io.mean, 2) + " ± " +
                   util::Table::num(io.stddev, 2),
               util::Table::num(r.analytics_seconds, 2),
               util::Table::num(r.total_seconds, 2),
               std::to_string(count("scheduler.messages.total"))});
    if (p.real_data && !r.singular_values.empty()) {
      std::cout << "  fitted singular values:";
      for (double s : r.singular_values) std::cout << " " << s;
      std::cout << "\n";
    }
    if (p.shards > 1) {
      std::cout << "  shard msgs:";
      for (std::uint64_t m : r.shard_messages) std::cout << " " << m;
      std::cout << " (remote edges " << count("scheduler.shard.remote_edges")
                << ", notify msgs " << count("scheduler.shard.notify_msgs")
                << ", release acks " << count("scheduler.shard.release_acks")
                << ")\n";
    }
    if (!p.faults.empty()) {
      std::cout << "  recovery: killed " << count("fault.workers_killed");
      for (const char* n :
           {"workers_lost", "tasks_rerun", "keys_recomputed",
            "external_rearmed", "external_rerouted", "mirrors_rearmed",
            "keys_lost", "repush_expired"})
        std::cout << ", " << n << " "
                  << count(std::string("scheduler.recovery.") + n);
      std::cout << ", blocks_repushed " << count("bridge.blocks_repushed")
                << "\n  stale: task_finished "
                << count("scheduler.stale.task_finished") << ", update_data "
                << count("scheduler.stale.update_data") << ", heartbeats "
                << count("scheduler.stale.heartbeats") << "\n";
      if (p.shards > 1) {
        for (std::size_t s = 0; s < r.shard_recovery.size(); ++s) {
          const auto& sr = r.shard_recovery[s];
          std::cout << "    shard " << s << ": tasks_rerun " << sr.tasks_rerun
                    << ", keys_recomputed " << sr.keys_recomputed
                    << ", external_rearmed " << sr.external_rearmed
                    << ", mirrors_rearmed " << sr.mirrors_rearmed
                    << ", keys_lost " << sr.keys_lost << "\n";
        }
      }
    }
  }
  t.print(std::cout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (!a.empty() && a[0] == '-') {
      bool matched = false;
      for (const FlagSpec& f : kFlagTable) {
        const std::string name = f.name;
        if (a == name) {
          if (i + 1 >= argc) {
            std::cerr << "option '" << name << "' requires a value\n";
            return 2;
          }
          flags.*f.slot = argv[++i];
          matched = true;
          break;
        }
        if (a.rfind(name + "=", 0) == 0) {
          flags.*f.slot = a.substr(name.size() + 1);
          matched = true;
          break;
        }
      }
      if (!matched) {
        std::cerr << "unknown option '" << a << "'\nknown flags:";
        for (const FlagSpec& f : kFlagTable)
          std::cerr << " " << f.name << "=VALUE";
        std::cerr << "\n";
        return 2;
      }
    } else if (flags.config.empty()) {
      flags.config = a;
    } else {
      flags.config.clear();
      break;
    }
  }
  if (flags.metrics_format != "table" && flags.metrics_format != "json") {
    std::cerr << "unknown metrics format '" << flags.metrics_format
              << "' (expected table|json)\n";
    return 2;
  }
  if (flags.config.empty() && flags.scenario_seed.empty()) {
    std::cerr << "usage: deisa_scenario [--trace-out FILE] "
                 "[--metrics-out FILE] [--metrics-format=table|json] "
                 "[--fault=SPEC] [--substrate=sim|threads] "
                 "[--shards=N] [--release-consumed=true|false] "
                 "(<config.yaml> | --scenario-seed=N)\n";
    return 2;
  }
  if (!flags.config.empty() && !flags.scenario_seed.empty()) {
    std::cerr << "--scenario-seed replaces the config file; pass one or the "
                 "other\n";
    return 2;
  }
  try {
    return run(flags);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
