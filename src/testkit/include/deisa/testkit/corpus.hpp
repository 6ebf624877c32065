// Seeded scenario corpus — the generator behind the locality makespan
// table (bench/micro_policy), the corpus property suite (tests/
// test_policy_corpus.cpp) and `deisa_scenario --scenario-seed=`.
//
// Every scenario is a pure function of ONE 64-bit seed: the family is
// `seed % kNumFamilies` and every knob inside the family is drawn from
// an Rng seeded with the full value. That encoding is the replay
// contract — a corpus failure reports its seed, and
// `deisa_scenario --scenario-seed=N` rebuilds the identical
// ScenarioParams with no side-channel config file.
//
// Generator invariants (what makes every scenario a property test):
//   * real_data is always on, so the fitted singular values exist and
//     byte-identical analytics can be asserted across both substrates;
//   * problems are kept small (KiB blocks, <= 10 timesteps) so a full
//     32-scenario sweep on both substrates stays in CI smoke territory;
//   * fault-plan scenarios (slow-node family) are sim-only — fault
//     plans are virtual-time constructs (see GeneratedScenario.sim_only);
//   * everything else runs on both substrates.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"

namespace deisa::testkit {

/// Scenario families — one axis of workload stress each. The family is
/// the low bits of the seed, so seeds enumerate families round-robin.
enum class Family : std::uint8_t {
  kDagShape,      // random geometry: ranks/workers/steps/components/DAG
  kSkewedBlocks,  // skewed block sizes + narrowed contracts (load skew)
  kBursty,        // near-instant solver steps: pushes arrive in bursts
  kMultiArray,    // several virtual arrays, one IPCA fit per array
  kSlowNode,      // message-delay fault plan (sim substrate only)
};
inline constexpr std::uint64_t kNumFamilies = 5;

const char* to_string(Family f);

struct GeneratedScenario {
  std::string name;  // "<family>-<seed>", stable across runs
  Family family = Family::kDagShape;
  /// The single value that reproduces this scenario
  /// (`deisa_scenario --scenario-seed=<seed>`).
  std::uint64_t seed = 0;
  harness::Pipeline pipeline = harness::Pipeline::kDeisa3;
  harness::ScenarioParams params;
  /// Fault-plan scenarios cannot run on the threads substrate.
  bool sim_only = false;
};

/// Rebuild the exact scenario a seed encodes. Deterministic: same seed,
/// same GeneratedScenario, on every machine.
GeneratedScenario scenario_from_seed(std::uint64_t seed);

/// A deterministic corpus of `count` scenarios cycling through the
/// families (count >= kNumFamilies covers every family). Per-scenario
/// seeds are derived from `corpus_seed` via SplitMix64 with the family
/// bits pinned to `i % kNumFamilies`.
std::vector<GeneratedScenario> generate_corpus(std::uint64_t corpus_seed,
                                               int count);

}  // namespace deisa::testkit
