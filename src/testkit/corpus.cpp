#include "deisa/testkit/corpus.hpp"

#include "deisa/util/rng.hpp"

namespace deisa::testkit {

const char* to_string(Family f) {
  switch (f) {
    case Family::kDagShape: return "dag-shape";
    case Family::kSkewedBlocks: return "skewed-blocks";
    case Family::kBursty: return "bursty";
    case Family::kMultiArray: return "multi-array";
    case Family::kSlowNode: return "slow-node";
  }
  return "?";
}

GeneratedScenario scenario_from_seed(std::uint64_t seed) {
  GeneratedScenario g;
  g.seed = seed;
  g.family = static_cast<Family>(seed % kNumFamilies);
  util::Rng rng(seed);

  harness::ScenarioParams& p = g.params;
  // Corpus base: tiny functional problems. real_data keeps the fitted
  // singular values around for the byte-identity property; KiB blocks
  // (edge 32..64 doubles) keep a 32-scenario sweep in smoke
  // territory; time_scale compresses threads-substrate model sleeps.
  p.real_data = true;
  p.scenario_seed = seed;
  p.time_scale = 0.005;
  p.timesteps = 3 + static_cast<int>(rng.uniform_index(4));        // 3..6
  p.ranks = 2 * (1 + static_cast<int>(rng.uniform_index(3)));      // 2,4,6
  p.workers = 2 + static_cast<int>(rng.uniform_index(3));          // 2..4
  p.block_bytes = 8ull * 1024 << rng.uniform_index(3);  // 8/16/32 KiB
  p.n_components = 1 + rng.uniform_index(2);                       // 1..2
  p.alloc_seed = 1 + rng.next_u64() % 1024;
  // External-task pipelines only: the corpus stresses placement of the
  // in-transit workflows (DEISA1's per-step queues pin their own order).
  g.pipeline = rng.uniform() < 0.3 ? harness::Pipeline::kDeisa2
                                   : harness::Pipeline::kDeisa3;

  switch (g.family) {
    case Family::kDagShape:
      // Random DAG shapes: geometry plus the graph-construction axis —
      // per-step submission builds a genuinely different task graph than
      // the ahead-of-time fit.
      p.ranks = 2 * (1 + static_cast<int>(rng.uniform_index(4)));  // 2..8
      p.n_components = 1 + rng.uniform_index(3);                   // 1..3
      p.timesteps = 3 + static_cast<int>(rng.uniform_index(6));    // 3..8
      p.force_per_step_analytics = rng.uniform() < 0.5;
      break;
    case Family::kSkewedBlocks:
      // Skewed block sizes and narrowed contracts: filtered blocks mean
      // some ranks' pushes never reach the workers, skewing load.
      p.block_bytes = 4ull * 1024 << rng.uniform_index(5);  // 4..64 KiB
      p.contract_fraction = rng.uniform() < 0.5 ? 0.5 : 1.0;
      p.workers = 3 + static_cast<int>(rng.uniform_index(2));      // 3..4
      break;
    case Family::kBursty:
      // Bursty timesteps: a solver 10..100x faster than the calibrated
      // rate floods the bridges, so whole waves of pushes land inside
      // one scheduler service window.
      p.sim_cell_rate = 7.0e7 * static_cast<double>(1 + rng.uniform_index(10));
      p.timesteps = 6 + static_cast<int>(rng.uniform_index(5));    // 6..10
      break;
    case Family::kMultiArray:
      // Multi-array workflows: every rank pushes a block per array per
      // step and the adaptor fits one IPCA per array.
      p.arrays = 2 + static_cast<int>(rng.uniform_index(2));       // 2..3
      p.ranks = 2 * (1 + static_cast<int>(rng.uniform_index(2)));  // 2,4
      p.timesteps = 3 + static_cast<int>(rng.uniform_index(3));    // 3..5
      break;
    case Family::kSlowNode:
      // Slow-node plans: a fraction of messages (pushes included) take a
      // detour well under the failure-detector timeout — congestion, not
      // loss. Virtual-time constructs, so sim-substrate only.
      p.faults.delay_prob = 0.2 + 0.4 * rng.uniform();
      p.faults.delay_seconds = 0.02 + 0.1 * rng.uniform();
      p.faults.seed = rng.next_u64();
      g.sim_only = true;
      break;
  }
  g.name = std::string(to_string(g.family)) + "-" + std::to_string(seed);
  return g;
}

std::vector<GeneratedScenario> generate_corpus(std::uint64_t corpus_seed,
                                               int count) {
  std::vector<GeneratedScenario> out;
  util::SplitMix64 sm(corpus_seed);
  for (int i = 0; i < count; ++i) {
    // Pin the family bits so the corpus cycles through families even
    // though the upper bits are random draws.
    const std::uint64_t base = sm.next();
    const std::uint64_t seed =
        base - base % kNumFamilies + static_cast<std::uint64_t>(i) % kNumFamilies;
    out.push_back(scenario_from_seed(seed));
  }
  return out;
}

}  // namespace deisa::testkit
