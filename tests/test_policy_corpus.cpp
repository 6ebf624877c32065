// Corpus property suite: every generated scenario doubles as a
// property test — both execution substrates must produce byte-identical
// analytics outputs (fitted singular values and explained variance);
// only makespans may differ. One gtest per family so a failure names the
// family and the SCOPED_TRACE names the replay seed.
//
// DEISA_CORPUS_COUNT sets the corpus size (default 10 for local runs;
// CI smoke runs 32). Fault-plan scenarios (slow-node) are sim-only.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "deisa/harness/scenario.hpp"
#include "deisa/testkit/corpus.hpp"

namespace harness = deisa::harness;
namespace testkit = deisa::testkit;

namespace {

// Distinct from micro_policy's corpus seed: the suite and the bench
// cover different corpora.
constexpr std::uint64_t kCorpusSeed = 77;

int corpus_count() {
  const char* e = std::getenv("DEISA_CORPUS_COUNT");
  const int n = e ? std::atoi(e) : 10;
  return std::max(n, static_cast<int>(testkit::kNumFamilies));
}

void check_family(testkit::Family family) {
  const std::vector<testkit::GeneratedScenario> corpus =
      testkit::generate_corpus(kCorpusSeed, corpus_count());
  int checked = 0;
  for (const testkit::GeneratedScenario& g : corpus) {
    if (g.family != family) continue;
    SCOPED_TRACE("scenario " + g.name + " (replay: deisa_scenario --scenario-seed=" +
                 std::to_string(g.seed) + ")");
    std::vector<double> ref_sv, ref_ev;
    for (const harness::Substrate sub :
         {harness::Substrate::kSim, harness::Substrate::kThreads}) {
      if (sub == harness::Substrate::kThreads && g.sim_only) continue;
      SCOPED_TRACE(harness::to_string(sub));
      harness::ScenarioParams p = g.params;
      p.substrate = sub;
      const harness::RunResult res = harness::run_scenario(g.pipeline, p);
      // Seed provenance survives the run end to end.
      EXPECT_EQ(res.scenario_seed, g.seed);
      ASSERT_FALSE(res.singular_values.empty());
      if (sub == harness::Substrate::kSim) {
        ref_sv = res.singular_values;
        ref_ev = res.explained_variance;
      } else {
        // Byte-identical, not approximately equal: a substrate changes
        // when work runs, it must never change what the work computes.
        EXPECT_EQ(res.singular_values, ref_sv);
        EXPECT_EQ(res.explained_variance, ref_ev);
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0) << "corpus produced no " << testkit::to_string(family)
                        << " scenario";
}

TEST(PolicyCorpus, DagShape) { check_family(testkit::Family::kDagShape); }
TEST(PolicyCorpus, SkewedBlocks) {
  check_family(testkit::Family::kSkewedBlocks);
}
TEST(PolicyCorpus, Bursty) { check_family(testkit::Family::kBursty); }
TEST(PolicyCorpus, MultiArray) { check_family(testkit::Family::kMultiArray); }
TEST(PolicyCorpus, SlowNode) { check_family(testkit::Family::kSlowNode); }

TEST(PolicyCorpus, SeedIsTheWholeScenario) {
  // The replay contract: one u64 rebuilds the identical scenario.
  for (std::uint64_t seed : {0ull, 1ull, 2ull, 3ull, 4ull, 987654321ull}) {
    const testkit::GeneratedScenario a = testkit::scenario_from_seed(seed);
    const testkit::GeneratedScenario b = testkit::scenario_from_seed(seed);
    EXPECT_EQ(a.name, b.name);
    EXPECT_EQ(a.family, b.family);
    EXPECT_EQ(a.pipeline, b.pipeline);
    EXPECT_EQ(a.params.ranks, b.params.ranks);
    EXPECT_EQ(a.params.workers, b.params.workers);
    EXPECT_EQ(a.params.timesteps, b.params.timesteps);
    EXPECT_EQ(a.params.block_bytes, b.params.block_bytes);
    EXPECT_EQ(a.params.arrays, b.params.arrays);
    EXPECT_EQ(a.params.alloc_seed, b.params.alloc_seed);
    EXPECT_EQ(a.params.scenario_seed, seed);
    EXPECT_EQ(static_cast<std::uint64_t>(a.family),
              seed % testkit::kNumFamilies);
  }
}

TEST(PolicyCorpus, CorpusCyclesFamilies) {
  const auto corpus = testkit::generate_corpus(kCorpusSeed, 10);
  ASSERT_EQ(corpus.size(), 10u);
  for (std::size_t i = 0; i < corpus.size(); ++i) {
    EXPECT_EQ(static_cast<std::uint64_t>(corpus[i].family),
              i % testkit::kNumFamilies);
    EXPECT_TRUE(corpus[i].params.real_data);  // generator invariant
  }
  // Deterministic: regeneration yields the same seeds.
  const auto again = testkit::generate_corpus(kCorpusSeed, 10);
  for (std::size_t i = 0; i < corpus.size(); ++i)
    EXPECT_EQ(corpus[i].seed, again[i].seed);
}

}  // namespace
