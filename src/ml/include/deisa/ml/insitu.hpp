// Distributed (multidimensional, incremental) PCA over the task system —
// the `InSituIncrementalPCA` of the paper's Listing 2 / §3.2.
//
// Two graph-construction strategies are implemented, matching the paper's
// "old IPCA" vs "new IPCA" comparison:
//   * fit_ahead_of_time(): the whole multi-timestep fit is built as ONE
//     task graph and submitted once. Shared inputs are materialized once
//     (a file chunk is read once, an external chunk used in place), and
//     the time dimension is abstracted away — this is only possible
//     because external tasks let graphs reference future data.
//   * fit_per_step(): one graph per partial_fit, submitted per timestep
//     (the dask-ml baseline). Chunk providers are asked for fresh inputs
//     per submission, so post hoc runs re-read shared data from disk —
//     reproducing the duplicated-read effect described in §3.3.1.
#pragma once

#include <functional>
#include <string>

#include "deisa/array/darray.hpp"
#include "deisa/ml/pca.hpp"

namespace deisa::ml {

/// The randomized solver as the cost model prices it: effective compute
/// rate of the stacked SVD (flop/s), sketch width (n_components +
/// oversampling) and power iterations (Listing 2 selects
/// svd_solver='randomized'). The model prices 2 power iterations, not the
/// solver's kSketchPowerIters (DESIGN.md §5 item 5).
inline constexpr double kModelFlopsRate = 2.0e9;
inline constexpr std::size_t kModelSketchWidth = 12;
inline constexpr std::size_t kModelPowerIters = 2;

/// Cost model for synthetic (paper-scale) runs: converts task work into
/// simulated seconds charged on the executing worker.
struct AnalyticsCostModel {
  /// Per-byte cost of assembling a timestep slab from chunks.
  double assemble_bytes_rate = 4.0e9;
  /// Multiplier on all update costs. 1.0 = the new IPCA's randomized
  /// solver; the old dask-ml IPCA's exact solver is ≈ 2.5x dearer.
  double cost_multiplier = 1.0;

  double assemble_cost(std::uint64_t slab_bytes) const {
    return static_cast<double>(slab_bytes) / assemble_bytes_rate;
  }
  /// Stacked SVD on a (k + samples + 1) x features matrix, via the
  /// randomized solver: O(m·f·l) per power pass instead of O(m·f·min).
  double partial_fit_cost(std::size_t samples, std::size_t features,
                          std::size_t k) const {
    const double rows = static_cast<double>(k + samples + 1);
    const double f = static_cast<double>(features);
    const double l = static_cast<double>(kModelSketchWidth);
    const double passes = 2.0 * static_cast<double>(kModelPowerIters) + 2.0;
    return cost_multiplier * 2.0 * rows * f * l * passes / kModelFlopsRate;
  }
  /// Per-chunk share of the randomized sketch (distributed update).
  double sketch_cost(std::uint64_t chunk_elems) const {
    const double passes = 2.0 * static_cast<double>(kModelPowerIters) + 2.0;
    return cost_multiplier * 2.0 * static_cast<double>(chunk_elems) *
           static_cast<double>(kModelSketchWidth) * passes / kModelFlopsRate;
  }
  /// Combine sketches + small SVD + state update.
  double merge_cost(std::size_t features, std::size_t nchunks) const {
    const double f = static_cast<double>(features);
    const double l = static_cast<double>(kModelSketchWidth);
    return cost_multiplier *
           (2.0 * f * l * l + static_cast<double>(nchunks) * l * l) /
           kModelFlopsRate;
  }
};

/// Source of per-timestep input chunks for the analytics graphs (IPCA and
/// monitor). Implemented over external arrays (in transit) and over file
/// readers (post hoc).
class ChunkProvider {
public:
  virtual ~ChunkProvider() = default;
  /// Spatiotemporal grid; dimension 0 is time (the deisa timedim tag).
  virtual const array::ChunkGrid& grid() const = 0;
  /// Keys of the chunks of timestep `t`, in the order of
  /// grid().step_chunks(t).
  /// `submission` distinguishes separate graph submissions: providers
  /// whose chunks must be re-materialized per submission (file reads)
  /// return fresh keys/tasks for each submission; external providers
  /// return the same keys regardless.
  virtual std::vector<dts::Key> chunks(int submission, std::int64_t t,
                                       std::vector<dts::TaskSpec>& tasks) = 0;
};

/// ChunkProvider over an external-task DArray (the in-transit case), or
/// over the chunks of a block-aligned box of it (a contract's selection):
/// the box's chunks form a grid of their own, whose chunk c is the
/// array's chunk c + the box's first chunk.
class ExternalArrayProvider final : public ChunkProvider {
public:
  explicit ExternalArrayProvider(const array::DArray& darray);
  /// `box` starts on a chunk boundary and ends on one or at the array's
  /// edge in every dimension (throws otherwise).
  ExternalArrayProvider(const array::DArray& darray, const array::Box& box);
  const array::ChunkGrid& grid() const override { return grid_; }
  std::vector<dts::Key> chunks(int submission, std::int64_t t,
                               std::vector<dts::TaskSpec>& tasks) override;

private:
  const array::DArray* darray_;
  array::ChunkGrid grid_;
  array::Index first_chunk_;  // the box's first chunk in the array's grid
};

struct InSituIpcaOptions {
  PcaOptions pca;
  /// Dimension labels of the input array, time first (Listing 2:
  /// ["t", "X", "Y"]).
  std::vector<std::string> labels;
  /// Labels of the dimensions stacked into samples (rows).
  std::vector<std::string> sample_labels;
  /// Labels of the dimensions stacked into features (columns).
  std::vector<std::string> feature_labels;
  AnalyticsCostModel cost;
  /// Key namespace for this fit's tasks.
  std::string name = "ipca";
  /// Build the dask-ml-like DISTRIBUTED update per step: one randomized-
  /// sketch task per input chunk (running with data locality on the
  /// worker holding the chunk) plus a small merge/state task — instead of
  /// assembling a slab and fitting in a single task. Synthetic runs only:
  /// sketch/merge tasks carry cost models, not callables.
  bool distributed_update = false;
};

/// Handle on a submitted fit: final state + derived result keys.
struct IpcaFit {
  dts::Key state_key;               // final IncrementalPca state
  dts::Key explained_variance_key;  // vector<double>
  dts::Key singular_values_key;     // vector<double>
  int submissions = 0;              // graphs submitted (1 for AOT)
};

class InSituIncrementalPca {
public:
  InSituIncrementalPca(dts::Client& client, InSituIpcaOptions opts);

  /// Build and submit the WHOLE fit as one graph (new IPCA).
  exec::Co<IpcaFit> fit_ahead_of_time(ChunkProvider& provider);

  /// Submit one graph per timestep, waiting for each partial_fit to
  /// finish before submitting the next (old IPCA). `before_step`, when
  /// set, is awaited before each step's graph is built (DEISA1 waits
  /// there for every rank's ready token).
  exec::Co<IpcaFit> fit_per_step(
      ChunkProvider& provider,
      std::function<exec::Co<void>()> before_step = {});

  /// Gather the fitted IncrementalPca state (functional mode).
  exec::Co<IncrementalPca> collect_state(const IpcaFit& fit);
  /// Gather a result vector (functional mode).
  exec::Co<std::vector<double>> collect_vector(const dts::Key& key);

  // ---- low-level graph building (for callers that submit the graphs
  // themselves) ----
  /// Append the tasks of timestep t: the slab-assembly and partial_fit
  /// tasks, or with `distributed_update` the per-chunk sketches and their
  /// merge.
  void build_step(ChunkProvider& provider, int submission, std::int64_t t,
                  std::vector<dts::TaskSpec>& tasks);
  /// Append the result-extraction tasks after the last timestep.
  void build_outputs(std::vector<dts::TaskSpec>& tasks, std::int64_t steps);
  dts::Key state_key(std::int64_t t) const;
  /// Fit handle for externally-driven (step-by-step) fits.
  IpcaFit fit_info(std::int64_t steps, int submissions) const;

private:
  dts::Key slab_key(int submission, std::int64_t t) const;

  std::size_t samples_per_step() const;
  std::size_t features() const;

  dts::Client* client_;
  InSituIpcaOptions opts_;
  array::Index slab_shape_;  // shape of one timestep slab (time extent 1)
  std::vector<std::size_t> sample_dims_;  // dim indices within the slab
};

}  // namespace deisa::ml
