#include "deisa/ml/insitu.hpp"

#include <algorithm>

#include "deisa/util/error.hpp"

namespace deisa::ml {

namespace arr = array;

std::vector<dts::Key> ExternalArrayProvider::chunks(
    int /*submission*/, std::int64_t t, std::vector<dts::TaskSpec>& /*tasks*/) {
  // External chunks exist independently of submissions: same keys always.
  const arr::ChunkGrid& g = darray_->grid();
  std::vector<dts::Key> keys;
  arr::Box slab_box;
  slab_box.lo.assign(g.ndim(), 0);
  slab_box.hi = g.shape();
  slab_box.lo[0] = t;
  slab_box.hi[0] = t + 1;
  for (const arr::Index& c : g.chunks_overlapping(slab_box))
    keys.push_back(darray_->key_of(c));
  return keys;
}

InSituIncrementalPca::InSituIncrementalPca(dts::Client& client,
                                           InSituIpcaOptions opts)
    : client_(&client), opts_(std::move(opts)) {
  DEISA_CHECK(!opts_.labels.empty(), "labels must be provided");
  DEISA_CHECK(!opts_.sample_labels.empty(), "sample labels must be provided");
  DEISA_CHECK(!opts_.feature_labels.empty(),
              "feature labels must be provided");
}

namespace {
std::size_t label_index(const std::vector<std::string>& labels,
                        const std::string& l) {
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == l) return i;
  throw util::ConfigError("unknown dimension label: " + l);
}
}  // namespace

dts::Key InSituIncrementalPca::slab_key(int submission, std::int64_t t) const {
  return opts_.name + "/slab/s" + std::to_string(submission) + "/t" +
         std::to_string(t);
}

dts::Key InSituIncrementalPca::state_key(std::int64_t t) const {
  return opts_.name + "/state/t" + std::to_string(t);
}

std::size_t InSituIncrementalPca::samples_per_step() const {
  std::size_t m = 1;
  for (const std::string& l : opts_.sample_labels)
    m *= static_cast<std::size_t>(
        slab_shape_[label_index(opts_.labels, l)]);
  return m;
}

std::size_t InSituIncrementalPca::features() const {
  std::size_t f = 1;
  for (const std::string& l : opts_.feature_labels)
    f *= static_cast<std::size_t>(
        slab_shape_[label_index(opts_.labels, l)]);
  return f;
}

namespace {

/// Assemble the chunk payloads of one timestep into a slab NDArray.
/// Synthetic inputs (no value) yield a size-only output: the same graph
/// runs at paper scale without allocating data.
dts::TaskFn make_slab_fn(arr::ChunkGrid grid, std::int64_t t,
                         std::vector<arr::Index> coords,
                         std::uint64_t slab_bytes) {
  return [grid = std::move(grid), t, coords = std::move(coords),
          slab_bytes](const std::vector<dts::Data>& in) -> dts::Data {
    bool real = !in.empty() && in[0].has_value();
    if (!real) return dts::Data::sized(slab_bytes);
    arr::Index slab_shape = grid.shape();
    slab_shape[0] = 1;
    arr::NDArray slab(slab_shape);
    for (std::size_t i = 0; i < coords.size(); ++i) {
      const arr::Box cbox = grid.box_of(coords[i]);
      arr::Box local = cbox;
      local.lo[0] = 0;
      local.hi[0] = 1;
      slab.insert(local, in[i].as<arr::NDArray>());
    }
    const std::uint64_t b = slab.bytes();
    return dts::Data::make<arr::NDArray>(std::move(slab), b);
  };
}

/// partial_fit task: first step creates the model, later steps update the
/// state received from the previous step.
dts::TaskFn make_fit_fn(PcaOptions pca_opts,
                        std::vector<std::size_t> row_dims, bool first,
                        std::uint64_t state_bytes_hint) {
  return [pca_opts, row_dims = std::move(row_dims), first,
          state_bytes_hint](const std::vector<dts::Data>& in) -> dts::Data {
    const dts::Data& slab_data = first ? in[0] : in[1];
    if (!slab_data.has_value()) return dts::Data::sized(state_bytes_hint);
    IncrementalPca model =
        first ? IncrementalPca(pca_opts) : in[0].as<IncrementalPca>();
    const arr::NDArray& slab = slab_data.as<arr::NDArray>();
    const arr::NDArray m2d = slab.reshape_2d(row_dims);
    // NDArray (rows x cols, row-major) -> column-major Matrix.
    const linalg::Matrix x =
        linalg::Matrix::from_row_major(static_cast<std::size_t>(m2d.shape()[0]),
                                       static_cast<std::size_t>(m2d.shape()[1]),
                                       m2d.flat());
    model.partial_fit(x);
    const std::uint64_t b = model.state_bytes();
    return dts::Data::make<IncrementalPca>(std::move(model), b);
  };
}

dts::TaskFn make_vector_extract_fn(
    std::function<std::vector<double>(const IncrementalPca&)> get,
    std::size_t k) {
  return [get = std::move(get),
          k](const std::vector<dts::Data>& in) -> dts::Data {
    if (!in[0].has_value())
      return dts::Data::sized(k * sizeof(double));
    std::vector<double> v = get(in[0].as<IncrementalPca>());
    const std::uint64_t b = v.size() * sizeof(double);
    return dts::Data::make<std::vector<double>>(std::move(v), b);
  };
}

}  // namespace

void InSituIncrementalPca::build_step(ChunkProvider& provider, int submission,
                                      std::int64_t t,
                                      std::vector<dts::TaskSpec>& tasks) {
  if (opts_.distributed_update) {
    build_step_distributed(provider, submission, t, tasks);
    return;
  }
  const arr::ChunkGrid& grid = provider.grid();
  if (slab_shape_.empty()) {
    DEISA_CHECK(grid.ndim() == opts_.labels.size(),
                "labels rank mismatch: " << opts_.labels.size() << " labels, "
                                         << grid.ndim() << " dims");
    DEISA_CHECK(grid.chunk_shape()[0] == 1,
                "time dimension must be chunked per timestep");
    slab_shape_ = grid.shape();
    slab_shape_[0] = 1;
    // Row dims of the 2D stack: time (extent 1) plus the sample labels.
    sample_dims_.push_back(0);
    for (const std::string& l : opts_.sample_labels) {
      const std::size_t d = label_index(opts_.labels, l);
      DEISA_CHECK(d != 0, "the time dimension cannot be a sample label");
      sample_dims_.push_back(d);
    }
  }

  // Slab assembly.
  std::vector<dts::Key> chunk_keys = provider.chunks(submission, t, tasks);
  arr::Box slab_box;
  slab_box.lo.assign(grid.ndim(), 0);
  slab_box.hi = grid.shape();
  slab_box.lo[0] = t;
  slab_box.hi[0] = t + 1;
  std::vector<arr::Index> coords = grid.chunks_overlapping(slab_box);
  DEISA_CHECK(coords.size() == chunk_keys.size(),
              "provider returned " << chunk_keys.size() << " chunks for "
                                   << coords.size() << " grid cells");
  std::int64_t slab_volume = 1;
  for (std::size_t d = 1; d < grid.ndim(); ++d) slab_volume *= grid.shape()[d];
  const std::uint64_t slab_bytes =
      static_cast<std::uint64_t>(slab_volume) * sizeof(double);
  tasks.emplace_back(slab_key(submission, t), chunk_keys,
                     make_slab_fn(grid, t, coords, slab_bytes),
                     opts_.cost.assemble_cost(slab_bytes), slab_bytes);

  // partial_fit chain.
  const std::size_t m = samples_per_step();
  const std::size_t f = features();
  const std::uint64_t state_bytes =
      (opts_.pca.n_components * f + 4 * f + 16) * sizeof(double);
  std::vector<dts::Key> deps;
  const bool first = t == 0;
  if (!first) deps.push_back(state_key(t - 1));
  deps.push_back(slab_key(submission, t));
  tasks.emplace_back(
      state_key(t), std::move(deps),
      make_fit_fn(opts_.pca, sample_dims_, first, state_bytes),
      opts_.cost.partial_fit_cost(m, f, opts_.pca.n_components), state_bytes);
}

void InSituIncrementalPca::build_outputs(std::vector<dts::TaskSpec>& tasks,
                                         std::int64_t steps) {
  const dts::Key final_state = state_key(steps - 1);
  const std::size_t k = opts_.pca.n_components;
  tasks.emplace_back(
      opts_.name + "/explained_variance", std::vector<dts::Key>{final_state},
      make_vector_extract_fn(
          [](const IncrementalPca& m) { return m.explained_variance(); }, k),
      0.0, k * sizeof(double));
  tasks.emplace_back(
      opts_.name + "/singular_values", std::vector<dts::Key>{final_state},
      make_vector_extract_fn(
          [](const IncrementalPca& m) { return m.singular_values(); }, k),
      0.0, k * sizeof(double));
}

IpcaFit InSituIncrementalPca::fit_info(std::int64_t steps,
                                       int submissions) const {
  IpcaFit fit;
  fit.state_key = state_key(steps - 1);
  fit.explained_variance_key = opts_.name + "/explained_variance";
  fit.singular_values_key = opts_.name + "/singular_values";
  fit.submissions = submissions;
  return fit;
}

void InSituIncrementalPca::build_step_distributed(
    ChunkProvider& provider, int submission, std::int64_t t,
    std::vector<dts::TaskSpec>& tasks) {
  const arr::ChunkGrid& grid = provider.grid();
  if (slab_shape_.empty()) {
    DEISA_CHECK(grid.ndim() == opts_.labels.size(),
                "labels rank mismatch: " << opts_.labels.size() << " labels, "
                                         << grid.ndim() << " dims");
    DEISA_CHECK(grid.chunk_shape()[0] == 1,
                "time dimension must be chunked per timestep");
    slab_shape_ = grid.shape();
    slab_shape_[0] = 1;
  }
  std::vector<dts::Key> chunk_keys = provider.chunks(submission, t, tasks);
  arr::Box slab_box;
  slab_box.lo.assign(grid.ndim(), 0);
  slab_box.hi = grid.shape();
  slab_box.lo[0] = t;
  slab_box.hi[0] = t + 1;
  const std::vector<arr::Index> coords = grid.chunks_overlapping(slab_box);
  DEISA_CHECK(coords.size() == chunk_keys.size(),
              "provider chunk count mismatch");
  const std::size_t l = opts_.cost.sketch_width;
  const std::uint64_t factor_bytes =
      static_cast<std::uint64_t>(l * l) * sizeof(double);
  std::vector<dts::Key> sketch_keys;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const std::uint64_t elems =
        static_cast<std::uint64_t>(grid.box_of(coords[i]).volume());
    dts::Key skey = opts_.name + "/sketch/s" + std::to_string(submission) +
                    "/t" + std::to_string(t) + "/c" + std::to_string(i);
    tasks.emplace_back(skey, std::vector<dts::Key>{chunk_keys[i]}, nullptr,
                       opts_.cost.sketch_cost(elems), factor_bytes);
    sketch_keys.push_back(std::move(skey));
  }
  const std::size_t f = features();
  // Merge + state update depends on the previous state and all sketches.
  const std::uint64_t state_bytes =
      (opts_.pca.n_components * f / 64 + 1024) * sizeof(double);
  std::vector<dts::Key> deps;
  if (t != 0) deps.push_back(state_key(t - 1));
  for (auto& k : sketch_keys) deps.push_back(std::move(k));
  tasks.emplace_back(state_key(t), std::move(deps), nullptr,
                     opts_.cost.merge_cost(f, coords.size()), state_bytes);
}

exec::Co<IpcaFit> InSituIncrementalPca::fit_ahead_of_time(
    ChunkProvider& provider) {
  const std::int64_t steps = provider.grid().chunks_in(0);
  DEISA_CHECK(steps >= 1, "need at least one timestep");
  std::vector<dts::TaskSpec> tasks;
  for (std::int64_t t = 0; t < steps; ++t)
    build_step(provider, /*submission=*/0, t, tasks);
  build_outputs(tasks, steps);

  IpcaFit fit;
  fit.state_key = state_key(steps - 1);
  fit.explained_variance_key = opts_.name + "/explained_variance";
  fit.singular_values_key = opts_.name + "/singular_values";
  fit.submissions = 1;
  std::vector<dts::Key> wants;
  wants.push_back(fit.explained_variance_key);
  wants.push_back(fit.singular_values_key);
  co_await client_->submit(std::move(tasks), std::move(wants));
  co_return fit;
}

exec::Co<IpcaFit> InSituIncrementalPca::fit_per_step(
    ChunkProvider& provider, std::function<exec::Co<void>()> before_step) {
  const std::int64_t steps = provider.grid().chunks_in(0);
  DEISA_CHECK(steps >= 1, "need at least one timestep");
  IpcaFit fit;
  for (std::int64_t t = 0; t < steps; ++t) {
    if (before_step) co_await before_step();
    std::vector<dts::TaskSpec> tasks;
    build_step(provider, /*submission=*/static_cast<int>(t), t, tasks);
    std::vector<dts::Key> wants;
    wants.push_back(state_key(t));
    co_await client_->submit(std::move(tasks), std::move(wants));
    // The old IPCA drives each partial_fit to completion before building
    // the next: time dependencies are managed manually by the caller.
    co_await client_->wait_key(state_key(t));
    ++fit.submissions;
  }
  std::vector<dts::TaskSpec> tasks;
  build_outputs(tasks, steps);
  co_await client_->submit(std::move(tasks), {});
  ++fit.submissions;
  fit.state_key = state_key(steps - 1);
  fit.explained_variance_key = opts_.name + "/explained_variance";
  fit.singular_values_key = opts_.name + "/singular_values";
  co_return fit;
}

exec::Co<IncrementalPca> InSituIncrementalPca::collect_state(
    const IpcaFit& fit) {
  const dts::Data d = co_await client_->gather(fit.state_key);
  co_return d.as<IncrementalPca>();
}

exec::Co<std::vector<double>> InSituIncrementalPca::collect_vector(
    const dts::Key& key) {
  const dts::Data d = co_await client_->gather(key);
  co_return d.as<std::vector<double>>();
}

}  // namespace deisa::ml
