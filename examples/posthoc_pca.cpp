// Post-hoc baseline walkthrough: a simulation writes its field as a
// chunked h5mini dataset (real files on disk); a separate analysis phase
// reads the chunks back through read tasks and fits the incremental PCA.
// Demonstrates the h5mini container, the PFS model, and the new-IPCA
// single-graph submission over file data.
#include <filesystem>
#include <iostream>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/apps/heat2d.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/io/posthoc.hpp"
#include "deisa/ml/insitu.hpp"
#include "deisa/mpix/comm.hpp"

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace io = deisa::io;
namespace ml = deisa::ml;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

constexpr std::int64_t kLocal = 10;
constexpr int kProc = 2;  // 2x2 ranks
constexpr int kSteps = 4;

arr::Index shape3(std::int64_t a, std::int64_t b, std::int64_t c) {
  arr::Index i;
  i.push_back(a);
  i.push_back(b);
  i.push_back(c);
  return i;
}

exec::Co<void> sim_phase(mpix::Comm& comm, int rank, io::Pfs& pfs,
                         io::PosthocDataset& ds, exec::Event& done,
                         int& remaining) {
  apps::Heat2dConfig hc;
  hc.local_nx = kLocal;
  hc.local_ny = kLocal;
  hc.proc_x = kProc;
  hc.proc_y = kProc;
  apps::Heat2d solver(hc, rank);
  solver.initialize();
  io::PosthocWriter writer(pfs, &ds);
  for (int t = 0; t < kSteps; ++t) {
    arr::Index coord = shape3(t, solver.px(), solver.py());
    arr::NDArray block(shape3(1, kLocal, kLocal));
    std::copy(solver.field().flat().begin(), solver.field().flat().end(),
              block.flat().begin());
    co_await writer.write_block(coord, &block);
    co_await solver.step(comm);
  }
  if (--remaining == 0) done.set();
}

exec::Co<void> analysis_phase(dts::Runtime& rt, dts::Client& client,
                              io::Pfs& pfs, io::PosthocDataset& ds,
                              exec::Event& sim_done) {
  co_await sim_done.wait();
  std::cout << "simulation wrote " << pfs.bytes_written() / 1024 << " KiB in "
            << pfs.ops() << " PFS ops; starting post-hoc analysis\n";

  io::PosthocReadProvider provider(pfs, &ds);
  ml::InSituIpcaOptions opts;
  opts.pca.n_components = 2;
  opts.labels = {"t", "X", "Y"};
  opts.feature_labels = {"X"};
  opts.sample_labels = {"Y"};
  opts.name = "posthoc-ipca";
  ml::InSituIncrementalPca ipca(client, opts);
  const ml::IpcaFit fit = co_await ipca.fit_ahead_of_time(provider);
  const auto sv = co_await ipca.collect_vector(fit.singular_values_key);
  std::cout << "read " << provider.read_tasks_created()
            << " chunks back; singular values: " << sv[0] << ", " << sv[1]
            << "\n";
  co_await rt.shutdown();
}

}  // namespace

int main() {
  sim::Engine engine;
  net::ClusterParams cp;
  cp.physical_nodes = 12;
  net::Cluster cluster(engine, cp);
  io::Pfs pfs(engine, {});
  dts::Runtime runtime(engine, cluster, 0, {2, 3});
  runtime.start();

  const auto dir = std::filesystem::temp_directory_path() / "deisa-example-ph";
  io::PosthocDataset ds("/pfs/example",
                        arr::ChunkGrid(shape3(kSteps, kLocal * kProc,
                                              kLocal * kProc),
                                       shape3(1, kLocal, kLocal)));
  ds.file = io::H5Mini::create(dir, ds.grid.shape(), ds.grid.chunk_shape());

  std::vector<int> rank_nodes{4, 4, 5, 5};
  mpix::Comm comm(cluster, rank_nodes);
  exec::Event sim_done(engine);
  int remaining = kProc * kProc;
  for (int r = 0; r < kProc * kProc; ++r)
    engine.spawn(sim_phase(comm, r, pfs, ds, sim_done, remaining));
  engine.spawn(
      analysis_phase(runtime, runtime.make_client(1), pfs, ds, sim_done));
  engine.run();

  std::cout << "dataset on disk: " << dir << " ("
            << std::filesystem::file_size(dir / "chunk-0.bin") << " bytes per "
            << "chunk)\ndone in " << engine.now() << " simulated seconds\n";
  return 0;
}
