// Tests for the Heat2D miniapp: physics invariants (heat conservation
// under insulated boundaries, diffusion smoothing, decomposition
// independence) and the cost model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "deisa/net/cluster.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/apps/heat2d.hpp"

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace exec = deisa::exec;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

struct World {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<mpix::Comm> comm;

  explicit World(int ranks) {
    net::ClusterParams p;
    p.physical_nodes = std::max(4, ranks);
    cluster = std::make_unique<net::Cluster>(eng, p);
    std::vector<int> nodes;
    for (int r = 0; r < ranks; ++r) nodes.push_back(r / 2);
    comm = std::make_unique<mpix::Comm>(*cluster, std::move(nodes));
  }
};

exec::Co<void> run_steps(apps::Heat2d& solver, mpix::Comm& comm, int steps) {
  for (int s = 0; s < steps; ++s) co_await solver.step(comm);
}

/// Run a full decomposed simulation and return the assembled global field.
arr::NDArray run_decomposed(int proc_x, int proc_y, std::int64_t local,
                            int steps) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = local / proc_x;
  cfg.local_ny = local / proc_y;
  cfg.proc_x = proc_x;
  cfg.proc_y = proc_y;
  World w(cfg.ranks());
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  for (int r = 0; r < cfg.ranks(); ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
    w.eng.spawn(run_steps(*solvers.back(), *w.comm, steps));
  }
  w.eng.run();
  arr::NDArray global(arr::Index{local, local});
  for (const auto& s : solvers) {
    arr::Box box;
    box.lo = {s->px() * cfg.local_nx, s->py() * cfg.local_ny};
    box.hi = {box.lo[0] + cfg.local_nx, box.lo[1] + cfg.local_ny};
    global.insert(box, s->field());
  }
  return global;
}

TEST(Heat2d, HeatIsConservedWithInsulatedBoundaries) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 24;
  cfg.local_ny = 24;
  World w(1);
  apps::Heat2d solver(cfg, 0);
  solver.initialize();
  const double before = solver.local_heat();
  w.eng.spawn(run_steps(solver, *w.comm, 50));
  w.eng.run();
  EXPECT_NEAR(solver.local_heat(), before, 1e-6 * std::abs(before));
}

TEST(Heat2d, DiffusionReducesPeakAndVariance) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 32;
  cfg.local_ny = 32;
  World w(1);
  apps::Heat2d solver(cfg, 0);
  solver.initialize();
  const auto peak = [&] {
    double m = -1e300;
    for (double v : solver.field().flat()) m = std::max(m, v);
    return m;
  };
  const double p0 = peak();
  w.eng.spawn(run_steps(solver, *w.comm, 100));
  w.eng.run();
  EXPECT_LT(peak(), p0);
}

class Decompositions
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(Decompositions, GlobalSolutionIndependentOfProcessGrid) {
  // Property: the assembled field after N steps must match the
  // single-rank solution for every decomposition (halo exchange correct).
  const auto [px, py] = GetParam();
  const auto reference = run_decomposed(1, 1, 24, 12);
  const auto decomposed = run_decomposed(px, py, 24, 12);
  ASSERT_EQ(reference.shape(), decomposed.shape());
  for (std::int64_t i = 0; i < reference.size(); ++i)
    ASSERT_NEAR(reference.flat()[static_cast<std::size_t>(i)],
                decomposed.flat()[static_cast<std::size_t>(i)], 1e-9)
        << "cell " << i << " differs for grid " << px << "x" << py;
}

INSTANTIATE_TEST_SUITE_P(Grids, Decompositions,
                         ::testing::Values(std::pair{2, 1}, std::pair{1, 2},
                                           std::pair{2, 2}, std::pair{4, 2},
                                           std::pair{3, 2}));

TEST(Heat2d, StepMatchesPerCellOracleBitForBit) {
  // A 3 x 2 process grid of uneven 5 x 7 blocks against a plain update of
  // the assembled global array: the same per-cell expression, with the
  // index clamped at the global edge (the insulated boundary). Equality
  // on the raw doubles catches an edge or halo bug that two runs of the
  // same solver code would share.
  apps::Heat2dConfig cfg;
  cfg.local_nx = 5;
  cfg.local_ny = 7;
  cfg.proc_x = 3;
  cfg.proc_y = 2;
  constexpr int kSteps = 12;
  const std::int64_t gnx = cfg.global_nx();
  const std::int64_t gny = cfg.global_ny();
  World w(cfg.ranks());
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  for (int r = 0; r < cfg.ranks(); ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
  }
  const auto assemble = [&] {
    arr::NDArray global(arr::Index{gnx, gny});
    for (const auto& s : solvers) {
      arr::Box box;
      box.lo = {s->px() * cfg.local_nx, s->py() * cfg.local_ny};
      box.hi = {box.lo[0] + cfg.local_nx, box.lo[1] + cfg.local_ny};
      global.insert(box, s->field());
    }
    return global;
  };
  const arr::NDArray initial = assemble();
  std::vector<double> oracle(initial.flat().begin(), initial.flat().end());
  const double dt = cfg.stable_dt();
  const double cdx = apps::kHeatAlpha * dt / (apps::kHeatDx * apps::kHeatDx);
  const double cdy = apps::kHeatAlpha * dt / (apps::kHeatDy * apps::kHeatDy);
  std::vector<double> next(oracle.size());
  const auto at = [&](std::int64_t i, std::int64_t j) {
    i = std::clamp<std::int64_t>(i, 0, gnx - 1);
    j = std::clamp<std::int64_t>(j, 0, gny - 1);
    return oracle[static_cast<std::size_t>(i * gny + j)];
  };
  for (int step = 0; step < kSteps; ++step) {
    for (std::int64_t i = 0; i < gnx; ++i) {
      for (std::int64_t j = 0; j < gny; ++j) {
        const double c = at(i, j);
        const double lap_x = at(i - 1, j) - 2.0 * c + at(i + 1, j);
        const double lap_y = at(i, j - 1) - 2.0 * c + at(i, j + 1);
        next[static_cast<std::size_t>(i * gny + j)] =
            c + cdx * lap_x + cdy * lap_y;
      }
    }
    oracle.swap(next);
  }

  for (auto& s : solvers) w.eng.spawn(run_steps(*s, *w.comm, kSteps));
  w.eng.run();
  const arr::NDArray field = assemble();
  ASSERT_EQ(field.size(), static_cast<std::int64_t>(oracle.size()));
  for (std::int64_t i = 0; i < gnx; ++i)
    for (std::int64_t j = 0; j < gny; ++j)
      EXPECT_EQ(field.flat()[static_cast<std::size_t>(i * gny + j)],
                oracle[static_cast<std::size_t>(i * gny + j)])
          << "cell (" << i << ", " << j << ")";
}

TEST(Heat2d, TotalHeatConservedAcrossDecomposition) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 12;
  cfg.local_ny = 12;
  cfg.proc_x = 2;
  cfg.proc_y = 2;
  World w(4);
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  double before = 0;
  for (int r = 0; r < 4; ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
    before += solvers.back()->local_heat();
    w.eng.spawn(run_steps(*solvers.back(), *w.comm, 30));
  }
  w.eng.run();
  double after = 0;
  for (const auto& s : solvers) after += s->local_heat();
  EXPECT_NEAR(after, before, 1e-6 * std::abs(before));
}

TEST(Heat2d, ConfigValidation) {
  apps::Heat2dConfig cfg;
  cfg.local_nx = 8;
  cfg.local_ny = 8;
  EXPECT_THROW(apps::Heat2d(cfg, 1), deisa::util::Error);  // rank 1 of 1
  cfg.dt = 100.0;  // violates CFL
  EXPECT_THROW(apps::Heat2d(cfg, 0), deisa::util::Error);
  EXPECT_GT(cfg.stable_dt(), 0.0);
}

TEST(Heat2d, CostModelScalesLinearly) {
  EXPECT_DOUBLE_EQ(apps::Heat2d::step_cost(1000, 1e6), 1e-3);
  EXPECT_DOUBLE_EQ(apps::Heat2d::step_cost(2000, 1e6),
                   2 * apps::Heat2d::step_cost(1000, 1e6));
}

}  // namespace
