// Heat2D miniapp: explicit 5-point-stencil heat-equation solver on a 2D
// domain decomposed over a process grid — the modified HeatPDE miniapp of
// the paper's evaluation. Real physics for functional runs plus an
// analytic per-iteration cost model for paper-scale synthetic runs.
#pragma once

#include "deisa/array/ndarray.hpp"
#include "deisa/mpix/comm.hpp"

namespace deisa::apps {

/// The physics of every run: diffusivity and grid spacing.
inline constexpr double kHeatAlpha = 0.1;
inline constexpr double kHeatDx = 1.0;
inline constexpr double kHeatDy = 1.0;

struct Heat2dConfig {
  std::int64_t local_nx = 16;  // per-rank block extent in x
  std::int64_t local_ny = 16;  // per-rank block extent in y
  int proc_x = 1;              // process grid (x fastest, Listing 1)
  int proc_y = 1;
  int timesteps = 10;
  /// dt of 0 selects the largest stable explicit step.
  double dt = 0.0;

  int ranks() const { return proc_x * proc_y; }
  std::int64_t global_nx() const { return local_nx * proc_x; }
  std::int64_t global_ny() const { return local_ny * proc_y; }
  double stable_dt() const;
};

class Heat2d {
public:
  Heat2d(const Heat2dConfig& cfg, int rank);

  int rank() const { return rank_; }
  /// Position of this rank in the process grid (x fastest).
  int px() const { return rank_ % cfg_.proc_x; }
  int py() const { return rank_ / cfg_.proc_x; }

  /// Local field (local_nx x local_ny), no ghost cells exposed.
  const array::NDArray& field() const { return field_; }

  /// Initial condition: a hot Gaussian blob off-center plus a linear
  /// background gradient (global, rank-independent).
  void initialize();

  /// One explicit step: halo exchange with the four neighbours over the
  /// communicator, then the stencil update.
  exec::Co<void> step(mpix::Comm& comm);

  /// Total heat in the local block (for conservation tests).
  double local_heat() const;

  /// Analytic per-iteration compute cost of `cells` grid cells at an
  /// effective stencil rate (used by synthetic paper-scale runs).
  static double step_cost(std::int64_t cells, double cell_rate = 6.0e8);

private:
  int neighbor(int dx_, int dy_) const;  // -1 if outside the grid

  Heat2dConfig cfg_;
  int rank_;
  double dt_;
  array::NDArray field_;  // (local_nx, local_ny)
  array::NDArray next_;
  int step_count_ = 0;
};

}  // namespace deisa::apps
