#include "deisa/apps/heat2d.hpp"

#include <cmath>

#include "deisa/util/error.hpp"

namespace deisa::apps {

namespace {
// Point-to-point tags for the four halo directions.
constexpr int kTagWest = 101;
constexpr int kTagEast = 102;
constexpr int kTagNorth = 103;
constexpr int kTagSouth = 104;
}  // namespace

double Heat2dConfig::stable_dt() const {
  const double dx2 = kHeatDx * kHeatDx;
  const double dy2 = kHeatDy * kHeatDy;
  return 0.9 * dx2 * dy2 / (2.0 * kHeatAlpha * (dx2 + dy2));
}

Heat2d::Heat2d(const Heat2dConfig& cfg, int rank)
    : cfg_(cfg),
      rank_(rank),
      dt_(cfg.dt > 0 ? cfg.dt : cfg.stable_dt()),
      field_(array::Index{cfg.local_nx, cfg.local_ny}),
      next_(array::Index{cfg.local_nx, cfg.local_ny}) {
  DEISA_CHECK(rank >= 0 && rank < cfg.ranks(), "rank outside process grid");
  DEISA_CHECK(cfg.local_nx >= 1 && cfg.local_ny >= 1, "empty local block");
  DEISA_CHECK(dt_ <= cfg.stable_dt() / 0.9 + 1e-12,
              "explicit step dt=" << dt_ << " violates the CFL bound "
                                  << cfg.stable_dt() / 0.9);
}

void Heat2d::initialize() {
  const double gx0 = static_cast<double>(px()) * static_cast<double>(cfg_.local_nx);
  const double gy0 = static_cast<double>(py()) * static_cast<double>(cfg_.local_ny);
  const double cx = 0.3 * static_cast<double>(cfg_.global_nx());
  const double cy = 0.6 * static_cast<double>(cfg_.global_ny());
  const double r2 =
      0.02 * static_cast<double>(cfg_.global_nx() * cfg_.global_ny());
  double* f = field_.data();  // row-major (local_nx, local_ny)
  for (std::int64_t i = 0; i < cfg_.local_nx; ++i) {
    for (std::int64_t j = 0; j < cfg_.local_ny; ++j) {
      const double x = gx0 + static_cast<double>(i);
      const double y = gy0 + static_cast<double>(j);
      const double d2 = (x - cx) * (x - cx) + (y - cy) * (y - cy);
      f[i * cfg_.local_ny + j] = 100.0 * std::exp(-d2 / r2) +
                                 0.05 * x + 0.02 * y;  // blob + gradient
    }
  }
  step_count_ = 0;
}

int Heat2d::neighbor(int dx_, int dy_) const {
  const int nx = px() + dx_;
  const int ny = py() + dy_;
  if (nx < 0 || nx >= cfg_.proc_x || ny < 0 || ny >= cfg_.proc_y) return -1;
  return ny * cfg_.proc_x + nx;
}

exec::Co<void> Heat2d::step(mpix::Comm& comm) {
  const std::int64_t nx = cfg_.local_nx;
  const std::int64_t ny = cfg_.local_ny;
  const int west = neighbor(-1, 0);
  const int east = neighbor(+1, 0);
  const int north = neighbor(0, -1);
  const int south = neighbor(0, +1);

  // Halo exchange: send each present neighbour our boundary strip, then
  // receive theirs. Tags name the direction of travel as seen by the
  // RECEIVER. The field is row-major (nx, ny): cell (i, j) sits at
  // f[i * ny + j], so a west/east strip is one contiguous row and a
  // north/south strip a column. Only strips a neighbour needs are built,
  // and each moves into its message.
  const double* f = field_.data();
  const auto row = [&](std::int64_t i) { return f + i * ny; };
  const auto column = [&](std::int64_t j) {
    std::vector<double> strip(static_cast<std::size_t>(nx));
    for (std::int64_t i = 0; i < nx; ++i)
      strip[static_cast<std::size_t>(i)] = row(i)[j];
    return strip;
  };
  const auto send_strip = [&](int to, int tag,
                              std::vector<double> strip) -> exec::Co<void> {
    const std::uint64_t bytes = strip.size() * sizeof(double);
    mpix::Message msg(rank_, tag, bytes, std::move(strip));
    co_await comm.send(rank_, to, tag, std::move(msg));
  };
  if (west >= 0)
    co_await send_strip(west, kTagEast,
                        std::vector<double>(row(0), row(0) + ny));
  if (east >= 0)
    co_await send_strip(east, kTagWest,
                        std::vector<double>(row(nx - 1), row(nx - 1) + ny));
  if (north >= 0) co_await send_strip(north, kTagSouth, column(0));
  if (south >= 0) co_await send_strip(south, kTagNorth, column(ny - 1));

  // A received halo takes over the sender's buffer; an absent neighbour
  // leaves its halo empty (the update below never reads it).
  const auto recv_strip = [&](int from, int tag)
      -> exec::Co<std::vector<double>> {
    mpix::Message m = co_await comm.recv(rank_, from, tag);
    co_return std::move(m.payload);
  };
  std::vector<double> halo_w, halo_e, halo_n, halo_s;
  if (west >= 0) halo_w = co_await recv_strip(west, kTagWest);
  if (east >= 0) halo_e = co_await recv_strip(east, kTagEast);
  if (north >= 0) halo_n = co_await recv_strip(north, kTagNorth);
  if (south >= 0) halo_s = co_await recv_strip(south, kTagSouth);

  // Explicit 5-point update; Neumann (insulated) boundaries at the
  // global domain edge: a missing neighbour reads this rank's own edge
  // cell. Interior cells read the field directly; only the first and last
  // row and column consult a halo.
  const double cdx = kHeatAlpha * dt_ / (kHeatDx * kHeatDx);
  const double cdy = kHeatAlpha * dt_ / (kHeatDy * kHeatDy);
  const double* west_edge = west >= 0 ? halo_w.data() : row(0);
  const double* east_edge = east >= 0 ? halo_e.data() : row(nx - 1);
  double* out = next_.data();
  for (std::int64_t i = 0; i < nx; ++i) {
    const double* c_row = row(i);
    const double* w_row = i > 0 ? row(i - 1) : west_edge;
    const double* e_row = i + 1 < nx ? row(i + 1) : east_edge;
    const auto ui = static_cast<std::size_t>(i);
    const double n_edge = north >= 0 ? halo_n[ui] : c_row[0];
    const double s_edge = south >= 0 ? halo_s[ui] : c_row[ny - 1];
    double* o_row = out + i * ny;
    for (std::int64_t j = 0; j < ny; ++j) {
      const double c = c_row[j];
      const double lap_x = w_row[j] - 2.0 * c + e_row[j];
      const double north_v = j > 0 ? c_row[j - 1] : n_edge;
      const double south_v = j + 1 < ny ? c_row[j + 1] : s_edge;
      const double lap_y = north_v - 2.0 * c + south_v;
      o_row[j] = c + cdx * lap_x + cdy * lap_y;
    }
  }
  std::swap(field_, next_);
  ++step_count_;
}

double Heat2d::local_heat() const {
  double s = 0.0;
  for (double v : field_.flat()) s += v;
  return s;
}

double Heat2d::step_cost(std::int64_t cells, double cell_rate) {
  return static_cast<double>(cells) / cell_rate;
}

}  // namespace deisa::apps
