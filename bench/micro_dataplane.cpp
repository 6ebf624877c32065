// Data-plane fast-path microbench: each fast path measured against the
// path it replaced, in the same process and the same window.
//
//   kernels   WALL-CLOCK throughput of NDArray extract / insert /
//             reshape_2d (contiguous-run strided copies) vs an
//             element-wise oracle that re-creates the old per-element
//             for_each_index + at() path. Results are asserted
//             byte-identical before timing is reported.
//   push      SIMULATED seconds + scheduler registration-RPC count for a
//             bridge-style push of many blocks: per-block scatter loop
//             vs one coalesced scatter_batch per target worker.
//
// Emits BENCH_dataplane.json so later PRs can track the trajectory.
//
// Usage: micro_dataplane [--repeat N] [--out BENCH_dataplane.json]
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "deisa/array/ndarray.hpp"
#include "deisa/dts/runtime.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/util/table.hpp"

namespace arr = deisa::array;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace net = deisa::net;
namespace sim = deisa::sim;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------
// Section 1: NDArray kernels, fast path vs element-wise oracle.
// ---------------------------------------------------------------------

/// Visit every index of `box` (half-open), calling f(idx). This is the
/// shape of the pre-PR NDArray loops: one odometer step and one
/// offset_of() bounds-checked multiply-add chain per element.
template <typename F>
void for_each_index(const arr::Box& box, F&& f) {
  if (box.volume() == 0) return;
  arr::Index idx = box.lo;
  const std::size_t nd = idx.size();
  while (true) {
    f(idx);
    std::size_t d = nd;
    while (d-- > 0) {
      if (++idx[d] < box.hi[d]) break;
      idx[d] = box.lo[d];
      if (d == 0) return;
    }
  }
}

arr::NDArray oracle_extract(const arr::NDArray& a, const arr::Box& box) {
  arr::Index out_shape(box.ndim());
  for (std::size_t d = 0; d < box.ndim(); ++d) out_shape[d] = box.extent(d);
  arr::NDArray out(out_shape);
  arr::Index rel(box.ndim());
  for_each_index(box, [&](const arr::Index& idx) {
    for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
    out.at(rel) = a.at(idx);
  });
  return out;
}

void oracle_insert(arr::NDArray& a, const arr::Box& box,
                   const arr::NDArray& src) {
  arr::Index rel(box.ndim());
  for_each_index(box, [&](const arr::Index& idx) {
    for (std::size_t d = 0; d < idx.size(); ++d) rel[d] = idx[d] - box.lo[d];
    a.at(idx) = src.at(rel);
  });
}

arr::NDArray oracle_reshape_2d(const arr::NDArray& a,
                               const std::vector<std::size_t>& row_dims) {
  std::vector<bool> is_row(a.ndim(), false);
  for (std::size_t d : row_dims) is_row[d] = true;
  std::vector<std::size_t> col_dims;
  for (std::size_t d = 0; d < a.ndim(); ++d)
    if (!is_row[d]) col_dims.push_back(d);
  std::int64_t nrows = 1;
  for (std::size_t d : row_dims) nrows *= a.shape()[d];
  std::int64_t ncols = 1;
  for (std::size_t d : col_dims) ncols *= a.shape()[d];
  arr::NDArray out(arr::Index{nrows, ncols});
  arr::Box all(arr::Index(a.ndim(), 0), a.shape());
  arr::Index rc(2);
  for_each_index(all, [&](const arr::Index& idx) {
    std::int64_t r = 0;
    for (std::size_t d : row_dims) r = r * a.shape()[d] + idx[d];
    std::int64_t c = 0;
    for (std::size_t d : col_dims) c = c * a.shape()[d] + idx[d];
    rc[0] = r;
    rc[1] = c;
    out.at(rc) = a.at(idx);
  });
  return out;
}

bool identical(const arr::NDArray& a, const arr::NDArray& b) {
  if (a.shape() != b.shape()) return false;
  const auto fa = a.flat();
  const auto fb = b.flat();
  for (std::size_t i = 0; i < fa.size(); ++i)
    if (fa[i] != fb[i]) return false;
  return true;
}

struct KernelResult {
  std::string name;
  std::uint64_t bytes = 0;  // bytes moved per call
  double fast_seconds = 0.0;
  double oracle_seconds = 0.0;

  double fast_mbps() const { return bytes / fast_seconds / 1e6; }
  double oracle_mbps() const { return bytes / oracle_seconds / 1e6; }
  double speedup() const { return oracle_seconds / fast_seconds; }
};

std::vector<KernelResult> run_kernels(int repeat) {
  // 32 MiB source: 64 planes of 256x256 doubles. The extract/insert box
  // is a large interior region spanning the full innermost dimension, so
  // the fast path degenerates to row-length std::copy runs — the common
  // shape of a contract selection over whole chunk rows.
  const arr::Index shape{64, 256, 256};
  arr::NDArray a(shape);
  {
    auto f = a.flat();
    for (std::size_t i = 0; i < f.size(); ++i)
      f[i] = static_cast<double>(i % 8191) * 0.5;
  }
  const arr::Box box(arr::Index{8, 16, 0}, arr::Index{56, 240, 256});
  const std::uint64_t box_bytes =
      static_cast<std::uint64_t>(box.volume()) * sizeof(double);

  std::vector<KernelResult> out;

  // A few untimed calls first: the first allocations of the ~21 MiB
  // outputs go through fresh mmap'd pages (kernel zeroing + faults)
  // until the allocator's adaptive threshold settles; both paths would
  // pay it, but it swamps the copy being measured.
  for (int w = 0; w < 3; ++w) {
    (void)a.extract(box);
    (void)oracle_extract(a, box);
    (void)a.reshape_2d({0});
    (void)oracle_reshape_2d(a, {0});
  }

  // extract -------------------------------------------------------------
  {
    KernelResult r{"extract", box_bytes};
    r.fast_seconds = std::numeric_limits<double>::infinity();
    r.oracle_seconds = std::numeric_limits<double>::infinity();
    arr::NDArray fast, oracle;
    for (int rep = 0; rep < repeat; ++rep) {
      auto t0 = Clock::now();
      fast = a.extract(box);
      r.fast_seconds = std::min(r.fast_seconds, seconds_since(t0));
      t0 = Clock::now();
      oracle = oracle_extract(a, box);
      r.oracle_seconds = std::min(r.oracle_seconds, seconds_since(t0));
    }
    DEISA_CHECK(identical(fast, oracle), "extract mismatch vs oracle");
    out.push_back(r);
  }

  // insert --------------------------------------------------------------
  {
    KernelResult r{"insert", box_bytes};
    r.fast_seconds = std::numeric_limits<double>::infinity();
    r.oracle_seconds = std::numeric_limits<double>::infinity();
    const arr::NDArray patch = a.extract(box);
    arr::NDArray fast(shape), oracle(shape);
    for (int rep = 0; rep < repeat; ++rep) {
      auto t0 = Clock::now();
      fast.insert(box, patch);
      r.fast_seconds = std::min(r.fast_seconds, seconds_since(t0));
      t0 = Clock::now();
      oracle_insert(oracle, box, patch);
      r.oracle_seconds = std::min(r.oracle_seconds, seconds_since(t0));
    }
    DEISA_CHECK(identical(fast, oracle), "insert mismatch vs oracle");
    out.push_back(r);
  }

  // reshape_2d ----------------------------------------------------------
  {
    KernelResult r{"reshape_2d", a.bytes()};
    r.fast_seconds = std::numeric_limits<double>::infinity();
    r.oracle_seconds = std::numeric_limits<double>::infinity();
    const std::vector<std::size_t> row_dims{0};
    arr::NDArray fast, oracle;
    for (int rep = 0; rep < repeat; ++rep) {
      auto t0 = Clock::now();
      fast = a.reshape_2d(row_dims);
      r.fast_seconds = std::min(r.fast_seconds, seconds_since(t0));
      t0 = Clock::now();
      oracle = oracle_reshape_2d(a, row_dims);
      r.oracle_seconds = std::min(r.oracle_seconds, seconds_since(t0));
    }
    DEISA_CHECK(identical(fast, oracle), "reshape_2d mismatch vs oracle");
    out.push_back(r);
  }
  return out;
}

// ---------------------------------------------------------------------
// Section 2: coalesced bridge pushes (simulated time + RPC count).
// ---------------------------------------------------------------------

/// A runtime with the paper-calibrated scheduler service model, which IS
/// the per-RPC overhead the coalesced push avoids.
struct Fixture {
  sim::Engine eng;
  std::unique_ptr<net::Cluster> cluster;
  std::unique_ptr<dts::Runtime> rt;
  dts::Client* client = nullptr;

  explicit Fixture(int workers) {
    net::ClusterParams cp;
    cp.physical_nodes = workers + 4;
    cluster = std::make_unique<net::Cluster>(eng, cp);
    std::vector<int> wn;
    for (int i = 0; i < workers; ++i) wn.push_back(2 + i);
    dts::RuntimeParams rp;
    rp.worker.heartbeat_interval = 0;
    rt = std::make_unique<dts::Runtime>(eng, *cluster, 0, wn, rp);
    rt->start();
    client = &rt->make_client(1);
  }
};

constexpr int kPushWorkers = 4;
constexpr int kPushBlocks = 64;
constexpr std::uint64_t kPushBlockBytes = 1ull << 20;  // 1 MiB per block

struct PushResult {
  double seconds = 0.0;
  std::uint64_t update_rpcs = 0;
};

exec::Co<void> push_flow(Fixture& fx, bool coalesced, PushResult& out) {
  std::vector<dts::Key> keys;
  std::vector<int> targets;
  for (int i = 0; i < kPushBlocks; ++i) {
    keys.push_back("blk" + std::to_string(i));
    targets.push_back(i % kPushWorkers);
  }
  co_await fx.client->external_futures(keys, targets);
  const double t0 = fx.eng.now();
  if (coalesced) {
    std::map<int, std::vector<std::pair<dts::Key, dts::Data>>> by_worker;
    for (int i = 0; i < kPushBlocks; ++i)
      by_worker[targets[i]].emplace_back(keys[i],
                                         dts::Data::sized(kPushBlockBytes));
    for (auto& [worker, items] : by_worker)
      (void)co_await fx.client->scatter_batch(std::move(items), worker,
                                              /*external=*/true);
  } else {
    for (int i = 0; i < kPushBlocks; ++i)
      (void)co_await fx.client->scatter(keys[i],
                                        dts::Data::sized(kPushBlockBytes),
                                        targets[i], /*external=*/true);
  }
  out.seconds = fx.eng.now() - t0;
  out.update_rpcs =
      fx.rt->scheduler().messages_received(dts::SchedMsgKind::kUpdateData);
  co_await fx.rt->shutdown();
}

PushResult run_push(bool coalesced) {
  Fixture fx(kPushWorkers);
  PushResult out;
  fx.eng.spawn(push_flow(fx, coalesced, out));
  fx.eng.run();
  return out;
}

// ---------------------------------------------------------------------

void write_json(const std::string& path,
                const std::vector<KernelResult>& kernels,
                const PushResult& push_loop, const PushResult& push_batch,
                int repeat) {
  std::ofstream f(path);
  f << "{\n  \"bench\": \"micro_dataplane\",\n  \"repeat\": " << repeat
    << ",\n  \"kernels\": [\n";
  for (std::size_t i = 0; i < kernels.size(); ++i) {
    const KernelResult& r = kernels[i];
    f << "    {\"name\": \"" << r.name << "\", \"bytes\": " << r.bytes
      << ", \"fast_mbps\": " << r.fast_mbps()
      << ", \"oracle_mbps\": " << r.oracle_mbps()
      << ", \"speedup\": " << r.speedup() << "}"
      << (i + 1 < kernels.size() ? "," : "") << "\n";
  }
  f << "  ],\n";
  f << "  \"push\": {\"blocks\": " << kPushBlocks
    << ", \"workers\": " << kPushWorkers
    << ", \"per_block_sim_seconds\": " << push_loop.seconds
    << ", \"per_block_update_rpcs\": " << push_loop.update_rpcs
    << ", \"coalesced_sim_seconds\": " << push_batch.seconds
    << ", \"coalesced_update_rpcs\": " << push_batch.update_rpcs
    << ", \"speedup\": " << push_loop.seconds / push_batch.seconds << "}\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  int repeat = 10;
  std::string out = "BENCH_dataplane.json";
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--repeat" && i + 1 < argc) {
      repeat = std::stoi(argv[++i]);
    } else if (a == "--out" && i + 1 < argc) {
      out = argv[++i];
    } else {
      std::cerr << "usage: micro_dataplane [--repeat N] [--out file.json]\n";
      return 2;
    }
  }

  const std::vector<KernelResult> kernels = run_kernels(repeat);
  deisa::util::Table kt(
      {"kernel", "MiB", "fast MB/s", "oracle MB/s", "speedup"});
  for (const KernelResult& r : kernels)
    kt.add_row({r.name,
                deisa::util::Table::num(r.bytes / double(1 << 20), 1),
                deisa::util::Table::num(r.fast_mbps(), 0),
                deisa::util::Table::num(r.oracle_mbps(), 0),
                deisa::util::Table::num(r.speedup(), 1) + "x"});
  std::cout << "\n=== NDArray kernels: contiguous runs vs element-wise "
               "oracle (wall-clock, byte-identical) ===\n";
  kt.print(std::cout);

  const PushResult push_loop = run_push(/*coalesced=*/false);
  const PushResult push_batch = run_push(/*coalesced=*/true);
  std::cout << "\n=== bridge push: " << kPushBlocks << " blocks -> "
            << kPushWorkers << " workers (simulated) ===\n"
            << "per-block scatter: "
            << deisa::util::Table::num(push_loop.seconds * 1e3, 2) << " ms, "
            << push_loop.update_rpcs << " registration RPCs\n"
            << "coalesced batch:   "
            << deisa::util::Table::num(push_batch.seconds * 1e3, 2) << " ms, "
            << push_batch.update_rpcs << " registration RPCs  ("
            << deisa::util::Table::num(push_loop.seconds / push_batch.seconds,
                                       2)
            << "x)\n";

  write_json(out, kernels, push_loop, push_batch, repeat);
  std::cout << "\nwrote " << out << "\n";
  return 0;
}
