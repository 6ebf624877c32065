// A warm execution substrate allocates nothing per resume, and the
// per-block work above it allocates a fixed amount.
//
// This executable replaces the global operator new with a counting one,
// which is why it is its own test binary. It pins:
//
//   * the coroutine frame pool (exec/frame_pool.hpp): reuse per size
//     class, the per-class cap, frames above the largest class, and a
//     frame freed on another thread than the one that allocated it;
//   * the whole substrate: once warm, a loop of spawns, delays, channel
//     hand-offs, a FifoServer visit and an Event costs zero heap
//     allocations on sim::Engine and on a one-thread ThreadedExecutor;
//   * the per-block path: a Heat2d step allocates as often at 48 x 48 as
//     at 8 x 8 cells, and its halo exchange allocates only for present
//     neighbours; a contract check allocates nothing, and a Data payload
//     is one allocation.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "deisa/apps/heat2d.hpp"
#include "deisa/array/chunks.hpp"
#include "deisa/core/contract.hpp"
#include "deisa/dts/task.hpp"
#include "deisa/exec/frame_pool.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/net/cluster.hpp"
#include "deisa/rt/threaded_executor.hpp"
#include "deisa/sim/engine.hpp"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#endif

namespace {

std::atomic<std::uint64_t> g_allocations{0};

std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

}  // namespace

void* operator new(std::size_t bytes) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(bytes == 0 ? 1 : bytes)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t bytes) { return ::operator new(bytes); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace apps = deisa::apps;
namespace arr = deisa::array;
namespace core = deisa::core;
namespace dts = deisa::dts;
namespace exec = deisa::exec;
namespace mpix = deisa::mpix;
namespace net = deisa::net;
namespace rt = deisa::rt;
namespace sim = deisa::sim;
using exec::detail::frame_alloc;
using exec::detail::frame_free;

namespace {

// ---- The frame pool ----

TEST(FramePool, ReusesAFrameOfTheSameSizeClass) {
  // 1 and 64 bytes share the first class; 4096 is the last one.
  const std::vector<std::size_t> sizes{1, 64, 65, 200, 1000, 4096};
  for (const std::size_t n : sizes) frame_free(frame_alloc(n), n);
  const std::uint64_t before = allocations();
  for (const std::size_t n : sizes) {
    void* frame = frame_alloc(n);
    frame_free(frame, n);
  }
  EXPECT_EQ(allocations() - before, 0u);

  // 129..192 bytes is one class: the frame freed at one size is the frame
  // handed out at another.
  void* a = frame_alloc(130);
  frame_free(a, 130);
  void* b = frame_alloc(192);
  EXPECT_EQ(a, b);
  frame_free(b, 192);
}

TEST(FramePool, FramesAboveTheLargestClassAlwaysUseTheHeap) {
  const std::size_t big = exec::kFramePoolMaxBytes + 1;
  const std::uint64_t before = allocations();
  for (int i = 0; i < 3; ++i) frame_free(frame_alloc(big), big);
  EXPECT_EQ(allocations() - before, 3u);
}

TEST(FramePool, EachClassCachesAtMostTheCap) {
  // The class's state on entry depends on earlier tests, so count what
  // the second round needs: with the class full after the frees, exactly
  // the frames beyond the cap come from the heap.
  const std::size_t n = 3000;
  const std::size_t over = 10;
  std::vector<void*> frames(exec::kFramePoolCap + over);
  for (auto& f : frames) f = frame_alloc(n);
  for (void* f : frames) frame_free(f, n);
  const std::uint64_t before = allocations();
  for (auto& f : frames) f = frame_alloc(n);
  EXPECT_EQ(allocations() - before, over);
  for (void* f : frames) frame_free(f, n);
}

TEST(FramePool, AFrameFreedOnAnotherThreadIsReusedThere) {
  const std::size_t n = 700;
  void* frame = frame_alloc(n);
  std::uint64_t heap_allocs = 1;
  void* reused = nullptr;
  std::thread other([&] {
    frame_free(frame, n);
    const std::uint64_t before = allocations();
    reused = frame_alloc(n);
    heap_allocs = allocations() - before;
    frame_free(reused, n);
    // Thread exit releases the cached frame (the ASan job's leak check
    // would report it otherwise).
  });
  other.join();
  EXPECT_EQ(reused, frame);
  EXPECT_EQ(heap_allocs, 0u);
}

#if defined(__SANITIZE_ADDRESS__)
TEST(FramePool, ADestroyedFrameIsPoisoned) {
  exec::Co<int> co = []() -> exec::Co<int> { co_return 7; }();
  auto handle = co.release();
  void* frame = handle.address();
  EXPECT_FALSE(__asan_address_is_poisoned(frame));
  handle.destroy();
  EXPECT_TRUE(__asan_address_is_poisoned(frame));
}
#endif

// ---- The warm substrate ----

constexpr int kWarmupRounds = 200;
constexpr int kMeasuredRounds = 10'000;

exec::Co<void> delayed_send(exec::Executor& ex, exec::Channel<int>& out) {
  co_await ex.delay(0.0);
  out.send(1);
}

/// Runs kWarmupRounds + kMeasuredRounds rounds; `allocated` receives the
/// heap allocations made by every thread during the measured ones.
exec::Co<void> rounds(exec::Executor& ex, std::uint64_t& allocated) {
  exec::Channel<int> replies(ex);
  exec::Channel<int> echo(ex);
  exec::FifoServer server(ex);
  std::uint64_t before = 0;
  for (int i = 0; i < kWarmupRounds + kMeasuredRounds; ++i) {
    if (i == kWarmupRounds) before = allocations();
    ex.spawn(delayed_send(ex, replies));
    (void)co_await replies.recv();
    co_await server.serve(0.0);
    exec::Event event(ex);
    event.set();
    co_await event.wait();
    echo.send(i);
    (void)co_await echo.recv();
  }
  allocated = allocations() - before;
}

TEST(WarmSubstrate, SimEngineAllocatesNothing) {
  sim::Engine eng;
  std::uint64_t allocated = ~std::uint64_t{0};
  eng.spawn(rounds(eng, allocated));
  eng.run();
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(eng.live_roots(), 0u);
}

TEST(WarmSubstrate, OneThreadExecutorAllocatesNothing) {
  rt::ThreadedExecutor ex(rt::ThreadedExecutorParams{1, 1.0});
  std::uint64_t allocated = ~std::uint64_t{0};
  ex.spawn(rounds(ex, allocated));
  ex.run();
  EXPECT_EQ(allocated, 0u);
  EXPECT_EQ(ex.live_roots(), 0u);
}

// ---- The per-block path ----

exec::Co<void> heat2d_steps(apps::Heat2d& solver, mpix::Comm& comm,
                            int steps) {
  for (int s = 0; s < steps; ++s) co_await solver.step(comm);
}

/// Heap allocations of `steps` Heat2d steps on a warm 2 x 2 process grid
/// of `local` x `local` blocks, on the simulator.
std::uint64_t heat2d_step_allocations(std::int64_t local, int steps) {
  sim::Engine eng;
  net::ClusterParams cp;
  cp.physical_nodes = 4;
  net::Cluster cluster(eng, cp);
  mpix::Comm comm(cluster, std::vector<int>{0, 1, 2, 3});
  apps::Heat2dConfig cfg;
  cfg.local_nx = local;
  cfg.local_ny = local;
  cfg.proc_x = 2;
  cfg.proc_y = 2;
  std::vector<std::unique_ptr<apps::Heat2d>> solvers;
  for (int r = 0; r < cfg.ranks(); ++r) {
    solvers.push_back(std::make_unique<apps::Heat2d>(cfg, r));
    solvers.back()->initialize();
  }
  const auto run = [&](int n) {
    for (auto& s : solvers) eng.spawn(heat2d_steps(*s, comm, n));
    eng.run();
  };
  run(4);  // warm-up
  const std::uint64_t before = allocations();
  run(steps);
  return allocations() - before;
}

TEST(Heat2dStep, AllocationsDoNotGrowWithTheBlock) {
  // The halo messages allocate a fixed number of times per step; the
  // stencil itself, 36 times more cells at 48 x 48, must add nothing.
  constexpr int kSteps = 10;
  const std::uint64_t small = heat2d_step_allocations(8, kSteps);
  const std::uint64_t large = heat2d_step_allocations(48, kSteps);
  EXPECT_EQ(small, large);
  // Each rank of the 2 x 2 grid has two neighbours, so a step builds two
  // strips, moves them into their messages and takes over the two it
  // receives: 104 calls over the 40 rank-steps when this was written.
  EXPECT_LE(small, 104u);
}

TEST(Contract, IncludesAllocatesNothing) {
  // A 3-D grid with ragged last chunks, and a selection that cuts it.
  const arr::ChunkGrid grid(arr::Index{4, 12, 10}, arr::Index{1, 5, 4});
  const std::string name = "temp";
  core::Contract contract;
  contract.selections[name] =
      arr::Box(arr::Index{1, 3, 2}, arr::Index{3, 9, 7});
  std::vector<arr::Index> coords;
  for (std::int64_t c = 0; c < grid.num_chunks(); ++c)
    coords.push_back(grid.coord_of(c));
  std::vector<char> included(coords.size(), 0);
  const std::uint64_t before = allocations();
  for (std::size_t i = 0; i < coords.size(); ++i)
    included[i] = contract.includes(name, grid, coords[i]) ? 1 : 0;
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(allocated, 0u);
  // Same answers as intersecting each chunk's box with the selection.
  std::size_t hits = 0;
  for (std::size_t i = 0; i < coords.size(); ++i) {
    const bool want = !grid.box_of(coords[i])
                           .intersect(contract.selections[name])
                           .empty();
    EXPECT_EQ(included[i] != 0, want) << "chunk " << i;
    hits += want ? 1 : 0;
  }
  EXPECT_GT(hits, 0u);
  EXPECT_LT(hits, coords.size());
}

TEST(Data, MakeAllocatesOnce) {
  using Payload = std::array<double, 4>;
  static_assert(sizeof(Payload) > sizeof(void*));
  const std::uint64_t before = allocations();
  const dts::Data d = dts::Data::make<Payload>(Payload{1.0, 2.0, 3.0, 4.0},
                                               sizeof(Payload));
  const std::uint64_t allocated = allocations() - before;
  EXPECT_EQ(allocated, 1u);
  EXPECT_TRUE(d.has_value());
  EXPECT_EQ(d.as<Payload>()[2], 3.0);
  EXPECT_THROW((void)d.as<int>(), deisa::util::Error);
  EXPECT_FALSE(dts::Data::sized(8).has_value());
  EXPECT_THROW((void)dts::Data::sized(8).as<Payload>(), deisa::util::Error);
}

}  // namespace
