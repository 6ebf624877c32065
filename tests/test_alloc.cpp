// A warm execution substrate allocates nothing per resume.
//
// This executable replaces the global operator new with a counting one,
// which is why it is its own test binary. It pins two things:
//
//   * the coroutine frame pool (exec/frame_pool.hpp): reuse per size
//     class, the per-class cap, frames above the largest class, and a
//     frame freed on another thread than the one that allocated it;
//   * the whole substrate: once warm, a loop of spawns, delays, channel
//     hand-offs, a FifoServer visit and an Event costs zero heap
//     allocations on sim::Engine and on a one-thread ThreadedExecutor.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <thread>
#include <vector>

#include "deisa/exec/frame_pool.hpp"
#include "deisa/exec/primitives.hpp"
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

namespace exec = deisa::exec;
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

}  // namespace
