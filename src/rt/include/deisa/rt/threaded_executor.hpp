// Real-thread backend of the exec::Executor seam.
//
// N worker threads drain an MPMC queue of runnable *strands*; a strand is
// a FIFO of resumable coroutine handles that is never executed by two
// threads at once, so a group of actors spawned on one strand needs no
// locking among themselves (the same guarantee the single-threaded
// simulator gives globally). A strand that becomes runnable signals a
// worker only if one is idle: busy workers take it from the run queue
// when they next look. Timers are a (deadline, seq) min-heap serviced by
// a dedicated thread over a condition variable.
//
// Model time maps to wall clock: `now()` is the wall seconds elapsed
// since construction divided by `time_scale`, and `delay(dt)` sleeps
// `dt * time_scale` wall seconds. A small `time_scale` runs a scenario
// scripted in model seconds (heartbeat intervals, solver costs) in a
// fraction of real time; 1.0 runs it in real time.
//
// Quiescence: `pending` counts scheduled-but-not-finished resumes plus
// armed timers. Actors blocked on channels/events hold no pending count —
// exactly like suspended coroutines with no queued event under the sim —
// so `run()`/`run_until()` return when the system can make no further
// progress on its own.
#pragma once

#include <condition_variable>
#include <coroutine>
#include <cstdint>
#include <memory>
#include <mutex>
#include <queue>
#include <thread>
#include <vector>

#include "deisa/exec/executor.hpp"
#include "deisa/exec/fifo.hpp"

namespace deisa::rt {

struct ThreadedExecutorParams {
  /// Worker threads (0 = hardware concurrency, capped at 16).
  int threads = 0;
  /// Wall seconds per model second. delay(1.0) sleeps time_scale wall
  /// seconds; now() advances 1.0 per time_scale wall seconds.
  double time_scale = 1.0;
};

/// Contention counters for the threaded backend: how deep the strand
/// run-queues got, and how long a scheduled resume waited between post()
/// and actually running on a worker thread (wall seconds).
struct RuntimeStats {
  std::uint64_t posts = 0;        // handles enqueued onto strands
  std::uint64_t timer_fires = 0;  // posts that went through the timer heap
  std::uint64_t resumes = 0;      // handles actually run
  double post_run_latency_total_s = 0.0;
  double post_run_latency_max_s = 0.0;
  std::size_t strands = 0;
  std::size_t max_queue_depth = 0;  // peak over all strands

  double post_run_latency_mean_s() const {
    return resumes > 0 ? post_run_latency_total_s /
                             static_cast<double>(resumes)
                       : 0.0;
  }
};

class ThreadedExecutor final : public exec::Executor {
public:
  explicit ThreadedExecutor(ThreadedExecutorParams params = {});
  ~ThreadedExecutor() override;

  exec::Time now() const override;

  void post(exec::ResumeToken token, exec::Time t) override;
  void wake(exec::ResumeToken token) override;
  exec::ResumeToken capture(std::coroutine_handle<> h) override;
  void* new_strand() override;
  void* current_strand() const override;
  void* exchange_current_strand(void* strand) override;

  void run() override;
  bool run_until(exec::Time t_end) override;
  void stop() override;

  /// Stop and join all worker/timer threads, dropping any still-queued
  /// resumes and destroying still-suspended root actors. Called by the
  /// destructor; callable earlier so an owner can tear down threads
  /// before the actors' dependencies are destroyed. Idempotent.
  void shutdown();

  int threads() const { return static_cast<int>(workers_.size()); }
  double time_scale() const { return time_scale_; }

  /// Snapshot of the contention counters (consistent under load).
  RuntimeStats stats() const;

protected:
  void report_error(std::exception_ptr e) override;

private:
  struct Entry {
    std::coroutine_handle<> handle;
    std::chrono::steady_clock::time_point enqueued;
  };
  struct Strand {
    exec::Fifo<Entry> queue;
    // True while the strand is in runnable_ or being run by a worker;
    // guarantees a strand is never executed by two threads at once.
    bool active = false;
    std::size_t max_depth = 0;  // peak queue depth (contention metric)
  };
  struct Timer {
    std::chrono::steady_clock::time_point when;
    std::uint64_t seq;
    exec::ResumeToken token;
    bool operator>(const Timer& other) const {
      if (when != other.when) return when > other.when;
      return seq > other.seq;
    }
  };

  std::chrono::steady_clock::time_point wall_deadline(exec::Time t) const;
  // Callers hold mu_. `at` is when the resume became due (the start of its
  // post -> run latency).
  void enqueue_locked(exec::ResumeToken token,
                      std::chrono::steady_clock::time_point at);
  void worker_loop();
  void timer_loop();

  const double time_scale_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mu_;
  std::condition_variable cv_workers_;
  std::condition_variable cv_timer_;
  std::condition_variable cv_idle_;
  std::vector<std::unique_ptr<Strand>> strands_;
  Strand* default_strand_ = nullptr;
  exec::Fifo<Strand*> runnable_;
  std::priority_queue<Timer, std::vector<Timer>, std::greater<>> timers_;
  std::uint64_t timer_seq_ = 0;
  std::size_t pending_ = 0;
  // Workers blocked on cv_workers_: a new runnable strand signals one of
  // them, and a busy worker takes it from runnable_ when it next looks.
  std::size_t idle_workers_ = 0;
  // Contention counters (guarded by mu_; mutated on the scheduling path,
  // which already holds it).
  std::uint64_t posts_ = 0;
  std::uint64_t timer_fires_ = 0;
  std::uint64_t resumes_ = 0;
  double latency_total_s_ = 0.0;
  double latency_max_s_ = 0.0;
  bool stop_requested_ = false;
  bool shutdown_ = false;
  bool joined_ = false;
  std::exception_ptr first_error_;

  std::vector<std::thread> workers_;
  std::thread timer_thread_;
};

}  // namespace deisa::rt
