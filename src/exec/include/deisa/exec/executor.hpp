// Execution-substrate seam: the abstract Executor every actor runs on.
//
// Two backends implement it:
//   * sim::Engine          — deterministic single-threaded discrete-event
//                            simulation over virtual time. All paper
//                            figures run here; events at the same time
//                            fire in post order.
//   * rt::ThreadedExecutor — N worker threads over wall-clock time, with
//                            strand-serialized actor groups, MPMC run
//                            queues and condition-variable timers.
//
// Actors never name a backend: they hold `exec::Executor&` and use
// spawn/delay plus the primitives in primitives.hpp. The strand concept
// is what lets the same actor code run unlocked on real threads — every
// coroutine resume is posted to a strand, and a strand never runs on two
// threads at once. The simulator maps every strand to nullptr (one global
// strand: the event loop), so strand bookkeeping costs it nothing and
// changes no event ordering.
#pragma once

#include <coroutine>
#include <cstdint>
#include <exception>
#include <mutex>
#include <vector>

#include "deisa/exec/co.hpp"
#include "deisa/util/error.hpp"

namespace deisa::exec {

/// Model time in seconds. Virtual under sim; wall-clock-derived (scaled)
/// under threads.
using Time = double;

class Executor;

/// A suspended coroutine plus the strand it must resume on. Produced by
/// Executor::capture() at suspension points; consumed by Executor::post()
/// and Executor::wake().
/// Primitives store tokens, never raw handles, so waiters always wake on
/// the strand that suspended them.
struct ResumeToken {
  std::coroutine_handle<> handle{};
  void* strand = nullptr;

  explicit operator bool() const noexcept {
    return static_cast<bool>(handle);
  }
};

namespace detail {

/// Fire-and-forget root coroutine: linked into its executor's root list
/// while it lives, so that frames suspended at teardown are destroyed
/// deterministically.
struct Detached {
  struct promise_type : PooledFrame {
    Executor* executor = nullptr;
    // Links of the executor's root list (guarded by its root mutex).
    promise_type* prev = nullptr;
    promise_type* next = nullptr;

    Detached get_return_object() {
      return Detached{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() const noexcept { return {}; }
    struct Final {
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<promise_type> h) const noexcept;
      void await_resume() const noexcept {}
    };
    Final final_suspend() const noexcept { return {}; }
    void return_void() const noexcept {}
    void unhandled_exception();
  };
  std::coroutine_handle<promise_type> handle;
};

}  // namespace detail

class Executor {
public:
  Executor() = default;
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;
  virtual ~Executor() = default;

  virtual Time now() const = 0;

  /// Schedule a captured coroutine to resume at model time `t`. A past
  /// `t` means "as soon as possible" (the simulator asserts t >= now).
  virtual void post(ResumeToken token, Time t) = 0;
  /// Schedule a captured coroutine to resume as soon as possible: the
  /// same as post(token, now()), with at most one clock read.
  virtual void wake(ResumeToken token) = 0;

  /// Capture `h` together with the strand it is currently running on.
  virtual ResumeToken capture(std::coroutine_handle<> h) = 0;

  /// Create a new strand (serialization domain for a group of actors).
  /// The simulator returns nullptr: everything shares the event loop.
  virtual void* new_strand() = 0;
  /// The strand the calling thread is currently executing (nullptr when
  /// outside any strand, or always under sim).
  virtual void* current_strand() const = 0;
  /// Set the calling thread's current strand, returning the previous one
  /// (no-op returning nullptr under sim). Used by StrandScope so that
  /// spawns from non-coroutine code (constructors) land on a chosen
  /// strand.
  virtual void* exchange_current_strand(void* strand) = 0;

  /// Run until quiescent (event queue drained / no scheduled resumes).
  /// Rethrows the first exception escaping any root actor.
  virtual void run() = 0;
  /// Run until model time reaches `t_end`. Returns true if the executor
  /// went quiescent before the deadline.
  virtual bool run_until(Time t_end) = 0;
  /// Request the run loop to return as soon as possible.
  virtual void stop() = 0;

  /// Launch a root actor on the calling context's strand. It starts at
  /// the current model time.
  void spawn(Co<void> co) { spawn_on(current_strand(), std::move(co)); }

  /// Launch a root actor on an explicit strand (nullptr = default).
  void spawn_on(void* strand, Co<void> co);

  /// Root actors spawned and not finished yet (suspended or queued).
  std::size_t live_roots() const;

  /// Awaitable: resume after `dt` model seconds (dt >= 0).
  auto delay(Time dt) {
    struct Awaiter {
      Executor& ex;
      Time dt;
      bool await_ready() const noexcept { return false; }
      void await_suspend(std::coroutine_handle<> h) const {
        ex.post(ex.capture(h), ex.now() + dt);
      }
      void await_resume() const noexcept {}
    };
    DEISA_CHECK(dt >= 0.0, "cannot delay a negative duration: " << dt);
    return Awaiter{*this, dt};
  }

protected:
  friend struct detail::Detached::promise_type;

  /// Destroy every root still alive, which cascades to the frames each
  /// one owns. A backend calls it at teardown, once no resume can run.
  void destroy_roots();
  virtual void report_error(std::exception_ptr e) = 0;

private:
  void link_root(detail::Detached::promise_type& root);
  void unlink_root(detail::Detached::promise_type& root);

  // Intrusive list of live roots. Its own lock, so that spawning and
  // finishing a root never take a backend's scheduling lock.
  mutable std::mutex root_mu_;
  detail::Detached::promise_type* root_head_ = nullptr;
  std::size_t root_count_ = 0;
};

/// RAII: make constructor-time spawns land on `strand`. The simulator
/// no-ops this, so wrapping construction in a StrandScope changes nothing
/// about sim event ordering.
class StrandScope {
public:
  StrandScope(Executor& ex, void* strand)
      : ex_(&ex), prev_(ex.exchange_current_strand(strand)) {}
  StrandScope(const StrandScope&) = delete;
  StrandScope& operator=(const StrandScope&) = delete;
  ~StrandScope() { ex_->exchange_current_strand(prev_); }

private:
  Executor* ex_;
  void* prev_;
};

/// Await the completion of several Co<void> tasks running concurrently.
/// The tasks are spawned on the caller's strand.
Co<void> when_all(Executor& ex, std::vector<Co<void>> tasks);

}  // namespace deisa::exec
