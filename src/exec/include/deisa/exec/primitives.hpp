// Synchronization and queueing primitives for actors:
//   Event      — one-shot broadcast (contract signed, workflow done, ...)
//   Channel<T> — FIFO message queue with awaiting receivers
//   Semaphore  — counted resource
//   FifoServer — single/multi-server queueing station with a service-time
//                model; this is how the centralized Dask-style scheduler's
//                metadata load turns into queueing delay and variability.
//
// All primitives work on any Executor. They are internally locked so the
// same code runs on the threaded substrate; under the single-threaded
// simulator the locks are uncontended and the wake ordering is
// deterministic:
//   * a waiter that could proceed immediately returns false from
//     await_suspend (synchronous continuation — zero engine events), and
//   * wakes hand waiters to Executor::wake in FIFO registration order;
//     the simulator posts them at the current time, so they fire in that
//     order.
#pragma once

#include <functional>
#include <mutex>
#include <optional>

#include "deisa/exec/executor.hpp"
#include "deisa/exec/fifo.hpp"

namespace deisa::exec {

/// One-shot broadcast event. `set()` wakes every current waiter; waiters
/// arriving after `set()` do not block.
class Event {
public:
  explicit Event(Executor& ex) : ex_(&ex) {}
  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const {
    std::lock_guard lk(mu_);
    return set_;
  }

  void set() {
    Fifo<ResumeToken> to_wake;
    {
      std::lock_guard lk(mu_);
      if (set_) return;
      set_ = true;
      to_wake.swap(waiters_);
    }
    while (!to_wake.empty()) ex_->wake(to_wake.pop_front());
  }

  auto wait() {
    struct Awaiter {
      Event& event;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) const {
        std::lock_guard lk(event.mu_);
        if (event.set_) return false;
        event.waiters_.push_back(event.ex_->capture(h));
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

private:
  Executor* ex_;
  mutable std::mutex mu_;
  bool set_ = false;
  Fifo<ResumeToken> waiters_;
};

/// Unbounded FIFO channel. Multiple receivers are served in arrival order.
template <typename T>
class Channel {
public:
  explicit Channel(Executor& ex) : ex_(&ex) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T value) {
    ResumeToken waiter{};
    {
      std::lock_guard lk(mu_);
      items_.push_back(std::move(value));
      if (!waiters_.empty()) {
        ++reserved_;
        waiter = waiters_.pop_front();
      }
    }
    if (waiter) ex_->wake(waiter);
  }

  auto recv() {
    struct Awaiter {
      Channel& channel;
      bool woken = false;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) {
        std::lock_guard lk(channel.mu_);
        if (channel.items_.size() > channel.reserved_) return false;
        woken = true;
        channel.waiters_.push_back(channel.ex_->capture(h));
        return true;
      }
      T await_resume() {
        std::lock_guard lk(channel.mu_);
        if (woken) --channel.reserved_;
        DEISA_ASSERT(!channel.items_.empty(), "channel wakeup without item");
        return channel.items_.pop_front();
      }
    };
    return Awaiter{*this};
  }

  /// Non-blocking receive.
  std::optional<T> try_recv() {
    std::lock_guard lk(mu_);
    if (items_.size() <= reserved_) return std::nullopt;
    return items_.pop_front();
  }

  std::size_t size() const {
    std::lock_guard lk(mu_);
    return items_.size();
  }
  bool empty() const {
    std::lock_guard lk(mu_);
    return items_.empty();
  }

private:
  Executor* ex_;
  mutable std::mutex mu_;
  Fifo<T> items_;
  Fifo<ResumeToken> waiters_;
  std::size_t reserved_ = 0;  // items already promised to scheduled waiters
};

/// Counted semaphore with FIFO waiters.
class Semaphore {
public:
  Semaphore(Executor& ex, std::size_t count) : ex_(&ex), count_(count) {}
  Semaphore(const Semaphore&) = delete;
  Semaphore& operator=(const Semaphore&) = delete;

  auto acquire() {
    struct Awaiter {
      Semaphore& sem;
      bool await_ready() const noexcept { return false; }
      bool await_suspend(std::coroutine_handle<> h) const {
        std::lock_guard lk(sem.mu_);
        if (sem.count_ > 0) {
          --sem.count_;
          return false;
        }
        sem.waiters_.push_back(sem.ex_->capture(h));
        return true;
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{*this};
  }

  void release() {
    ResumeToken waiter{};
    {
      std::lock_guard lk(mu_);
      if (!waiters_.empty()) {
        // Hand the token directly to the first waiter.
        waiter = waiters_.pop_front();
      } else {
        ++count_;
      }
    }
    if (waiter) ex_->wake(waiter);
  }

private:
  Executor* ex_;
  std::mutex mu_;
  std::size_t count_;
  Fifo<ResumeToken> waiters_;
};

/// FIFO queueing station: `serve(d)` waits for a free server slot, holds
/// it for `d` model seconds, then releases it. A zero-length service
/// takes and releases its slot without a trip through the executor, after
/// waiting its FIFO turn like any other job.
class FifoServer {
public:
  FifoServer(Executor& ex, std::size_t servers = 1)
      : ex_(&ex), sem_(ex, servers) {}

  Co<void> serve(Time duration) {
    DEISA_CHECK(duration >= 0.0, "negative service time " << duration);
    co_await sem_.acquire();
    if (duration > 0.0) co_await ex_->delay(duration);
    sem_.release();
  }

private:
  Executor* ex_;
  Semaphore sem_;
};

}  // namespace deisa::exec
