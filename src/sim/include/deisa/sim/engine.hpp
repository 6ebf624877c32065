// Deterministic single-threaded discrete-event engine — the simulation
// backend of the exec::Executor seam.
//
// Events are (time, sequence) ordered, so two events at the same simulated
// time fire in scheduling order — the whole system is a pure function of
// its seeds, which is what makes the paper's Figure 5 variability study
// reproducible (same node allocation ⇒ same per-rank pattern). The seam
// methods map onto the legacy API without adding or reordering events:
// post() is schedule(), wake() is post() at the current time, and
// capture() is the bare handle (no strands), so any run through the
// Executor interface replays the exact pre-seam event sequence.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "deisa/exec/executor.hpp"
#include "deisa/sim/co.hpp"

namespace deisa::sim {

/// Simulated time in seconds.
using Time = exec::Time;

class Engine final : public exec::Executor {
public:
  Engine() = default;
  ~Engine() override;

  Time now() const override { return now_; }

  /// Schedule `h` to resume at absolute time `t` (>= now).
  void schedule(std::coroutine_handle<> h, Time t);
  /// Schedule a plain callback at absolute time `t`.
  void schedule_callback(std::function<void()> fn, Time t);

  // ---- exec::Executor seam ----
  void post(exec::ResumeToken token, Time t) override {
    schedule(token.handle, t);
  }
  void wake(exec::ResumeToken token) override { post(token, now_); }
  exec::ResumeToken capture(std::coroutine_handle<> h) override {
    return exec::ResumeToken{h, nullptr};
  }
  void* new_strand() override { return nullptr; }
  void* current_strand() const override { return nullptr; }
  void* exchange_current_strand(void* /*strand*/) override { return nullptr; }
  bool concurrent() const override { return false; }

  /// Run until the event queue drains (or stop() is called).
  /// Rethrows the first exception escaping any root actor.
  void run() override;
  /// Run until simulated time reaches `t_end` (events at exactly t_end
  /// are processed). Returns true if the queue drained before t_end.
  bool run_until(Time t_end) override;
  /// Request the run loop to return after the current event.
  void stop() override { stopped_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }

protected:
  void report_error(std::exception_ptr e) override;

private:
  struct Scheduled {
    Time time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    std::function<void()> callback;  // used when handle is null
    bool operator>(const Scheduled& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  void dispatch(Scheduled& ev);

  Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stopped_ = false;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      queue_;
  std::exception_ptr first_error_;
};

/// Await the completion of several Co<void> tasks running concurrently.
inline Co<void> when_all(exec::Executor& ex, std::vector<Co<void>> tasks) {
  return exec::when_all(ex, std::move(tasks));
}

}  // namespace deisa::sim
