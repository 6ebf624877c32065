// Deterministic single-threaded discrete-event engine — the simulation
// backend of the exec::Executor seam.
//
// Every queued event is a coroutine handle keyed by (time, sequence), so
// two events at the same simulated time fire in post order — the whole
// system is a pure function of its seeds, which is what makes the paper's
// Figure 5 variability study reproducible (same node allocation ⇒ same
// per-rank pattern). wake() is post() at the current time, and capture()
// is the bare handle (no strands).
#pragma once

#include <coroutine>
#include <cstdint>
#include <queue>
#include <type_traits>
#include <vector>

#include "deisa/exec/executor.hpp"

namespace deisa::sim {

class Engine final : public exec::Executor {
public:
  Engine() = default;
  ~Engine() override;

  exec::Time now() const override { return now_; }

  // ---- exec::Executor seam ----
  /// Resume `token` at absolute time `t` (>= now).
  void post(exec::ResumeToken token, exec::Time t) override;
  void wake(exec::ResumeToken token) override { post(token, now_); }
  exec::ResumeToken capture(std::coroutine_handle<> h) override {
    return exec::ResumeToken{h, nullptr};
  }
  void* new_strand() override { return nullptr; }
  void* current_strand() const override { return nullptr; }
  void* exchange_current_strand(void* /*strand*/) override { return nullptr; }

  /// Run until the event queue drains (or stop() is called).
  /// Rethrows the first exception escaping any root actor.
  void run() override;
  /// Run until simulated time reaches `t_end` (events at exactly t_end
  /// are processed). Returns true if the queue drained before t_end.
  bool run_until(exec::Time t_end) override;
  /// Request the run loop to return after the current event.
  void stop() override { stopped_ = true; }

  std::uint64_t events_processed() const { return events_processed_; }

protected:
  void report_error(std::exception_ptr e) override;

private:
  struct Scheduled {
    exec::Time time;
    std::uint64_t seq;
    std::coroutine_handle<> handle;
    bool operator>(const Scheduled& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };
  static_assert(std::is_trivially_copyable_v<Scheduled>,
                "a queued event is a plain (time, seq, handle) triple");

  void dispatch(const Scheduled& ev);

  exec::Time now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  bool stopped_ = false;
  std::priority_queue<Scheduled, std::vector<Scheduled>, std::greater<>>
      queue_;
  std::exception_ptr first_error_;
};

}  // namespace deisa::sim
