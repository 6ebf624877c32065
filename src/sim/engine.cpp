#include "deisa/sim/engine.hpp"

#include <algorithm>

namespace deisa::sim {

Engine::~Engine() {
  // Drop pending events first (they may reference coroutines owned by the
  // roots we are about to destroy), then destroy still-suspended roots.
  while (!queue_.empty()) queue_.pop();
  destroy_roots();
}

void Engine::schedule(std::coroutine_handle<> h, Time t) {
  DEISA_ASSERT(t >= now_, "scheduling into the past: t=" << t
                                                         << " now=" << now_);
  queue_.push(Scheduled{t, next_seq_++, h, nullptr});
}

void Engine::schedule_callback(std::function<void()> fn, Time t) {
  DEISA_ASSERT(t >= now_, "scheduling into the past: t=" << t
                                                         << " now=" << now_);
  queue_.push(Scheduled{t, next_seq_++, {}, std::move(fn)});
}

void Engine::dispatch(Scheduled& ev) {
  now_ = ev.time;
  ++events_processed_;
  if (ev.handle) {
    ev.handle.resume();
  } else if (ev.callback) {
    ev.callback();
  }
}

void Engine::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    Scheduled ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    if (first_error_) {
      std::exception_ptr e = std::exchange(first_error_, nullptr);
      std::rethrow_exception(e);
    }
  }
}

bool Engine::run_until(Time t_end) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.top().time > t_end) {
      now_ = t_end;
      return false;
    }
    Scheduled ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    if (first_error_) {
      std::exception_ptr e = std::exchange(first_error_, nullptr);
      std::rethrow_exception(e);
    }
  }
  now_ = std::max(now_, t_end);
  return true;
}

void Engine::report_error(std::exception_ptr e) {
  if (!first_error_) first_error_ = e;
}

}  // namespace deisa::sim
