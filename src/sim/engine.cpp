#include "deisa/sim/engine.hpp"

#include <algorithm>

namespace deisa::sim {

Engine::~Engine() {
  // Drop pending events first (they may reference coroutines owned by the
  // roots we are about to destroy), then destroy still-suspended roots.
  while (!queue_.empty()) queue_.pop();
  destroy_roots();
}

void Engine::post(exec::ResumeToken token, exec::Time t) {
  DEISA_ASSERT(t >= now_, "scheduling into the past: t=" << t
                                                         << " now=" << now_);
  queue_.push(Scheduled{t, next_seq_++, token.handle});
}

void Engine::dispatch(const Scheduled& ev) {
  now_ = ev.time;
  ++events_processed_;
  ev.handle.resume();
}

void Engine::run() {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    const Scheduled ev = queue_.top();
    queue_.pop();
    dispatch(ev);
    if (first_error_) {
      std::exception_ptr e = std::exchange(first_error_, nullptr);
      std::rethrow_exception(e);
    }
  }
}

bool Engine::run_until(exec::Time t_end) {
  stopped_ = false;
  while (!queue_.empty() && !stopped_) {
    if (queue_.top().time > t_end) {
      now_ = t_end;
      return false;
    }
    const Scheduled ev = queue_.top();
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
