#include "deisa/exec/executor.hpp"

#include <memory>
#include <mutex>

namespace deisa::exec {

namespace detail {

void Detached::promise_type::Final::await_suspend(
    std::coroutine_handle<promise_type> h) const noexcept {
  Executor* ex = h.promise().executor;
  if (ex != nullptr) ex->unlink_root(h.promise());
  h.destroy();
}

void Detached::promise_type::unhandled_exception() {
  if (executor != nullptr) executor->report_error(std::current_exception());
}

namespace {
Detached run_root(Co<void> co) { co_await std::move(co); }
}  // namespace

}  // namespace detail

void Executor::spawn_on(void* strand, Co<void> co) {
  DEISA_CHECK(co.valid(), "spawning an empty coroutine");
  detail::Detached root = detail::run_root(std::move(co));
  root.handle.promise().executor = this;
  link_root(root.handle.promise());
  wake(ResumeToken{root.handle, strand});
}

std::size_t Executor::live_roots() const {
  std::lock_guard lk(root_mu_);
  return root_count_;
}

void Executor::link_root(detail::Detached::promise_type& root) {
  std::lock_guard lk(root_mu_);
  root.next = root_head_;
  if (root_head_ != nullptr) root_head_->prev = &root;
  root_head_ = &root;
  ++root_count_;
}

void Executor::unlink_root(detail::Detached::promise_type& root) {
  std::lock_guard lk(root_mu_);
  if (root.prev != nullptr) {
    root.prev->next = root.next;
  } else {
    root_head_ = root.next;
  }
  if (root.next != nullptr) root.next->prev = root.prev;
  root.prev = root.next = nullptr;
  --root_count_;
}

void Executor::destroy_roots() {
  // Unlink each root before destroying it, so the list never points at
  // a freed frame; destroying a root destroys the frames it owns.
  for (;;) {
    detail::Detached::promise_type* root = nullptr;
    {
      std::lock_guard lk(root_mu_);
      root = root_head_;
    }
    if (root == nullptr) return;
    unlink_root(*root);
    std::coroutine_handle<detail::Detached::promise_type>::from_promise(*root)
        .destroy();
  }
}

namespace {

struct AllState {
  std::mutex mu;
  std::size_t remaining = 0;
  ResumeToken waiter{};
  Executor* ex = nullptr;
  std::exception_ptr error{};
};

Co<void> all_wrapper(std::shared_ptr<AllState> state, Co<void> task) {
  try {
    co_await std::move(task);
  } catch (...) {
    std::lock_guard lk(state->mu);
    if (!state->error) state->error = std::current_exception();
  }
  ResumeToken waiter{};
  {
    std::lock_guard lk(state->mu);
    if (--state->remaining == 0 && state->waiter) waiter = state->waiter;
  }
  if (waiter) state->ex->wake(waiter);
}

struct AllAwaiter {
  // Non-aggregate on purpose: GCC 12 double-destroys aggregate co_await
  // operand temporaries with non-trivial members (here the shared_ptr,
  // whose extra release frees AllState while it is still in use). Same
  // rule as the mpix::Message constructors.
  explicit AllAwaiter(std::shared_ptr<AllState> s) : state(std::move(s)) {}

  std::shared_ptr<AllState> state;
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> h) const {
    std::lock_guard lk(state->mu);
    if (state->remaining == 0) return false;
    state->waiter = state->ex->capture(h);
    return true;
  }
  void await_resume() const noexcept {}
};

}  // namespace

Co<void> when_all(Executor& ex, std::vector<Co<void>> tasks) {
  auto state = std::make_shared<AllState>();
  state->remaining = tasks.size();
  state->ex = &ex;
  for (auto& task : tasks) ex.spawn(all_wrapper(state, std::move(task)));
  tasks.clear();
  co_await AllAwaiter(state);
  if (state->error) std::rethrow_exception(state->error);
}

}  // namespace deisa::exec
