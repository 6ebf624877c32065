// Lazy coroutine task type shared by every execution substrate.
//
// `Co<T>` is a coroutine that starts when awaited (or when spawned on an
// Executor). All actors in deisa-cpp — MPI ranks, the Dask-style
// scheduler, workers, bridges — are written as straight-line `Co<void>`
// coroutines; whether they run over the simulated clock or on real
// threads is decided by the Executor they are spawned on.
//
// Awaiting a Co runs the child inline, from the awaiter's await_suspend.
// A child that finishes without suspending returns there, and the
// awaiter goes on without suspending: a loop that awaits a million such
// children keeps a flat stack. Only a child that suspended resumes its
// awaiter from its final suspend, by symmetric transfer. Symmetric
// transfer alone (await_suspend returning the child's handle) would nest
// one resume per awaited child unless the compiler turns each transfer
// into a tail call, and GCC 12 does that only at -O2 without sanitizers.
//
// The promise's continuation doubles as the flag: it stays null while the
// child runs inline, and await_suspend sets it only once the child has
// suspended. That needs no atomics. A child is resumed only through a
// token captured on its own strand (Executor::capture), which is the
// awaiter's strand, and the thread running the awaiter holds that strand
// until its resume returns, so no other thread can resume the child
// while Co::await_suspend reads done() and sets the continuation.
#pragma once

#include <coroutine>
#include <exception>
#include <utility>
#include <variant>

#include "deisa/exec/frame_pool.hpp"
#include "deisa/util/error.hpp"

namespace deisa::exec {

template <typename T>
class Co;

namespace detail {

struct FinalAwaiter {
  bool await_ready() const noexcept { return false; }
  template <typename Promise>
  std::coroutine_handle<> await_suspend(
      std::coroutine_handle<Promise> h) noexcept {
    // No continuation: the child never suspended, so it returns into
    // Co::await_suspend, whose awaiter then continues without suspending.
    auto cont = h.promise().continuation;
    return cont ? cont : std::noop_coroutine();
  }
  void await_resume() const noexcept {}
};

template <typename T>
struct CoPromise : PooledFrame {
  std::coroutine_handle<> continuation{};
  std::variant<std::monostate, T, std::exception_ptr> result{};

  Co<T> get_return_object();
  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void return_value(T value) { result.template emplace<1>(std::move(value)); }
  void unhandled_exception() {
    result.template emplace<2>(std::current_exception());
  }

  T take_result() {
    if (result.index() == 2) std::rethrow_exception(std::get<2>(result));
    DEISA_ASSERT(result.index() == 1, "coroutine completed without a value");
    return std::move(std::get<1>(result));
  }
};

template <>
struct CoPromise<void> : PooledFrame {
  std::coroutine_handle<> continuation{};
  std::exception_ptr exception{};

  Co<void> get_return_object();
  std::suspend_always initial_suspend() const noexcept { return {}; }
  FinalAwaiter final_suspend() const noexcept { return {}; }
  void return_void() const noexcept {}
  void unhandled_exception() { exception = std::current_exception(); }

  void take_result() const {
    if (exception) std::rethrow_exception(exception);
  }
};

}  // namespace detail

/// Awaitable, move-only, lazily-started coroutine returning T.
template <typename T>
class [[nodiscard]] Co {
public:
  using promise_type = detail::CoPromise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  Co() = default;
  explicit Co(handle_type h) : h_(h) {}
  Co(Co&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  Co& operator=(Co&& other) noexcept {
    if (this != &other) {
      destroy();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  Co(const Co&) = delete;
  Co& operator=(const Co&) = delete;
  ~Co() { destroy(); }

  bool valid() const { return static_cast<bool>(h_); }

  /// Awaiting runs the child inline; the awaiter suspends only if the
  /// child suspended before it finished.
  bool await_ready() const noexcept { return false; }
  bool await_suspend(std::coroutine_handle<> awaiter) {
    DEISA_ASSERT(h_ && !h_.done(), "awaiting an invalid or finished Co");
    h_.resume();
    if (h_.done()) return false;
    h_.promise().continuation = awaiter;
    return true;
  }
  T await_resume() { return h_.promise().take_result(); }

  /// Release ownership (the executor takes over root task lifetimes).
  handle_type release() { return std::exchange(h_, {}); }

private:
  void destroy() {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }
  handle_type h_{};
};

namespace detail {

template <typename T>
Co<T> CoPromise<T>::get_return_object() {
  return Co<T>(std::coroutine_handle<CoPromise<T>>::from_promise(*this));
}

inline Co<void> CoPromise<void>::get_return_object() {
  return Co<void>(std::coroutine_handle<CoPromise<void>>::from_promise(*this));
}

}  // namespace detail

}  // namespace deisa::exec
