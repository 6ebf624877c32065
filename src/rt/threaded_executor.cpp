#include "deisa/rt/threaded_executor.hpp"

#include <algorithm>
#include <chrono>

#include "deisa/obs/metrics.hpp"

namespace deisa::rt {

namespace {

// The strand the calling thread is currently executing. Worker threads
// set it around every resume; StrandScope sets it on external threads so
// constructor-time spawns land on a chosen strand. Strands are owned by
// their executor, so a thread-local pointer is unambiguous even with
// several executors alive (each executor's workers only ever see its own
// strands).
thread_local void* tls_current_strand = nullptr;

std::chrono::steady_clock::duration to_wall(double seconds) {
  return std::chrono::duration_cast<std::chrono::steady_clock::duration>(
      std::chrono::duration<double>(std::max(0.0, seconds)));
}

}  // namespace

ThreadedExecutor::ThreadedExecutor(ThreadedExecutorParams params)
    : time_scale_(params.time_scale),
      epoch_(std::chrono::steady_clock::now()) {
  DEISA_CHECK(time_scale_ > 0.0,
              "time_scale must be positive: " << time_scale_);
  int n = params.threads;
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    n = std::clamp(n, 2, 16);
  }
  {
    std::lock_guard lk(mu_);
    strands_.push_back(std::make_unique<Strand>());
    default_strand_ = strands_.back().get();
  }
  workers_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    workers_.emplace_back([this] { worker_loop(); });
  timer_thread_ = std::thread([this] { timer_loop(); });
}

ThreadedExecutor::~ThreadedExecutor() { shutdown(); }

exec::Time ThreadedExecutor::now() const {
  const auto elapsed = std::chrono::steady_clock::now() - epoch_;
  return std::chrono::duration<double>(elapsed).count() / time_scale_;
}

std::chrono::steady_clock::time_point ThreadedExecutor::wall_deadline(
    exec::Time t) const {
  return epoch_ + to_wall(t * time_scale_);
}

void ThreadedExecutor::enqueue_locked(
    exec::ResumeToken token, std::chrono::steady_clock::time_point at) {
  auto* s = token.strand != nullptr ? static_cast<Strand*>(token.strand)
                                    : default_strand_;
  s->queue.push_back(Entry{token.handle, at});
  ++posts_;
  s->max_depth = std::max(s->max_depth, s->queue.size());
  if (!s->active) {
    s->active = true;
    runnable_.push_back(s);
    if (idle_workers_ > 0) cv_workers_.notify_one();
  }
}

void ThreadedExecutor::post(exec::ResumeToken token, exec::Time t) {
  const auto when = wall_deadline(t);
  const auto at = std::chrono::steady_clock::now();
  std::lock_guard lk(mu_);
  if (shutdown_) return;  // frame stays suspended; destroyed via its root
  ++pending_;
  if (when <= at) {
    enqueue_locked(token, at);
  } else {
    timers_.push(Timer{when, timer_seq_++, token});
    cv_timer_.notify_one();
  }
}

void ThreadedExecutor::wake(exec::ResumeToken token) {
  const auto at = std::chrono::steady_clock::now();
  std::lock_guard lk(mu_);
  if (shutdown_) return;  // frame stays suspended; destroyed via its root
  ++pending_;
  enqueue_locked(token, at);
}

exec::ResumeToken ThreadedExecutor::capture(std::coroutine_handle<> h) {
  return exec::ResumeToken{h, tls_current_strand};
}

void* ThreadedExecutor::new_strand() {
  std::lock_guard lk(mu_);
  strands_.push_back(std::make_unique<Strand>());
  return strands_.back().get();
}

void* ThreadedExecutor::current_strand() const { return tls_current_strand; }

void* ThreadedExecutor::exchange_current_strand(void* strand) {
  void* prev = tls_current_strand;
  tls_current_strand = strand;
  return prev;
}

void ThreadedExecutor::worker_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    while (!shutdown_ && runnable_.empty()) {
      ++idle_workers_;
      cv_workers_.wait(lk);
      --idle_workers_;
    }
    if (shutdown_) return;
    Strand* s = runnable_.pop_front();
    const Entry entry = s->queue.pop_front();
    // Post -> run scheduling latency: how long the handle sat in the
    // strand queue before a worker picked it up (wall seconds).
    const double wait_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - entry.enqueued)
                              .count();
    ++resumes_;
    latency_total_s_ += wait_s;
    latency_max_s_ = std::max(latency_max_s_, wait_s);
    lk.unlock();
    if (auto* m = obs::metrics())
      m->histogram("rt.exec.post_run_latency_s").observe(wait_s);
    tls_current_strand = s;
    entry.handle.resume();
    tls_current_strand = nullptr;
    lk.lock();
    if (shutdown_) return;
    --pending_;
    if (!s->queue.empty()) {
      runnable_.push_back(s);
      // This thread takes the run queue's head next; an idle worker is
      // needed only for the strands behind it.
      if (runnable_.size() > 1 && idle_workers_ > 0) cv_workers_.notify_one();
    } else {
      s->active = false;
    }
    if (pending_ == 0) cv_idle_.notify_all();
  }
}

void ThreadedExecutor::timer_loop() {
  std::unique_lock lk(mu_);
  for (;;) {
    if (shutdown_) return;
    if (timers_.empty()) {
      cv_timer_.wait(lk);
      continue;
    }
    const auto when = timers_.top().when;
    if (std::chrono::steady_clock::now() < when) {
      cv_timer_.wait_until(lk, when);
      continue;  // re-check: an earlier timer or shutdown may have arrived
    }
    const auto now = std::chrono::steady_clock::now();
    while (!timers_.empty() && timers_.top().when <= now) {
      ++timer_fires_;
      enqueue_locked(timers_.top().token, now);
      timers_.pop();
    }
  }
}

void ThreadedExecutor::run() {
  std::unique_lock lk(mu_);
  stop_requested_ = false;
  cv_idle_.wait(lk, [&] {
    return pending_ == 0 || stop_requested_ || first_error_ != nullptr ||
           shutdown_;
  });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(e);
  }
}

bool ThreadedExecutor::run_until(exec::Time t_end) {
  const auto deadline = wall_deadline(t_end);
  std::unique_lock lk(mu_);
  stop_requested_ = false;
  cv_idle_.wait_until(lk, deadline, [&] {
    return pending_ == 0 || stop_requested_ || first_error_ != nullptr ||
           shutdown_;
  });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lk.unlock();
    std::rethrow_exception(e);
  }
  return pending_ == 0;
}

RuntimeStats ThreadedExecutor::stats() const {
  std::lock_guard lk(mu_);
  RuntimeStats s;
  s.posts = posts_;
  s.timer_fires = timer_fires_;
  s.resumes = resumes_;
  s.post_run_latency_total_s = latency_total_s_;
  s.post_run_latency_max_s = latency_max_s_;
  s.strands = strands_.size();
  s.strand_max_depth.reserve(strands_.size());
  for (const auto& st : strands_) {
    s.strand_max_depth.push_back(st->max_depth);
    s.max_queue_depth = std::max(s.max_queue_depth, st->max_depth);
  }
  return s;
}

void ThreadedExecutor::publish_metrics() const {
  auto* m = obs::metrics();
  if (m == nullptr) return;
  const RuntimeStats s = stats();
  m->gauge("rt.exec.posts").set(static_cast<double>(s.posts));
  m->gauge("rt.exec.timer_fires").set(static_cast<double>(s.timer_fires));
  m->gauge("rt.exec.resumes").set(static_cast<double>(s.resumes));
  m->gauge("rt.exec.strands").set(static_cast<double>(s.strands));
  m->gauge("rt.exec.max_queue_depth")
      .set(static_cast<double>(s.max_queue_depth));
  m->gauge("rt.exec.post_run_latency_mean_s").set(s.post_run_latency_mean_s());
  m->gauge("rt.exec.post_run_latency_max_s").set(s.post_run_latency_max_s);
}

void ThreadedExecutor::stop() {
  std::lock_guard lk(mu_);
  stop_requested_ = true;
  cv_idle_.notify_all();
}

void ThreadedExecutor::report_error(std::exception_ptr e) {
  std::lock_guard lk(mu_);
  if (!first_error_) first_error_ = e;
  cv_idle_.notify_all();
}

void ThreadedExecutor::shutdown() {
  {
    std::lock_guard lk(mu_);
    if (joined_) return;
    joined_ = true;
    shutdown_ = true;
    // Drop scheduled-but-not-run resumes: the frames stay suspended and
    // are destroyed below through their owning roots (destroying a root
    // frame cascades to the children it owns).
    runnable_.clear();
    for (auto& s : strands_) s->queue.clear();
    while (!timers_.empty()) timers_.pop();
    pending_ = 0;
  }
  cv_workers_.notify_all();
  cv_timer_.notify_all();
  cv_idle_.notify_all();
  for (auto& w : workers_) w.join();
  if (timer_thread_.joinable()) timer_thread_.join();
  workers_.clear();
  // Single-threaded from here on.
  destroy_roots();
}

}  // namespace deisa::rt
