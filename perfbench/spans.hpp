// Benchmark-owned tracing for the traced run: spans recorded around the
// calls the driver makes into each layer, kept in memory and written out
// when the run ends. Nothing here reaches inside the program; spans inside
// the libraries are a separate change.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "deisa/exec/transport.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// The process's work start: every timestamp is measured from it.
inline const Clock::time_point& work_start() {
  static const Clock::time_point t0 = Clock::now();
  return t0;
}

inline std::int64_t since_start_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              work_start())
      .count();
}

inline double since_start_s() {
  return static_cast<double>(since_start_ns()) * 1e-9;
}

struct SpanRecord {
  const char* name = "";
  std::int64_t t0_ns = 0;
  std::int64_t t1_ns = -1;  // -1 while open
  std::int32_t parent = -1;  // index of the enclosing span, -1 for a root
  std::int32_t rank = -1;    // producer rank, -1 elsewhere
  std::int32_t step = -1;    // timestep, -1 elsewhere
};

/// Thread-safe append-only span store. Spans are opened and closed from
/// executor threads (rank, client and task-body coroutines), so every
/// access takes the lock; the traced run reports what that costs.
class SpanLog {
public:
  std::int32_t open(const char* name, std::int32_t parent, int rank,
                    int step) {
    SpanRecord rec;
    rec.name = name;
    rec.parent = parent;
    rec.rank = rank;
    rec.step = step;
    rec.t0_ns = since_start_ns();
    std::lock_guard lk(mu_);
    spans_.push_back(rec);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t id, const char* name) {
    const std::int64_t t1 = since_start_ns();
    std::lock_guard lk(mu_);
    SpanRecord& rec = spans_[static_cast<std::size_t>(id)];
    rec.t1_ns = t1;
    rec.name = name;
  }

  /// A span whose bounds were measured elsewhere (run phases).
  std::int32_t add(const char* name, double t0_s, double t1_s) {
    SpanRecord rec;
    rec.name = name;
    rec.t0_ns = static_cast<std::int64_t>(t0_s * 1e9);
    rec.t1_ns = static_cast<std::int64_t>(t1_s * 1e9);
    std::lock_guard lk(mu_);
    spans_.push_back(rec);
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  std::vector<SpanRecord> snapshot() const {
    std::lock_guard lk(mu_);
    return spans_;
  }

private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span; a no-op when `log` is null (the untraced runs).
class Scope {
public:
  Scope(SpanLog* log, const char* name, std::int32_t parent = -1,
        int rank = -1, int step = -1)
      : log_(log), name_(name) {
    if (log_ != nullptr) id_ = log_->open(name, parent, rank, step);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_ != nullptr) log_->close(id_, name_);
  }

  std::int32_t id() const { return id_; }
  /// Name the span by its outcome, decided after it opened.
  void rename(const char* name) { name_ = name; }

private:
  SpanLog* log_;
  const char* name_;
  std::int32_t id_ = -1;
};

/// Durations in seconds of every closed span named `name`.
inline std::vector<double> durations(const std::vector<SpanRecord>& spans,
                                     const std::string& name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (s.t1_ns >= 0 && name == s.name)
      out.push_back(static_cast<double>(s.t1_ns - s.t0_ns) * 1e-9);
  return out;
}

/// Per-name totals: self time is a span's duration minus the part of it
/// that the union of its child spans covers.
struct LayerRow {
  std::size_t count = 0;
  double total_s = 0.0;
  double self_s = 0.0;
};

inline std::map<std::string, LayerRow> self_times(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::int32_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(
          static_cast<std::int32_t>(i));
  std::map<std::string, LayerRow> rows;
  std::vector<std::pair<std::int64_t, std::int64_t>> iv;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (s.t1_ns < 0) continue;
    iv.clear();
    for (std::int32_t c : children[i]) {
      const SpanRecord& k = spans[static_cast<std::size_t>(c)];
      if (k.t1_ns < 0) continue;
      const std::int64_t lo = std::max(k.t0_ns, s.t0_ns);
      const std::int64_t hi = std::min(k.t1_ns, s.t1_ns);
      if (hi > lo) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t end = s.t0_ns;
    for (const auto& [lo, hi] : iv) {
      const std::int64_t from = std::max(lo, end);
      if (hi > from) covered += hi - from;
      end = std::max(end, hi);
    }
    LayerRow& row = rows[s.name];
    ++row.count;
    const std::int64_t dur = s.t1_ns - s.t0_ns;
    row.total_s += static_cast<double>(dur) * 1e-9;
    row.self_s += static_cast<double>(dur - covered) * 1e-9;
  }
  return rows;
}

inline void write_csv(std::ostream& os, const std::vector<SpanRecord>& spans) {
  os << "id,name,start_ns,end_ns,parent,rank,step\n";
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    os << i << ',' << s.name << ',' << s.t0_ns << ',' << s.t1_ns << ','
       << s.parent << ',' << s.rank << ',' << s.step << '\n';
  }
}

/// Forwarding transport: times every bulk transfer of the task system
/// (pushes, peer fetches, gathers) and hands everything else through.
class TimedTransport final : public deisa::exec::Transport {
public:
  TimedTransport(deisa::exec::Transport& inner, SpanLog& log)
      : inner_(&inner), log_(&log) {}

  deisa::exec::Executor& executor() override { return inner_->executor(); }

  deisa::exec::Co<void> transfer(int src, int dst,
                                 std::uint64_t bytes) override {
    Scope span(log_, "rt.transfer");
    co_await inner_->transfer(src, dst, bytes);
  }

  deisa::exec::Co<deisa::exec::SendResult> send_control(
      int src, int dst, std::uint64_t bytes,
      deisa::exec::Delivery delivery) override {
    co_return co_await inner_->send_control(src, dst, bytes, delivery);
  }

  void set_fault_hook(deisa::exec::FaultHook hook) override {
    inner_->set_fault_hook(std::move(hook));
  }
  bool has_fault_hook() const override { return inner_->has_fault_hook(); }
  deisa::exec::TransferStats stats() const override {
    return inner_->stats();
  }

private:
  deisa::exec::Transport* inner_;
  SpanLog* log_;
};

}  // namespace perfbench
