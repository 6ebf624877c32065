#include "deisa/obs/trace.hpp"

#include <algorithm>

#include "deisa/obs/metrics.hpp"
#include "deisa/util/error.hpp"

namespace deisa::obs {

std::atomic<Recorder*> Recorder::current_{nullptr};

const char* to_string(EventType t) {
  switch (t) {
    case EventType::kSpan: return "span";
    case EventType::kInstant: return "instant";
    case EventType::kCounter: return "counter";
    case EventType::kEdge: return "edge";
  }
  return "?";
}

const char* to_string(EdgeKind k) {
  switch (k) {
    case EdgeKind::kNone: return "none";
    case EdgeKind::kMessage: return "message";
    case EdgeKind::kAssign: return "assign";
    case EdgeKind::kDep: return "dep";
    case EdgeKind::kPush: return "push";
    case EdgeKind::kLocal: return "local";
  }
  return "?";
}

TraceArg arg(std::string key, std::string value) {
  return TraceArg{std::move(key), std::move(value), false};
}

TraceArg arg(std::string key, const char* value) {
  return TraceArg{std::move(key), std::string(value), false};
}

TraceArg arg(std::string key, double value) {
  std::string s = std::to_string(value);
  return TraceArg{std::move(key), std::move(s), true};
}

TraceArg arg(std::string key, std::uint64_t value) {
  return TraceArg{std::move(key), std::to_string(value), true};
}

Span::Span(Recorder* recorder, TrackId track, std::string name)
    : recorder_(recorder),
      track_(track),
      t0_(SimClock::now()),
      self_id_(recorder != nullptr ? recorder->new_cause() : 0),
      name_(std::move(name)) {}

Span& Span::operator=(Span&& other) noexcept {
  if (this != &other) {
    finish();
    recorder_ = other.recorder_;
    track_ = other.track_;
    t0_ = other.t0_;
    self_id_ = other.self_id_;
    cause_id_ = other.cause_id_;
    edge_ = other.edge_;
    name_ = std::move(other.name_);
    args_ = std::move(other.args_);
    other.recorder_ = nullptr;
  }
  return *this;
}

void Span::add_arg(TraceArg a) {
  if (recorder_ != nullptr) args_.push_back(std::move(a));
}

void Span::finish() {
  if (recorder_ == nullptr) return;
  const double t1 = SimClock::now();
  recorder_->complete(track_, std::move(name_), t0_, std::max(0.0, t1 - t0_),
                      std::move(args_), self_id_, cause_id_, edge_);
  recorder_ = nullptr;
}

Recorder::Recorder(std::size_t capacity) : capacity_(capacity) {
  DEISA_CHECK(capacity_ > 0, "trace recorder needs a positive capacity");
  ring_.reserve(std::min<std::size_t>(capacity_, 4096));
}

TrackId Recorder::track(std::string_view actor, std::string_view lane) {
  auto key = std::make_pair(std::string(actor), std::string(lane));
  std::lock_guard lk(mu_);
  const auto it = track_ids_.find(key);
  if (it != track_ids_.end()) return it->second;
  const auto id = static_cast<TrackId>(tracks_.size());
  tracks_.push_back(Track{key.first, key.second});
  track_ids_.emplace(std::move(key), id);
  return id;
}

void Recorder::instant(TrackId track, std::string name,
                       std::vector<TraceArg> args) {
  TraceEvent ev;
  ev.type = EventType::kInstant;
  ev.ts = SimClock::now();
  ev.track = track;
  ev.name = std::move(name);
  ev.args = std::move(args);
  push(std::move(ev));
}

void Recorder::complete(TrackId track, std::string name, double ts, double dur,
                        std::vector<TraceArg> args, CauseId self_id,
                        CauseId cause_id, EdgeKind edge) {
  TraceEvent ev;
  ev.type = EventType::kSpan;
  ev.ts = ts;
  ev.dur = dur;
  ev.track = track;
  ev.self_id = self_id;
  ev.cause_id = cause_id;
  ev.edge = edge;
  ev.name = std::move(name);
  ev.args = std::move(args);
  push(std::move(ev));
}

void Recorder::edge(CauseId src, CauseId dst, EdgeKind kind, TrackId track) {
  if (src == 0 || dst == 0) return;
  TraceEvent ev;
  ev.type = EventType::kEdge;
  ev.ts = SimClock::now();
  ev.track = track;
  ev.self_id = dst;
  ev.cause_id = src;
  ev.edge = kind;
  ev.name = to_string(kind);
  push(std::move(ev));
}

void Recorder::counter(TrackId track, std::string name, double value) {
  TraceEvent ev;
  ev.type = EventType::kCounter;
  ev.ts = SimClock::now();
  ev.value = value;
  ev.track = track;
  ev.name = std::move(name);
  push(std::move(ev));
}

void Recorder::push(TraceEvent ev) {
  {
    std::lock_guard lk(mu_);
    DEISA_ASSERT(ev.track < tracks_.size(), "trace event on unknown track");
    if (ring_.size() < capacity_) {
      ring_.push_back(std::move(ev));
      return;
    }
    // Ring full: overwrite the oldest event.
    ++dropped_;
    ring_[next_] = std::move(ev);
    next_ = (next_ + 1) % ring_.size();
  }
  // Outside the recorder lock: the registry has its own synchronization.
  count("trace.dropped_events");
}

void Recorder::clear() {
  std::lock_guard lk(mu_);
  ring_.clear();
  next_ = 0;
  dropped_ = 0;
}

std::vector<TraceEvent> Recorder::events() const {
  std::vector<TraceEvent> out;
  out.reserve(ring_.size());
  for_each([&out](const TraceEvent& ev) { out.push_back(ev); });
  return out;
}

}  // namespace deisa::obs
