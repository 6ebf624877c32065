// Structured trace recorder: spans, instants and counter samples keyed by
// actor (scheduler / worker-N / bridge / pfs / net) and lane within the
// actor, stamped with SimClock time. Events live in a fixed-capacity ring
// buffer (bounded memory: old events are evicted, never reallocated past
// the cap) and are exported post-run as Chrome trace-event JSON (one pid
// per actor, one tid per lane — loadable in ui.perfetto.dev or
// chrome://tracing) or flat CSV (export.hpp).
//
// Zero cost when disabled: instrumentation sites go through the
// trace_span()/trace_instant() helpers, or an explicit tracer() check,
// which reduce to a single null-pointer check when no recorder is
// installed.
//
// Thread-safe: one mutex serializes ring and track-table mutation, so
// actors on the threaded executor can record concurrently (events
// interleave in lock-acquisition order).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "deisa/obs/clock.hpp"

namespace deisa::obs {

/// Index into the recorder's track table.
using TrackId = std::uint32_t;
inline constexpr TrackId kNoTrack = 0xffffffffu;

enum class EventType : std::uint8_t { kSpan, kInstant, kCounter, kEdge };

const char* to_string(EventType t);

/// Causality id: every span gets one from the recorder's process-wide
/// counter; 0 means "no id / no cause". Ids travel inside message
/// envelopes (SchedMsg/WorkerMsg `cause` fields) so a receiver can link
/// its handling span back to the send that triggered it.
using CauseId = std::uint64_t;

/// Type of a causal edge between two spans.
enum class EdgeKind : std::uint8_t {
  kNone = 0,
  kMessage,  // send -> recv (control message delivery)
  kAssign,   // scheduler assign -> worker compute handling
  kDep,      // dependency became available -> dependent's fetch/execute
  kPush,     // bridge push -> scheduler update_data handling
  kLocal,    // intra-actor follow-on (fetch phase -> execute)
};

const char* to_string(EdgeKind k);

/// One key/value annotation. Numeric values are exported unquoted.
struct TraceArg {
  std::string key;
  std::string value;
  bool numeric = false;
};

TraceArg arg(std::string key, std::string value);
TraceArg arg(std::string key, const char* value);
TraceArg arg(std::string key, double value);
TraceArg arg(std::string key, std::uint64_t value);

struct TraceEvent {
  EventType type = EventType::kInstant;
  double ts = 0.0;   // seconds (SimClock domain)
  double dur = 0.0;  // seconds; spans only
  double value = 0.0;  // counters only
  TrackId track = kNoTrack;
  // Causality: spans carry their own id plus (optionally) the id of the
  // event that triggered them. kEdge events link self_id (destination
  // span) to cause_id (source span) for multi-cause nodes, e.g. one
  // execute span depending on several finished tasks.
  CauseId self_id = 0;
  CauseId cause_id = 0;
  EdgeKind edge = EdgeKind::kNone;
  std::string name;
  std::vector<TraceArg> args;
};

/// Actor/lane pair a track id resolves to.
struct Track {
  std::string actor;
  std::string lane;
};

class Recorder;

/// RAII span: records its start time on construction and emits one
/// complete span event on finish()/destruction. Default-constructed (or
/// recorder-less) spans are inert.
class Span {
public:
  Span() = default;
  Span(Recorder* recorder, TrackId track, std::string name);
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  Span(Span&& other) noexcept { *this = std::move(other); }
  Span& operator=(Span&& other) noexcept;
  ~Span() { finish(); }

  bool active() const { return recorder_ != nullptr; }
  void add_arg(TraceArg a);
  /// This span's causality id (0 when inert). Allocated eagerly so the
  /// id can be stamped into outgoing messages before the span finishes.
  CauseId id() const { return self_id_; }
  /// Link this span to the event that triggered it.
  void set_cause(CauseId cause, EdgeKind kind) {
    if (recorder_ == nullptr || cause == 0) return;
    cause_id_ = cause;
    edge_ = kind;
  }
  /// Emit the span now (idempotent; also called by the destructor).
  void finish();

private:
  Recorder* recorder_ = nullptr;
  TrackId track_ = kNoTrack;
  double t0_ = 0.0;
  CauseId self_id_ = 0;
  CauseId cause_id_ = 0;
  EdgeKind edge_ = EdgeKind::kNone;
  std::string name_;
  std::vector<TraceArg> args_;
};

class Recorder {
public:
  static constexpr std::size_t kDefaultCapacity = 1u << 18;

  /// A full ring evicts its oldest event for each new one.
  explicit Recorder(std::size_t capacity = kDefaultCapacity);

  /// The process-wide recorder instrumentation writes to; nullptr (the
  /// default) disables tracing everywhere.
  static Recorder* current() {
    return current_.load(std::memory_order_acquire);
  }
  static void install(Recorder* recorder) {
    current_.store(recorder, std::memory_order_release);
  }

  /// Resolve (actor, lane) to a stable track id, creating it on first use.
  TrackId track(std::string_view actor, std::string_view lane);
  /// Copy of the track table (consistent under concurrent track()).
  std::vector<Track> tracks() const {
    std::lock_guard lk(mu_);
    return tracks_;
  }

  void instant(TrackId track, std::string name,
               std::vector<TraceArg> args = {});
  /// Record a span with explicit timing (RAII spans call this). The
  /// trailing causal fields default to "no causality" so pre-causal call
  /// sites keep working unchanged.
  void complete(TrackId track, std::string name, double ts, double dur,
                std::vector<TraceArg> args = {}, CauseId self_id = 0,
                CauseId cause_id = 0, EdgeKind edge = EdgeKind::kNone);
  /// Sample a named counter series (rendered as a counter track).
  void counter(TrackId track, std::string name, double value);
  /// Record an extra causal edge src -> dst (for nodes with more than
  /// one cause, e.g. an execute span fed by several dependencies).
  void edge(CauseId src, CauseId dst, EdgeKind kind, TrackId track);
  /// Start an RAII span at SimClock::now().
  Span span(TrackId track, std::string name) {
    return Span(this, track, std::move(name));
  }

  /// Allocate a fresh causality id (never 0; process-wide monotonic).
  CauseId new_cause() {
    return cause_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const {
    std::lock_guard lk(mu_);
    return ring_.size();
  }
  /// Events evicted because the ring was full.
  std::uint64_t dropped() const {
    std::lock_guard lk(mu_);
    return dropped_;
  }
  void clear();

  /// Visit retained events oldest-first. Holds the recorder lock for the
  /// whole walk (recursive, so callbacks may still read tracks()/size());
  /// the callback must not record events.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    std::lock_guard lk(mu_);
    for (std::size_t i = 0; i < ring_.size(); ++i)
      fn(ring_[(next_ + i) % ring_.size()]);
  }
  /// Retained events oldest-first (copies; for tests and exporters that
  /// want random access).
  std::vector<TraceEvent> events() const;

private:
  void push(TraceEvent ev);

  /// Guards the ring, counters and track table. Recursive because
  /// for_each() callbacks (exporters, tests) read tracks() mid-walk.
  mutable std::recursive_mutex mu_;
  std::size_t capacity_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // oldest slot once the ring has wrapped
  std::uint64_t dropped_ = 0;
  std::atomic<CauseId> cause_seq_{0};
  std::map<std::pair<std::string, std::string>, TrackId> track_ids_;
  std::vector<Track> tracks_;

  static std::atomic<Recorder*> current_;
};

/// The installed recorder, or nullptr when tracing is disabled.
inline Recorder* tracer() { return Recorder::current(); }

/// Start a span on the installed recorder; inert when tracing is off.
inline Span trace_span(std::string_view actor, std::string_view lane,
                       std::string name) {
  Recorder* r = Recorder::current();
  if (r == nullptr) return {};
  return r->span(r->track(actor, lane), std::move(name));
}

inline void trace_instant(std::string_view actor, std::string_view lane,
                          std::string name, std::vector<TraceArg> args = {}) {
  if (Recorder* r = Recorder::current())
    r->instant(r->track(actor, lane), std::move(name), std::move(args));
}

/// Record a causal edge src -> dst on (actor, lane); inert when tracing
/// is off or either endpoint has no id.
inline void trace_edge(CauseId src, CauseId dst, EdgeKind kind,
                       std::string_view actor, std::string_view lane) {
  Recorder* r = Recorder::current();
  if (r == nullptr || src == 0 || dst == 0) return;
  r->edge(src, dst, kind, r->track(actor, lane));
}

}  // namespace deisa::obs
