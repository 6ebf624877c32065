// Tests for the observability layer: trace recorder (spans, ring
// eviction, disabled no-op), histograms and the metrics snapshot,
// SimClock/log integration and the Chrome trace-event exporter.
#include <gtest/gtest.h>

#include <cctype>
#include <cstddef>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "deisa/obs/clock.hpp"
#include "deisa/obs/export.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/obs/observation.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/obs/trace_io.hpp"
#include "deisa/util/error.hpp"
#include "deisa/util/log.hpp"

namespace obs = deisa::obs;
namespace util = deisa::util;

namespace {

// ---------------------------------------------------------------------------
// A tiny recursive-descent JSON well-formedness checker — enough to prove
// the Chrome trace export parses, without a JSON dependency.
class JsonChecker {
public:
  explicit JsonChecker(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size() && s_[pos_] != '"') {
      if (s_[pos_] == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
      }
      ++pos_;
    }
    if (pos_ >= s_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < s_.size() &&
           (std::isdigit(static_cast<unsigned char>(s_[pos_])) ||
            s_[pos_] == '.' || s_[pos_] == 'e' || s_[pos_] == 'E' ||
            s_[pos_] == '+' || s_[pos_] == '-'))
      ++pos_;
    return pos_ > start;
  }

  bool literal(const char* lit) {
    const std::string l = lit;
    if (s_.compare(pos_, l.size(), l) != 0) return false;
    pos_ += l.size();
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_])))
      ++pos_;
  }

  const std::string& s_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST(SimClock, SourceDrivesNowAndScopedRestores) {
  double t = 12.5;
  {
    obs::ScopedSimClock clock([&t] { return t; });
    EXPECT_DOUBLE_EQ(obs::SimClock::now(), 12.5);
    t = 99.0;
    EXPECT_DOUBLE_EQ(obs::SimClock::now(), 99.0);
  }
  // Back to wall time: monotone non-negative, not our sim value.
  const double w = obs::SimClock::now();
  EXPECT_GE(w, 0.0);
  EXPECT_LE(obs::SimClock::now() - w, 5.0);
}

TEST(SimClock, InstallsLogTimePrefix) {
  EXPECT_FALSE(util::Log::has_time_source());
  {
    obs::ScopedSimClock clock([] { return 1.25; });
    EXPECT_TRUE(util::Log::has_time_source());
  }
  EXPECT_FALSE(util::Log::has_time_source());
}

TEST(LogLevel, ParsesNames) {
  EXPECT_EQ(util::log_level_from_name("debug", util::LogLevel::kError),
            util::LogLevel::kDebug);
  EXPECT_EQ(util::log_level_from_name("WARN", util::LogLevel::kError),
            util::LogLevel::kWarn);
  EXPECT_EQ(util::log_level_from_name("off", util::LogLevel::kError),
            util::LogLevel::kOff);
  EXPECT_EQ(util::log_level_from_name("nonsense", util::LogLevel::kInfo),
            util::LogLevel::kInfo);
}

TEST(Recorder, SpanCapturesStartAndDuration) {
  obs::Recorder rec;
  double t = 1.0;
  obs::ScopedSimClock clock([&t] { return t; });
  {
    obs::Span s = rec.span(rec.track("worker-0", "execute"), "task-a");
    t = 3.5;
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].type, obs::EventType::kSpan);
  EXPECT_EQ(events[0].name, "task-a");
  EXPECT_DOUBLE_EQ(events[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 2.5);
}

TEST(Recorder, NestedSpansBothRecorded) {
  obs::Recorder rec;
  double t = 0.0;
  obs::ScopedSimClock clock([&t] { return t; });
  const auto track = rec.track("scheduler", "inbox");
  {
    obs::Span outer = rec.span(track, "outer");
    t = 1.0;
    {
      obs::Span inner = rec.span(track, "inner");
      t = 2.0;
    }
    t = 4.0;
  }
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 2u);
  // Inner finishes first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_DOUBLE_EQ(events[0].ts, 1.0);
  EXPECT_DOUBLE_EQ(events[0].dur, 1.0);
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_DOUBLE_EQ(events[1].ts, 0.0);
  EXPECT_DOUBLE_EQ(events[1].dur, 4.0);
  // Nesting is consistent: inner lies inside outer.
  EXPECT_GE(events[0].ts, events[1].ts);
  EXPECT_LE(events[0].ts + events[0].dur, events[1].ts + events[1].dur);
}

TEST(Recorder, SpanFinishIsIdempotentAndMoveSafe) {
  obs::Recorder rec;
  obs::Span s = rec.span(rec.track("a", "b"), "once");
  s.finish();
  s.finish();
  obs::Span moved = std::move(s);
  moved.finish();
  EXPECT_EQ(rec.size(), 1u);
}

TEST(Recorder, RingEvictsOldestAndCountsDropped) {
  obs::Recorder rec(4);
  const auto track = rec.track("x", "y");
  for (int i = 0; i < 10; ++i)
    rec.instant(track, "e" + std::to_string(i));
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.dropped(), 6u);
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 4u);
  // Oldest-first iteration over the last four events.
  EXPECT_EQ(events[0].name, "e6");
  EXPECT_EQ(events[3].name, "e9");
}

TEST(Recorder, TrackIdsAreStableAndDeduplicated) {
  obs::Recorder rec;
  const auto a = rec.track("scheduler", "inbox");
  const auto b = rec.track("scheduler", "lifecycle");
  EXPECT_NE(a, b);
  EXPECT_EQ(rec.track("scheduler", "inbox"), a);
  ASSERT_EQ(rec.tracks().size(), 2u);
  EXPECT_EQ(rec.tracks()[a].actor, "scheduler");
  EXPECT_EQ(rec.tracks()[b].lane, "lifecycle");
}

TEST(Recorder, DisabledHelpersAreNoOps) {
  ASSERT_EQ(obs::tracer(), nullptr);
  {
    obs::Span s = obs::trace_span("a", "b", "c");
    EXPECT_FALSE(s.active());
  }
  obs::trace_instant("a", "b", "c");
  // Still disabled, and nothing crashed.
  EXPECT_EQ(obs::tracer(), nullptr);
}

TEST(ObservationScope, InstallsAndRestores) {
  obs::Recorder rec;
  EXPECT_EQ(obs::tracer(), nullptr);
  {
    obs::ObservationScope scope(&rec, [] { return 2.0; });
    EXPECT_EQ(obs::tracer(), &rec);
    EXPECT_DOUBLE_EQ(obs::SimClock::now(), 2.0);
    obs::trace_instant("actor", "lane", "hello");
  }
  EXPECT_EQ(obs::tracer(), nullptr);
  ASSERT_EQ(rec.size(), 1u);
  EXPECT_DOUBLE_EQ(rec.events()[0].ts, 2.0);
}

TEST(Metrics, CountersGaugesHistograms) {
  obs::Histogram h;
  EXPECT_EQ(h.count(), 0u);
  for (double v : {1.0, 2.0, 3.0, 4.0}) h.observe(v);

  // A snapshot holds what its owner put in it (the harness, after a
  // run); an absent counter reads 0 rather than throwing.
  obs::MetricsSnapshot snap;
  snap.histograms["h"] = h.summary();
  snap.counters["c"] = 5;
  EXPECT_EQ(snap.counter("c"), 5u);
  EXPECT_EQ(snap.counter("absent"), 0u);
  const auto& s = snap.histograms.at("h");
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.p50, 2.5);
}

TEST(Metrics, HistogramSampleCapKeepsMomentsStreaming) {
  obs::Histogram h(/*max_samples=*/8);
  for (int i = 0; i < 100; ++i) h.observe(static_cast<double>(i));
  EXPECT_EQ(h.count(), 100u);
  const obs::HistogramSummary s = h.summary();
  EXPECT_DOUBLE_EQ(s.max, 99.0);
  EXPECT_DOUBLE_EQ(s.mean, 49.5);
  // Percentiles come from the retained prefix only — bounded memory.
  EXPECT_LE(s.p99, 7.0);
}

TEST(Metrics, HistogramMergeEqualsConcatenatedSamples) {
  // Per-worker histograms merged in worker order summarize like one
  // histogram that saw every sample in that order.
  const std::vector<std::vector<double>> parts = {
      {0.5, 3.0, 1.25}, {}, {7.0, 0.125, 2.0, 2.0, 9.5}};
  obs::Histogram merged;
  obs::Histogram concatenated;
  for (const auto& part : parts) {
    obs::Histogram h;
    for (double v : part) {
      h.observe(v);
      concatenated.observe(v);
    }
    merged.merge(h);
  }
  const obs::HistogramSummary m = merged.summary();
  const obs::HistogramSummary c = concatenated.summary();
  EXPECT_EQ(m.count, 8u);
  EXPECT_EQ(m.count, c.count);
  EXPECT_EQ(m.min, c.min);
  EXPECT_EQ(m.max, c.max);
  EXPECT_EQ(m.p50, c.p50);
  EXPECT_EQ(m.p95, c.p95);
  EXPECT_EQ(m.p99, c.p99);
  EXPECT_NEAR(m.mean, c.mean, 1e-12);
  EXPECT_NEAR(m.stddev, c.stddev, 1e-12);

  // The merge keeps the sample cap: percentiles cover the first
  // `max_samples` samples in merge order, the moments cover all of them.
  obs::Histogram capped(/*max_samples=*/4);
  obs::Histogram late;
  for (double v : {1.0, 2.0, 3.0}) capped.observe(v);
  for (double v : {4.0, 100.0, 200.0}) late.observe(v);
  capped.merge(late);
  const obs::HistogramSummary k = capped.summary();
  EXPECT_EQ(k.count, 6u);
  EXPECT_DOUBLE_EQ(k.max, 200.0);
  EXPECT_DOUBLE_EQ(k.p99, 3.97);  // over {1, 2, 3, 4} only
}

TEST(Export, ChromeTraceIsWellFormedJson) {
  obs::Recorder rec;
  double t = 0.5;
  obs::ScopedSimClock clock([&t] { return t; });
  {
    obs::Span s = rec.span(rec.track("scheduler", "inbox"), "update \"graph\"");
    s.add_arg(obs::arg("to", "memory"));
    s.add_arg(obs::arg("bytes", std::uint64_t{128}));
    t = 0.75;
  }
  rec.instant(rec.track("bridge", "rank-0"), "filtered:G_temp\n");
  rec.counter(rec.track("worker-0", "memory"), "memory_bytes", 1e6);

  std::ostringstream out;
  obs::write_chrome_trace(rec, out);
  const std::string json = out.str();
  EXPECT_TRUE(JsonChecker(json).valid()) << json;
  // Span timestamps are exported in microseconds.
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("process_name"), std::string::npos);
  EXPECT_NE(json.find("worker-0"), std::string::npos);
}

TEST(Export, CsvHasHeaderAndOneRowPerEvent) {
  obs::Recorder rec;
  rec.instant(rec.track("a", "l"), "x,with,commas");
  rec.instant(rec.track("a", "l"), "plain");
  std::ostringstream out;
  obs::write_trace_csv(rec, out);
  const std::string csv = out.str();
  std::size_t lines = 0;
  for (char c : csv)
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, 3u);  // header + 2 events
  EXPECT_EQ(
      csv.rfind("type,actor,lane,name,ts_s,dur_s,value,self_id,cause_id,edge,args",
                0),
      0u);
  EXPECT_NE(csv.find("\"x,with,commas\""), std::string::npos);
}

TEST(Export, CsvRowCountEqualsRetainedEvents) {
  // A ring smaller than the event stream: rows reflect what the ring
  // retained, not what was recorded.
  obs::Recorder rec(8);
  const auto track = rec.track("w", "l");
  for (int i = 0; i < 20; ++i) rec.instant(track, "e" + std::to_string(i));
  ASSERT_EQ(rec.size(), 8u);
  std::ostringstream out;
  obs::write_trace_csv(rec, out);
  std::size_t lines = 0;
  for (char c : out.str())
    if (c == '\n') ++lines;
  EXPECT_EQ(lines, rec.size() + 1);  // header + one row per retained event
}

TEST(Export, MetricsJsonIsWellFormed) {
  obs::Histogram h;
  h.observe(0.25);
  obs::MetricsSnapshot snap;
  snap.histograms["pfs.op_seconds"] = h.summary();
  snap.counters["scheduler.messages.total"] = 7;
  snap.gauges["worker-0.memory_bytes"] = 1.5e8;
  std::ostringstream out;
  obs::write_metrics_json(snap, out);
  EXPECT_TRUE(JsonChecker(out.str()).valid()) << out.str();
  EXPECT_NE(out.str().find("scheduler.messages.total"), std::string::npos);
}

TEST(Export, JsonEscapeHandlesControlChars) {
  EXPECT_EQ(obs::json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(obs::json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(obs::json_escape(std::string("a\x01") + "b"), "a\\u0001b");
  EXPECT_EQ(obs::json_escape("a\tb\rc\fd\be"), "a\\tb\\rc\\u000cd\\u0008e");
  // Multi-byte UTF-8 passes through untouched (bytes >= 0x80 are not
  // control characters even though they are "negative" chars).
  EXPECT_EQ(obs::json_escape("温度\xc3\xa9"), "温度\xc3\xa9");
}

TEST(Recorder, DropOldestCountsDroppedMetric) {
  // The harness reports dropped() as the trace.dropped_events counter.
  obs::Recorder rec(2);
  obs::ObservationScope scope(&rec, [] { return 0.0; });
  const auto track = rec.track("x", "y");
  for (int i = 0; i < 5; ++i) rec.instant(track, "e" + std::to_string(i));
  EXPECT_EQ(rec.dropped(), 3u);
  rec.clear();
  EXPECT_EQ(rec.dropped(), 0u);
}

TEST(Recorder, SpansCarryCausalIdsAndEdges) {
  obs::Recorder rec;
  double t = 0.0;
  obs::ScopedSimClock clock([&t] { return t; });
  obs::CauseId producer = 0;
  {
    obs::Span s = rec.span(rec.track("scheduler", "inbox"), "assign");
    producer = s.id();
    EXPECT_NE(producer, 0u);
    t = 1.0;
  }
  {
    obs::Span s = rec.span(rec.track("worker-0", "execute"), "task");
    s.set_cause(producer, obs::EdgeKind::kAssign);
    t = 2.0;
  }
  rec.edge(producer, producer + 7, obs::EdgeKind::kDep,
           rec.track("worker-0", "fetch"));
  const auto events = rec.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[1].cause_id, producer);
  EXPECT_EQ(events[1].edge, obs::EdgeKind::kAssign);
  EXPECT_EQ(events[2].type, obs::EventType::kEdge);
  EXPECT_EQ(events[2].self_id, producer + 7);
  EXPECT_EQ(events[2].cause_id, producer);
  EXPECT_EQ(events[2].edge, obs::EdgeKind::kDep);
}

TEST(Export, ChromeTraceRoundTripsThroughLoader) {
  obs::Recorder rec;
  double t = 0.25;
  obs::ScopedSimClock clock([&t] { return t; });
  obs::CauseId sched_id = 0;
  {
    obs::Span s = rec.span(rec.track("scheduler", "inbox"), "assign \"k\"");
    s.add_arg(obs::arg("svc", 0.001));
    s.add_arg(obs::arg("to", "worker-0"));
    sched_id = s.id();
    t = 0.5;
  }
  {
    obs::Span s = rec.span(rec.track("worker-0", "execute"), "task-a");
    s.set_cause(sched_id, obs::EdgeKind::kAssign);
    s.add_arg(obs::arg("bytes", std::uint64_t{4096}));
    t = 1.5;
  }
  rec.instant(rec.track("bridge", "rank-0"), "sent:G_temp\n");
  rec.counter(rec.track("worker-0", "memory"), "memory_bytes", 2.5e6);
  rec.edge(sched_id, sched_id + 1, obs::EdgeKind::kDep,
           rec.track("worker-0", "fetch"));

  std::ostringstream out;
  obs::write_chrome_trace(rec, out);
  std::istringstream in(out.str());
  const obs::TraceData loaded = obs::load_chrome_trace(in);

  ASSERT_EQ(loaded.events.size(), rec.size());
  ASSERT_EQ(loaded.tracks.size(), rec.tracks().size());
  const auto src = rec.events();
  for (std::size_t i = 0; i < src.size(); ++i) {
    // Exporter emits in ring order, which the loader preserves.
    const obs::TraceEvent& a = src[i];
    const obs::TraceEvent& b = loaded.events[i];
    EXPECT_EQ(b.type, a.type) << i;
    EXPECT_EQ(b.name, a.name) << i;
    EXPECT_NEAR(b.ts, a.ts, 1e-6) << i;
    EXPECT_NEAR(b.dur, a.dur, 1e-6) << i;
    EXPECT_EQ(b.self_id, a.self_id) << i;
    EXPECT_EQ(b.cause_id, a.cause_id) << i;
    EXPECT_EQ(b.edge, a.edge) << i;
    EXPECT_EQ(loaded.tracks[b.track].actor, rec.tracks()[a.track].actor) << i;
    EXPECT_EQ(loaded.tracks[b.track].lane, rec.tracks()[a.track].lane) << i;
    ASSERT_EQ(b.args.size(), a.args.size()) << i;
    for (std::size_t j = 0; j < a.args.size(); ++j)
      EXPECT_EQ(b.args[j].key, a.args[j].key) << i << "/" << j;
  }
  const obs::TraceEvent& counter = loaded.events[3];
  ASSERT_EQ(counter.type, obs::EventType::kCounter);
  EXPECT_NEAR(counter.value, 2.5e6, 1e-3);
}

TEST(Export, LoaderRejectsMalformedJson) {
  std::istringstream in("{\"traceEvents\": [");
  EXPECT_THROW(obs::load_chrome_trace(in), util::ConfigError);
}

}  // namespace
