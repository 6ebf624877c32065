#include "deisa/obs/trace_io.hpp"

#include <cstdio>
#include <fstream>
#include <istream>
#include <map>
#include <sstream>
#include <utility>

#include "deisa/config/yaml.hpp"
#include "deisa/util/error.hpp"

namespace deisa::obs {

namespace {

using config::Node;

/// obj[key] when it is a number (JSON ints and floats alike), else fallback.
double number(const Node* obj, const std::string& key, double fallback) {
  const Node* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->is_number() ? v->as_double() : fallback;
}

/// obj[key] when it is a string, else "".
const std::string& text(const Node* obj, const std::string& key) {
  static const std::string kNone;
  const Node* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr && v->kind() == Node::Kind::kString ? v->as_string()
                                                          : kNone;
}

EdgeKind edge_kind_of(const std::string& name) {
  if (name == "message") return EdgeKind::kMessage;
  if (name == "assign") return EdgeKind::kAssign;
  if (name == "dep") return EdgeKind::kDep;
  if (name == "push") return EdgeKind::kPush;
  if (name == "local") return EdgeKind::kLocal;
  return EdgeKind::kNone;
}

std::string format_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  return buf;
}

}  // namespace

TraceData load_chrome_trace(std::istream& in) {
  std::ostringstream buf;
  buf << in.rdbuf();
  const Node doc = config::parse_yaml(std::move(buf).str());
  const Node* events = doc.find("traceEvents");
  DEISA_CHECK(events != nullptr && events->kind() == Node::Kind::kSeq,
              "trace file is not a JSON object with a traceEvents array");

  TraceData data;
  std::map<int, std::string> actor_of_pid;
  std::map<std::pair<int, int>, TrackId> track_of;

  const auto resolve_track = [&](int pid, int tid,
                                 const std::string& lane) -> TrackId {
    const auto key = std::make_pair(pid, tid);
    const auto it = track_of.find(key);
    if (it != track_of.end()) {
      if (!lane.empty()) data.tracks[it->second].lane = lane;
      return it->second;
    }
    const auto id = static_cast<TrackId>(data.tracks.size());
    const auto actor_it = actor_of_pid.find(pid);
    Track t;
    t.actor = actor_it != actor_of_pid.end() ? actor_it->second
                                             : "pid-" + std::to_string(pid);
    t.lane = !lane.empty() ? lane : "tid-" + std::to_string(tid);
    data.tracks.push_back(std::move(t));
    track_of.emplace(key, id);
    return id;
  };

  for (const Node& e : events->as_seq()) {
    if (!e.is_map()) continue;
    const std::string& ph = text(&e, "ph");
    const int pid = static_cast<int>(number(&e, "pid", 0));
    const int tid = static_cast<int>(number(&e, "tid", 0));
    const std::string& name = text(&e, "name");
    if (ph == "M") {
      const std::string& meta = text(e.find("args"), "name");
      if (name == "process_name") {
        actor_of_pid[pid] = meta;
      } else if (name == "thread_name") {
        resolve_track(pid, tid, meta);
      }
      continue;
    }
    TraceEvent ev;
    ev.track = resolve_track(pid, tid, "");
    ev.name = name;
    ev.ts = number(&e, "ts", 0.0) / 1e6;
    ev.self_id = static_cast<CauseId>(number(&e, "cid", 0.0));
    ev.cause_id = static_cast<CauseId>(number(&e, "cause", 0.0));
    ev.edge = edge_kind_of(text(&e, "ek"));
    if (ph == "X") {
      ev.type = EventType::kSpan;
      ev.dur = number(&e, "dur", 0.0) / 1e6;
    } else if (ph == "i" || ph == "I") {
      ev.type = text(&e, "cat") == "edge" ? EventType::kEdge
                                          : EventType::kInstant;
    } else if (ph == "C") {
      ev.type = EventType::kCounter;
      ev.value = number(e.find("args"), "value", 0.0);
    } else {
      continue;  // unknown phase (B/E/s/f/...): not produced by us
    }
    if (ev.type != EventType::kCounter) {
      if (const Node* args = e.find("args");
          args != nullptr && args->is_map()) {
        for (const auto& [k, v] : args->as_map()) {
          if (v.is_number())
            ev.args.push_back(TraceArg{k, format_number(v.as_double()), true});
          else if (v.kind() == Node::Kind::kString)
            ev.args.push_back(TraceArg{k, v.as_string(), false});
        }
      }
    }
    data.events.push_back(std::move(ev));
  }
  return data;
}

TraceData load_chrome_trace_file(const std::string& path) {
  std::ifstream in(path);
  DEISA_CHECK(in.good(), "cannot open trace file '" << path << "'");
  return load_chrome_trace(in);
}

}  // namespace deisa::obs
