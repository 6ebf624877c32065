// Trace import: parse the Chrome trace-event JSON written by
// write_chrome_trace() back into a track table + event list, so the
// trace-analysis tooling (deisa_trace, the critical-path engine) can work
// on files from past runs instead of a live Recorder. The text is parsed
// by config::parse_yaml, which reads any standard JSON document (not just
// our own output) into a config::Node tree, so traces that round-tripped
// through other tools (python -m json.tool, jq) still load.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "deisa/obs/trace.hpp"

namespace deisa::obs {

/// A trace decoupled from the Recorder that produced it.
struct TraceData {
  std::vector<Track> tracks;
  std::vector<TraceEvent> events;
};

/// Parse Chrome trace-event JSON (as produced by write_chrome_trace)
/// into tracks + events. Events keep file order; timestamps come back in
/// seconds. Throws util::ConfigError on malformed input.
TraceData load_chrome_trace(std::istream& in);

/// Convenience: open `path` and load_chrome_trace() it.
TraceData load_chrome_trace_file(const std::string& path);

}  // namespace deisa::obs
