// Minimal leveled logger writing to stderr. Thread-safe: the level is an
// atomic read on the hot path (the common case is "disabled"), and a
// single mutex serializes time-source changes and line emission, so
// actors on the threaded executor never interleave half-written lines.
//
// The default level is kWarn; set the DEISA_LOG_LEVEL environment variable
// (trace|debug|info|warn|error|off) to override it without recompiling.
// When a time source is installed (the harness binds the simulated clock
// through obs::SimClock), every line is prefixed with the current
// simulated time so logs correlate with trace events.
#pragma once

#include <atomic>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>

namespace deisa::util {

enum class LogLevel : int { kTrace = 0, kDebug, kInfo, kWarn, kError, kOff };

/// Global logger configuration and sink.
class Log {
public:
  static LogLevel level() { return level_.load(std::memory_order_relaxed); }

  /// Install a time source whose value (seconds) prefixes every line as
  /// `[t=...s]`. Used to stamp simulated time while a scenario runs.
  static void set_time_source(std::function<double()> source);
  static void reset_time_source();
  static bool has_time_source();

  static bool enabled(LogLevel lvl) {
    return lvl >= level_.load(std::memory_order_relaxed);
  }
  static void write(LogLevel lvl, const std::string& component,
                    const std::string& message);

private:
  static std::atomic<LogLevel> level_;
  /// Guards time_source_ and serializes line emission.
  static std::mutex mu_;
  static std::function<double()> time_source_;
};

const char* to_string(LogLevel lvl);

/// Parse a level name (trace|debug|info|warn|error|off, case-insensitive).
/// Returns `fallback` for unknown names.
LogLevel log_level_from_name(const std::string& name, LogLevel fallback);

#define DEISA_LOG(lvl, component, msg)                                  \
  do {                                                                  \
    if (::deisa::util::Log::enabled(lvl)) {                             \
      std::ostringstream deisa_log_oss_;                                \
      deisa_log_oss_ << msg; /* NOLINT */                               \
      ::deisa::util::Log::write(lvl, component, deisa_log_oss_.str());  \
    }                                                                   \
  } while (false)

#define DEISA_TRACE(component, msg) \
  DEISA_LOG(::deisa::util::LogLevel::kTrace, component, msg)
#define DEISA_DEBUG(component, msg) \
  DEISA_LOG(::deisa::util::LogLevel::kDebug, component, msg)
#define DEISA_INFO(component, msg) \
  DEISA_LOG(::deisa::util::LogLevel::kInfo, component, msg)
#define DEISA_WARN(component, msg) \
  DEISA_LOG(::deisa::util::LogLevel::kWarn, component, msg)
#define DEISA_ERROR(component, msg) \
  DEISA_LOG(::deisa::util::LogLevel::kError, component, msg)

}  // namespace deisa::util
