#include "deisa/util/log.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>

namespace deisa::util {

namespace {

/// DEISA_LOG_LEVEL is honored once, at static-initialization time (i.e.
/// before first use), so tools and benches can be made verbose without
/// recompiling: DEISA_LOG_LEVEL=debug build/tools/deisa_scenario run.yaml
LogLevel initial_level() {
  const char* env = std::getenv("DEISA_LOG_LEVEL");
  if (env == nullptr) return LogLevel::kWarn;
  return log_level_from_name(env, LogLevel::kWarn);
}

}  // namespace

std::atomic<LogLevel> Log::level_{initial_level()};
std::mutex Log::mu_;
std::function<double()> Log::time_source_;

const char* to_string(LogLevel lvl) {
  switch (lvl) {
    case LogLevel::kTrace: return "TRACE";
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
    case LogLevel::kOff: return "OFF";
  }
  return "?";
}

LogLevel log_level_from_name(const std::string& name, LogLevel fallback) {
  std::string low;
  low.reserve(name.size());
  for (char c : name)
    low.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  if (low == "trace") return LogLevel::kTrace;
  if (low == "debug") return LogLevel::kDebug;
  if (low == "info") return LogLevel::kInfo;
  if (low == "warn" || low == "warning") return LogLevel::kWarn;
  if (low == "error") return LogLevel::kError;
  if (low == "off" || low == "none") return LogLevel::kOff;
  return fallback;
}

void Log::set_time_source(std::function<double()> source) {
  std::lock_guard lk(mu_);
  time_source_ = std::move(source);
}

void Log::reset_time_source() {
  std::lock_guard lk(mu_);
  time_source_ = nullptr;
}

bool Log::has_time_source() {
  std::lock_guard lk(mu_);
  return static_cast<bool>(time_source_);
}

void Log::write(LogLevel lvl, const std::string& component,
                const std::string& message) {
  std::lock_guard lk(mu_);
  std::string line;
  if (time_source_) {
    char stamp[48];
    std::snprintf(stamp, sizeof(stamp), "[t=%.6fs]", time_source_());
    line += stamp;
    line += ' ';
  }
  line += std::string("[") + to_string(lvl) + "] " + component + ": " +
          message;
  std::cerr << line << '\n';
}

}  // namespace deisa::util
