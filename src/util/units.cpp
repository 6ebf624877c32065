#include "deisa/util/units.hpp"

#include <cstdio>

namespace deisa::util {

namespace {
std::string fmt(double v, const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, unit);
  return buf;
}
}  // namespace

std::string format_bytes(std::uint64_t bytes) {
  const auto b = static_cast<double>(bytes);
  if (bytes >= kGiB) return fmt(b / static_cast<double>(kGiB), "GiB");
  if (bytes >= kMiB) return fmt(b / static_cast<double>(kMiB), "MiB");
  if (bytes >= kKiB) return fmt(b / static_cast<double>(kKiB), "KiB");
  return std::to_string(bytes) + " B";
}

double mib_per_second(std::uint64_t bytes, double seconds) {
  if (seconds <= 0.0) return 0.0;
  return static_cast<double>(bytes) / static_cast<double>(kMiB) / seconds;
}

}  // namespace deisa::util
