// Byte-size and time units used throughout the library and benches.
#pragma once

#include <cstdint>
#include <string>

namespace deisa::util {

inline constexpr std::uint64_t kKiB = 1024ULL;
inline constexpr std::uint64_t kMiB = 1024ULL * kKiB;
inline constexpr std::uint64_t kGiB = 1024ULL * kMiB;

/// "1.5 GiB", "128.0 MiB", "42 B" — binary units as in the paper.
std::string format_bytes(std::uint64_t bytes);

/// Bandwidth in binary mebibytes per second, as the paper's Figure 3.
double mib_per_second(std::uint64_t bytes, double seconds);

}  // namespace deisa::util
