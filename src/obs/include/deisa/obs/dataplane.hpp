// Data-plane byte accounting: every site that hands a bulk payload to a
// consumer charges `bytes_moved` — a payload pushed through the
// transport, materialized for a local dependency read (dask's per-read
// serialization), fetched from a peer, or served from a fetch cache.
// Wire bytes (TransferStats) are reported alongside; this counter is the
// consumer-side view.
#pragma once

#include <cstdint>

#include "deisa/obs/metrics.hpp"

namespace deisa::obs {

/// Payload bytes physically duplicated for a consumer.
inline constexpr const char* kBytesMoved = "dataplane.bytes_moved";

inline void count_moved(std::uint64_t bytes) { count(kBytesMoved, bytes); }

}  // namespace deisa::obs
