// Placement policies behind Scheduler::decide_worker. The scheduler owns
// every mechanism (record table, live-owner accumulation, the shared
// round-robin cursor, failure bookkeeping) and branches once on the
// policy: locality asks locality_owner() and falls back to the rotation;
// round-robin takes the rotation directly.
//
// Contract (what the corpus property suite enforces): a policy chooses
// *where* work runs, never *what* runs or *what it computes* — both
// policies produce byte-identical analytics outputs on both substrates;
// only makespans may differ.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace deisa::dts {

enum class SchedulingPolicy : std::uint8_t {
  /// The paper's behavior: the live worker already holding the most
  /// input bytes; no positive-byte owner -> round-robin.
  kLocality,
  /// Ignore locality entirely: next live worker in rotation.
  kRoundRobin,
};
inline constexpr std::size_t kNumSchedulingPolicies = 2;

const char* to_string(SchedulingPolicy p);
/// Parse "locality" | "round-robin" (the --policy=/policy: spellings).
/// DEISA_CHECKs on unknown names.
SchedulingPolicy policy_of(const std::string& name);

/// Locality pick over one ready task's live input owners, given as
/// parallel arrays of worker ids and the input bytes each holds. The
/// max-byte owner wins and ties go to the lowest worker id. Returns -1
/// when no owner holds a positive byte count.
int locality_owner(const std::vector<int>& owners,
                   const std::vector<std::uint64_t>& bytes);

}  // namespace deisa::dts
