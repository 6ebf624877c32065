// Placement behind Scheduler::decide_worker. The scheduler owns every
// mechanism (record table, live-owner accumulation, the shared
// round-robin cursor, failure bookkeeping); locality_owner() is the one
// decision, and when it finds no positive-byte owner the scheduler falls
// back to the rotation.
//
// Contract (what the corpus property suite enforces): placement chooses
// *where* work runs, never *what* runs or *what it computes* — analytics
// outputs are byte-identical on both substrates.
#pragma once

#include <cstdint>
#include <vector>

namespace deisa::dts {

/// Locality pick over one ready task's live input owners, given as
/// parallel arrays of worker ids and the input bytes each holds. The
/// max-byte owner wins and ties go to the lowest worker id. Returns -1
/// when no owner holds a positive byte count.
int locality_owner(const std::vector<int>& owners,
                   const std::vector<std::uint64_t>& bytes);

}  // namespace deisa::dts
