// Contracts (§2.4.3): the analytics client's data selection, sent back to
// every bridge once at workflow start. Each bridge then filters locally,
// per timestep, which of its blocks are actually needed.
#pragma once

#include <map>
#include <string>

#include "deisa/core/virtual_array.hpp"

namespace deisa::core {

struct Contract {
  Contract() = default;  // non-aggregate rule: see mpix::Message

  /// Selection per virtual-array name (global coordinates, time incl.).
  std::map<std::string, array::Box> selections;
  /// Worker count agreed at contract time (bridges derive the same
  /// preselected worker per block as the adaptor did).
  int num_workers = 0;

  /// Does the selection for array `name` touch the block at `coord` of
  /// its chunk grid (`VirtualArray::grid()`, kept by the caller across
  /// blocks)?
  bool includes(const std::string& name, const array::ChunkGrid& grid,
                const array::Index& coord) const;

  /// Check every selection is in-bounds for an offered array; throws
  /// ContractError when the analytics asks for data the simulation does
  /// not produce.
  void validate_against(const std::vector<VirtualArray>& offered) const;
};

/// Workflow mode of the evaluation section: DEISA1 is the HiPC'21
/// prototype (per-step scatter + queues + default heartbeats), DEISA2/3
/// are this paper's architecture with 60 s / infinite bridge heartbeats.
enum class Mode { kDeisa1, kDeisa2, kDeisa3 };

const char* to_string(Mode m);
/// Bridge heartbeat interval per mode (0 means "infinity": no heartbeat).
double bridge_heartbeat_interval(Mode m);
/// Does the mode use external tasks + contracts (DEISA2/3)?
bool uses_external_tasks(Mode m);

// Shared variable/queue names of the coupling protocol.
inline constexpr const char* kArraysVariable = "deisa/arrays";
inline constexpr const char* kContractVariable = "deisa/contract";
inline constexpr const char* kDeisa1ReadyQueue = "deisa1/ready";
std::string deisa1_selection_queue(int rank);

}  // namespace deisa::core
