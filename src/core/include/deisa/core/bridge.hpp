// The DEISA bridge: one per MPI rank, "built in the Dask client class"
// (§2.1). Rank 0 additionally publishes the virtual-array descriptors.
// Bridges block until the contract is signed, then, each timestep, check
// the contract locally and push only the needed blocks straight to their
// preselected workers.
#pragma once

#include <deque>
#include <unordered_map>

#include "deisa/array/darray.hpp"
#include "deisa/core/contract.hpp"
#include "deisa/dts/client.hpp"

namespace deisa::core {

class Bridge {
public:
  /// `client` is this rank's connection to the task system (the bridge is
  /// built on the client class, as in the paper).
  Bridge(dts::Client& client, Mode mode, int rank, int nranks);

  int rank() const { return rank_; }
  Mode mode() const { return mode_; }
  dts::Client& client() { return *client_; }

  /// The coupling handshake in the bridge's mode: rank 0 publishes
  /// `arrays`, then every rank waits for the contract (DEISA2/3) or
  /// fetches its selection from its own queue (DEISA1).
  exec::Co<void> couple(std::vector<VirtualArray> arrays);
  /// Push one block in the bridge's mode: send_blocks with one block
  /// (DEISA2/3), or DEISA1's plain scatter and ready token. Returns
  /// whether the block passed the contract's filter.
  exec::Co<bool> push(const VirtualArray& va, const array::Index& coord,
                      dts::Data data);

  /// Rank 0: make the deisa virtual arrays available to the adaptor
  /// (step 1 of Figure 1, first half). One message.
  exec::Co<void> publish_arrays(std::vector<VirtualArray> arrays);

  /// Block until the adaptor signs the contract (step 1, second half).
  /// All bridges, including rank 0, wait here before sending any data.
  exec::Co<void> wait_contract();
  const Contract& contract() const;

  /// DEISA2/3 data path (step 3 of Figure 1): filter every block this
  /// rank produced in one timestep against the contract, group the
  /// survivors by preselected worker, and push each group as external-task
  /// completions in ONE bulk transfer plus ONE batched registration RPC —
  /// per-push control overhead is paid once per (rank, worker, timestep)
  /// instead of once per block. When the scheduler arms its failure
  /// detector (Client::recovery_armed), pushed blocks are retained in a
  /// bounded replay buffer, and run_replays() pushes again whatever the
  /// scheduler lists as lost. Without a detector nothing can ask for a
  /// block again, and none is retained.
  /// Returns the number of blocks sent (excluding filtered ones).
  exec::Co<std::size_t> send_blocks(
      const VirtualArray& va,
      std::vector<std::pair<array::Index, dts::Data>> blocks);

  /// Heartbeat loop at the mode's interval (DEISA3: returns immediately).
  exec::Co<void> run_heartbeats(exec::Event& stop);

  std::uint64_t blocks_sent() const { return blocks_sent_; }
  std::uint64_t blocks_filtered() const { return blocks_filtered_; }
  std::uint64_t blocks_repushed() const { return blocks_repushed_; }
  std::uint64_t blocks_discarded() const { return blocks_discarded_; }
  /// Payload bytes of the blocks sent.
  std::uint64_t bytes_sent() const { return bytes_sent_; }
  /// Coalesced pushes (one scatter_batch per target worker and step).
  std::uint64_t batched_pushes() const { return batched_pushes_; }
  /// Replay-list keys no longer in the replay buffer.
  std::uint64_t repush_misses() const { return repush_misses_; }
  /// Blocks held in the replay buffer now.
  std::size_t blocks_retained() const { return replay_.size(); }

private:
  // ---- DEISA1 legacy path (couple() and push() choose it) ----
  /// Fetch this rank's selection from its dedicated distributed queue.
  exec::Co<void> deisa1_fetch_selection();
  /// Plain scatter of a block (no external state), then notify the
  /// adaptor through the shared ready-queue. Returns whether sent.
  exec::Co<bool> deisa1_send_block(const VirtualArray& va,
                                  const array::Index& coord, dts::Data data);

  /// A virtual array's chunk grid and key builder, cached per array name
  /// so a bridge pushing B blocks/step derives each array's grid and key
  /// stem once, not B times. `keys.render()`'s reference is valid until
  /// its next call.
  struct ArrayCache {
    array::ChunkGrid grid;
    array::ChunkKeyBuilder keys;
  };
  ArrayCache& cache_for(const VirtualArray& va);
  int preselect_worker(const array::ChunkGrid& grid,
                       const array::Index& coord) const;
  /// Remember a pushed block for potential replay (bounded FIFO).
  void remember_block(const dts::Key& key, const dts::Data& data);
  /// Spawned by the constructor only when recovery is armed: receive each
  /// replay list the scheduler sends on the client's replay channel and
  /// push the listed blocks again from the buffer, at their re-routed
  /// targets. Runs for the bridge's lifetime; the engine reaps it at
  /// teardown.
  exec::Co<void> run_replays();

  dts::Client* client_;
  Mode mode_;
  int rank_;
  int nranks_;
  std::string lane_;  // trace lane, "rank-<rank>"
  Contract contract_;
  bool has_contract_ = false;
  std::uint64_t blocks_sent_ = 0;
  std::uint64_t blocks_filtered_ = 0;
  std::uint64_t blocks_repushed_ = 0;
  std::uint64_t blocks_discarded_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t batched_pushes_ = 0;
  std::uint64_t repush_misses_ = 0;

  // Replay buffer: the last `replay_capacity_` blocks this rank pushed,
  // kept only when the scheduler arms its failure detector (empty
  // otherwise). Blocks evicted before a loss are unrecoverable (the
  // scheduler's re-push deadline then errs them out instead of hanging
  // waiters).
  std::size_t replay_capacity_ = 1024;
  std::unordered_map<std::string, ArrayCache> arrays_;  // see cache_for
  std::unordered_map<dts::Key, dts::Data> replay_;
  std::deque<dts::Key> replay_order_;
};

}  // namespace deisa::core
