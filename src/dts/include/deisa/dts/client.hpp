// Client actor: the analytics-side handle on the distributed task system.
// Extends the dask.distributed Client surface with the paper's additions:
//   * scatter(..., keys=..., external=...)  (§2.2)
//   * external_futures(...) — create tasks in the external state ahead of
//     the data, so whole multi-timestep graphs can be submitted up front.
// DEISA bridges are built on this same class (the paper keeps the bridge
// "built in the Dask client class").
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "deisa/dts/scheduler.hpp"
#include "deisa/dts/shard.hpp"
#include "deisa/dts/worker.hpp"

namespace deisa::dts {

/// Client-side mirror of a scheduler task (a lightweight future).
class Future {
public:
  Future() = default;
  Future(Key key, class Client* client) : key_(std::move(key)), client_(client) {}
  const Key& key() const { return key_; }
  bool valid() const { return client_ != nullptr; }

private:
  Key key_;
  Client* client_ = nullptr;
};

class Client {
public:
  /// `scheduler_inboxes` is the routing table: the scheduler shards'
  /// inboxes in shard order, one entry at one shard. Submissions are
  /// split per shard (split_graph), keyed RPCs go to the shard owning
  /// the key, name-keyed ops (variables/queues) to the shard owning the
  /// name; at one shard every split is a plain move.
  /// `recovery_armed`: whether the scheduler arms its failure detector
  /// (heartbeat_timeout > 0), see recovery_armed().
  Client(exec::Executor& engine, exec::Transport& cluster, int id, int node,
         int scheduler_node,
         std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes,
         std::vector<WorkerRef> workers, bool recovery_armed);

  int id() const { return id_; }
  int node() const { return node_; }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  exec::Executor& engine() { return *engine_; }
  /// Whether the scheduler can lose a worker and recover from it. Only
  /// then can it ask a producer to push a key again (replays()), so only
  /// then does a producer need to keep what it pushed.
  bool recovery_armed() const { return recovery_armed_; }
  /// The replay channel, which exists only when recovery is armed: every
  /// push carries it, and each shard that re-arms keys this client pushed
  /// sends one RepushList here — the keys to push again, each with its
  /// re-routed target worker.
  exec::Channel<RepushList>& replays() {
    DEISA_CHECK(replays_ != nullptr, "no replay channel: recovery disarmed");
    return *replays_;
  }

  /// Submit a task graph; `wants` marks the keys this client will gather.
  exec::Co<void> submit(std::vector<TaskSpec> tasks,
                       std::vector<Key> wants = {});

  /// Create external tasks (paper §2.2): keyed, unschedulable, completed
  /// later by an external environment. One batched RPC.
  exec::Co<std::vector<Future>> external_futures(
      std::vector<Key> keys, std::vector<int> preferred_workers = {});

  /// Scatter one payload to a worker. With `external=true` this completes
  /// a task previously created by external_futures (scheduler transitions
  /// it external→memory and unblocks dependents). Like a dask scatter it
  /// sends two messages: bulk data to the worker plus metadata to the
  /// scheduler. Returns the scheduler's registration acknowledgement: the
  /// worker id, or under faults kAckErred (a plain scatter to a dead
  /// worker) or kAckDiscarded (the key already erred or completed). An
  /// external push at a worker already declared dead is acknowledged with
  /// that worker's id; its replay is asked for on replays().
  /// `cause` is the sender's causality id (a bridge push span); it rides
  /// on both the worker push and the scheduler registration so the trace
  /// links push -> update_data.
  exec::Co<int> scatter(Key key, Data data, int worker, bool external = false,
                       std::uint64_t cause = 0);

  /// Coalesced scatter: push several payloads to ONE worker as a single
  /// bulk transfer plus a single batched registration RPC, instead of a
  /// (transfer, kUpdateData, ack) round trip per block. Returns the
  /// per-key acks in item order, same codes as scatter().
  exec::Co<std::vector<int>> scatter_batch(
      std::vector<std::pair<Key, Data>> items, int worker,
      bool external = false, std::uint64_t cause = 0);

  /// Block until `key` is finished; returns the worker holding it.
  /// Throws util::Error if the task erred.
  exec::Co<int> wait_key(const Key& key);

  /// wait_key + fetch the payload from the owning worker.
  exec::Co<Data> gather(const Key& key);

  // Dask Variables: named single-slot broadcast values (used for the
  // contract exchange in DEISA2/3 — two variables instead of the
  // nbr_ranks queues of DEISA1).
  exec::Co<void> variable_set(const std::string& name, Data value);
  exec::Co<Data> variable_get(const std::string& name);

  // Dask Queues (the DEISA1 mechanism).
  exec::Co<void> queue_put(const std::string& name, Data value);
  exec::Co<Data> queue_get(const std::string& name);

  /// Periodic client heartbeat to the scheduler. DEISA1 keeps the default
  /// interval, DEISA2 raises it to 60 s, DEISA3 sets it to infinity
  /// (interval <= 0 here). Runs until `stop` is set.
  exec::Co<void> run_heartbeats(double interval, exec::Event& stop);

  /// Ask the scheduler to shut down (tests/teardown).
  exec::Co<void> send_shutdown();

  /// Causal provenance of the last payload this client received (gather,
  /// queue_get, variable_get). Graph submissions are stamped with it so
  /// data-driven control flow — "a result arrived, submit the next step"
  /// — shows up as an edge in the causal DAG instead of a fresh root.
  std::uint64_t last_cause() const { return last_cause_; }

private:
  exec::Co<void> send_to_scheduler(
      SchedMsg msg, exec::Delivery delivery = exec::Delivery::kReliable,
      int shard = 0);
  /// Shard owning `key` (0 at one shard, with no hashing).
  int shard_of(std::string_view key) const { return mapper_.shard_of(key); }

  exec::Executor* engine_;
  exec::Transport* cluster_;
  int id_;
  int node_;
  int scheduler_node_;
  std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes_;
  ShardMapper mapper_;
  std::vector<WorkerRef> workers_;
  bool recovery_armed_;
  std::shared_ptr<exec::Channel<RepushList>> replays_;  // null when disarmed
  std::uint64_t last_cause_ = 0;
};

}  // namespace deisa::dts
