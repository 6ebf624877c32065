// Runtime: wires scheduler + workers + clients onto cluster nodes and
// manages actor lifecycles. One Runtime is one "Dask cluster".
#pragma once

#include <memory>

#include "deisa/dts/client.hpp"
#include "deisa/dts/scheduler.hpp"
#include "deisa/dts/shard.hpp"
#include "deisa/dts/worker.hpp"

namespace deisa::dts {

struct RuntimeParams {
  SchedulerParams scheduler;
  WorkerParams worker;
  /// Unread: the copy plane is the only data plane. Kept because the
  /// real-cost benchmark in perfbench/ assigns it (see DataPlane in
  /// task.hpp).
  DataPlane data_plane = DataPlane::kCopy;
  /// Scheduler shards (see shard.hpp). 1 is bit-identical to the
  /// pre-shard single scheduler; N > 1 partitions the key space across N
  /// scheduler actors and composes with fault plans (shard 0 is the
  /// liveness authority) and with scheduler.release_consumed
  /// (cross-shard consumer accounting; DESIGN.md §5j).
  int shards = 1;
};

class Runtime {
public:
  /// Places the scheduler on `scheduler_node` and one worker per entry of
  /// `worker_nodes`.
  Runtime(exec::Executor& engine, exec::Transport& cluster, int scheduler_node,
          std::vector<int> worker_nodes, RuntimeParams params = {});

  /// Spawn the scheduler and worker actors onto the engine.
  void start();
  /// Ask every actor to exit (idempotent); the engine then drains.
  exec::Co<void> shutdown();

  /// Shard 0 (the only shard at shards == 1). Single-shard callers and
  /// tests keep reading counters exactly as before.
  Scheduler& scheduler() { return sched_->shard(0); }
  /// The full shard set with cross-shard aggregates.
  ShardedScheduler& sharded() { return *sched_; }
  int num_shards() const { return sched_->num_shards(); }
  Worker& worker(int i) { return *workers_.at(static_cast<std::size_t>(i)); }
  int num_workers() const { return static_cast<int>(workers_.size()); }
  std::vector<WorkerRef> worker_refs() const;

  /// Create a client homed on `node`; owned by the Runtime. The client
  /// learns whether the scheduler arms its failure detector (every shard
  /// shares heartbeat_timeout), see Client::recovery_armed().
  Client& make_client(int node);
  Client& client(int i) { return *clients_.at(static_cast<std::size_t>(i)); }
  int num_clients() const { return static_cast<int>(clients_.size()); }

private:
  exec::Executor* engine_;
  exec::Transport* cluster_;
  std::unique_ptr<ShardedScheduler> sched_;
  std::vector<std::unique_ptr<Worker>> workers_;
  std::vector<std::unique_ptr<Client>> clients_;
  bool recovery_armed_;
  bool started_ = false;
};

}  // namespace deisa::dts
