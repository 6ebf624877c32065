// Multi-scheduler sharding: the key space is partitioned across N
// co-located scheduler actors so update_graph ingestion, external
// pushes, and completion cascades scale past one strand (the
// centralized-scheduler wall of the Böhm/Beránek analysis).
//
// Partitioning is by key hash: shard_of(key) = hash_key(key) % N, a
// pure function of the key string — deterministic across runs,
// substrates, and processes, and exactly the hash the KeyTable interns
// with, so routing costs nothing extra on the hot path.
//
// This header holds every piece of the cross-shard protocol (DESIGN.md
// §5i, §5j), so that removing sharding removes it and its hook sites:
//   * the client half: split_graph/split_keys cut a message per shard and
//     piggyback {key, subscriber shard, consumer count} subscriptions on
//     the owner's slice;
//   * the scheduler half: ShardLink (subscriber lists, the death epochs,
//     the counters), plus the Scheduler's kShard* handlers and sends,
//     defined in shard.cpp. A subscriber shard interns a foreign
//     dependency as a mirror record (state kExternal, origin kRemote);
//     the owner forwards kShardKeyDone{key, worker, bytes} when the key
//     completes, and the mirror rides the external→memory cascade;
//   * ShardedScheduler, which owns the N shards.
// Liveness and key lifetime compose with sharding: heartbeats land on
// shard 0, which broadcasts kShardWorkerDead{worker, epoch}; refcount
// charges from other shards drain back via kShardKeyReleased (the
// balances live in KeyLifetime). At N == 1 no shard message is ever sent
// and the behaviour is the single scheduler's.
#pragma once

#include <memory>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "deisa/dts/key_table.hpp"
#include "deisa/dts/messages.hpp"
#include "deisa/exec/transport.hpp"

namespace deisa::dts {

class Scheduler;
struct SchedulerParams;
struct RecoveryCounters;

/// Deterministic key→shard assignment shared by clients, workers, and
/// the shards themselves. Hashes the key STRING (KeyIds are per-shard
/// dense indices and mean nothing across shards).
struct ShardMapper {
  int shards = 1;
  int shard_of_hash(std::uint64_t h) const {
    return shards <= 1
               ? 0
               : static_cast<int>(h % static_cast<std::uint64_t>(shards));
  }
  int shard_of(std::string_view key) const {
    return shards <= 1 ? 0 : shard_of_hash(KeyTable::hash_key(key));
  }
};

/// Per-shard pieces of one client message, each with its shard.
using Slices = std::vector<std::pair<int, SchedMsg>>;

/// Split an update_graph (msg.tasks, msg.wants) per shard in one pass:
/// each task goes to the shard owning its key, with its full dep list.
/// Every dependency owned by a DIFFERENT shard gets a {dep, consumer
/// shard} subscription on the owner's slice, deduped per dep with a
/// 64-bit consumer bitmask; sub_counts counts the consumer edges it
/// charges. Empty slices are dropped. At one shard the batch is moved
/// whole into the single slice, with no hashing.
Slices split_graph(const ShardMapper& mapper, SchedMsg msg);

/// Split a keyed batch (kCreateExternal, or a batched kUpdateData) by the
/// shard owning each keys[i]; preferred_workers[i] and sizes[i] travel
/// with their key. `positions`, when given, receives the item indices
/// each slice carries, in slice order. At one shard: a plain move.
Slices split_keys(const ShardMapper& mapper, SchedMsg msg,
                  std::vector<std::vector<std::size_t>>* positions = nullptr);

/// One scheduler's view of the shard mesh: its index, the peers' inboxes,
/// who subscribed to which local key, the liveness-broadcast epochs and
/// the protocol counters. It sends nothing: the scheduler consults it at
/// its hooks and makes every send itself. Unjoined, it is shard 0 of 1.
struct ShardLink {
  int index = 0;
  ShardMapper mapper;
  std::vector<exec::Channel<SchedMsg>*> peers{nullptr};  // [index] is ours
  /// Subscriber shards per local key (cold: only keys another shard
  /// depends on get an entry).
  std::unordered_map<KeyId, std::vector<int>> subs;
  std::uint64_t death_epoch = 0;       // last epoch this authority issued
  std::uint64_t last_death_epoch = 0;  // last epoch this peer accepted
  std::uint64_t remote_edges = 0;  // dependency edges wired to a mirror
  std::uint64_t notify_msgs = 0;   // kShardKeyDone sent to subscribers
  std::uint64_t release_acks = 0;  // kShardKeyReleased sent to owners
  std::uint64_t deaths_accepted = 0;  // liveness broadcasts acted on

  /// True when the key hashed `h` is owned by another shard (an unknown
  /// dependency on it is interned as a mirror). Never at one shard.
  bool remote(std::uint64_t h) const {
    return mapper.shard_of_hash(h) != index;
  }
  /// Owner side: register shard `shard` for completions of local key
  /// `id`. The list is persistent: a key recovered after worker loss
  /// re-announces its fresh completion through it.
  void subscribe(KeyId id, int shard);
  /// Subscriber shards of `id` ("notify shards S"); empty when none.
  const std::vector<int>& subscribers(KeyId id) const;
  bool subscribed(KeyId id) const {
    return !subs.empty() && subs.count(id) != 0;
  }
  /// Liveness, authority side (shard 0): the kShardWorkerDead broadcast
  /// for `worker`, one message per peer under a fresh epoch.
  Slices worker_dead(int worker);
  /// Liveness, peer side: accept a broadcast unless its epoch is at or
  /// below the last one accepted or the worker is already dead.
  bool accept_death(std::uint64_t epoch, bool already_dead) {
    if (epoch <= last_death_epoch || already_dead) return false;
    last_death_epoch = epoch;
    ++deaths_accepted;
    return true;
  }
};

/// N scheduler actors over one worker pool. Owns the shards, wires the
/// peer-inbox mesh, and aggregates the per-shard observability counters
/// the harness reports. All shards live on the same cluster node
/// (`node`); on the threads substrate each runs on its own strand, so
/// they execute concurrently.
class ShardedScheduler {
public:
  ShardedScheduler(exec::Executor& engine, exec::Transport& cluster, int node,
                   int num_shards, SchedulerParams params);

  int num_shards() const { return static_cast<int>(shards_.size()); }
  const ShardMapper& mapper() const { return mapper_; }
  Scheduler& shard(int i) { return *shards_.at(static_cast<std::size_t>(i)); }
  const Scheduler& shard(int i) const {
    return *shards_.at(static_cast<std::size_t>(i));
  }
  /// Shard inboxes in shard order (the routing table handed to clients
  /// and workers; one entry at one shard).
  std::vector<exec::Channel<SchedMsg>*> inboxes();

  void attach_workers(const std::vector<WorkerRef>& refs);
  /// Spawn every shard's message loop + failure detector, each shard
  /// pair on its own strand (the single-shard strand layout is exactly
  /// the pre-shard Runtime's).
  void start(exec::Executor& engine);
  /// Post kShutdown to every shard inbox (idempotent per call site).
  void send_shutdown();

  // ---- aggregated observability (sums over shards) ----
  std::uint64_t total_messages() const;
  std::uint64_t messages_received(SchedMsgKind kind) const;
  std::uint64_t keys_released() const;
  std::uint64_t remote_edges() const;
  std::uint64_t notify_msgs() const;
  std::uint64_t release_acks() const;
  /// Field-wise sum of every shard's recovery counters. Each shard runs
  /// lineage recovery over its own records, so the totals live spread
  /// across shards (shard 0 counts workers_lost exactly once per death).
  RecoveryCounters recovery() const;

private:
  template <typename F>
  auto sum(F get) const;

  ShardMapper mapper_;
  std::vector<std::unique_ptr<Scheduler>> shards_;
};

}  // namespace deisa::dts
