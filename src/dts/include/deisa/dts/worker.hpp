// Worker actor: executes tasks, stores results, serves peer fetches, and
// accepts direct data pushes (the scatter path DEISA bridges use to move
// simulation blocks into the cluster without staging through the
// scheduler).
#pragma once

#include <unordered_map>

#include "deisa/dts/messages.hpp"
#include "deisa/dts/task.hpp"
#include "deisa/exec/transport.hpp"
#include "deisa/exec/primitives.hpp"

namespace deisa::dts {

struct WorkerParams {
  /// Seconds between heartbeats to the scheduler; <= 0 disables.
  double heartbeat_interval = 1.0;
};

class Worker {
public:
  Worker(exec::Executor& engine, exec::Transport& cluster, int id, int node,
         WorkerParams params);

  int id() const { return id_; }
  int node() const { return node_; }
  exec::Channel<WorkerMsg>& inbox() { return inbox_; }

  /// Wire up peers and the scheduler (done once by the Runtime).
  /// `scheduler_inboxes` is the shard routing table (one entry at one
  /// shard): task completions go to the shard owning the key, keyless
  /// traffic (heartbeats) to shard 0.
  void attach(int scheduler_node,
              std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes,
              std::vector<WorkerRef> peers);

  /// Main actor loop; exits on kShutdown.
  exec::Co<void> run();
  /// Heartbeat loop (spawned alongside run()); exits once shutdown.
  exec::Co<void> run_heartbeats();

  /// Fail-stop crash (fault injection): the worker stops heartbeating,
  /// drops every queued and future message, abandons in-flight computes,
  /// and loses its store. The actor stays allocated — a crashed worker is
  /// a black hole, not a dangling pointer.
  void crash();
  bool alive() const { return alive_; }

  // ---- observability ----
  std::uint64_t tasks_executed() const { return tasks_executed_; }
  /// Cumulative bytes ever stored (throughput measure). Excludes cached
  /// copies of peer-fetched dependencies — see peer_fetch_cached_bytes().
  std::uint64_t bytes_stored() const { return bytes_stored_; }
  /// Cumulative bytes cached locally from peer fetches. Kept separate
  /// from bytes_stored() so dependency traffic does not inflate the
  /// worker's apparent store throughput.
  std::uint64_t peer_fetch_cached_bytes() const {
    return peer_fetch_cached_bytes_;
  }
  /// Peer-fetch requests actually sent on the wire (cache hits and
  /// joined in-flight fetches never issue one).
  std::uint64_t peer_fetches() const { return peer_fetches_; }
  /// Fetches satisfied by joining a request already in flight.
  std::uint64_t peer_fetches_shared() const { return peer_fetches_shared_; }
  /// Fetches satisfied by an earlier fetch's cached copy.
  std::uint64_t peer_fetch_cache_hits() const {
    return peer_fetch_cache_hits_;
  }
  /// Bytes currently resident in the worker's store.
  std::uint64_t memory_bytes() const { return memory_bytes_; }
  /// High-water mark of memory_bytes() over the worker's lifetime. The
  /// refcount-GC stress test asserts this stays bounded as timesteps grow.
  std::uint64_t peak_memory_bytes() const { return peak_memory_bytes_; }
  std::size_t keys_in_memory() const { return store_.size(); }
  /// Keys dropped by scheduler-directed GC releases.
  std::uint64_t keys_released() const { return keys_released_; }
  /// Drop a key from local memory (scheduler-directed release).
  bool release_key(const Key& key);
  bool has_local(const Key& key) const { return store_.count(key) != 0; }
  double busy_time() const { return cpu_.total_busy_time(); }

  /// Local blocking lookup: waits until `key` is locally readable and
  /// returns a non-owning reference into the store (stable until the key
  /// is released — callers copy the Data struct, a cheap shared_ptr
  /// alias, before suspending).
  exec::Co<const Data*> local_ref(const Key& key);

private:
  /// One in-flight peer fetch, shared by every task waiting on the key
  /// from the same owner.
  struct InflightFetch {
    InflightFetch(exec::Executor& engine, int owner_)
        : done(engine), owner(owner_) {}
    exec::Event done;
    int owner;
    Data data;
    /// Set once the request is on the wire; peer_lost() wakes its reader.
    std::shared_ptr<exec::Channel<Data>> reply;
    /// The owner was declared dead before it answered.
    bool aborted = false;
  };

  /// Run task `key` (its spec lives in the scheduler's arena, which
  /// outlives this worker's frames).
  exec::Co<void> handle_compute(const TaskSpec* spec, Key key,
                                std::vector<DepLocation> deps,
                                std::uint64_t cause);
  /// Fetch `dep` into `out`, both in handle_compute's frame (spawned per
  /// dep; when_all joins them all before that frame moves on). Sets
  /// `aborted` instead when the owner is declared dead before answering.
  exec::Co<void> fetch(const DepLocation& dep, Data& out, bool& aborted);
  /// The scheduler declared `peer` dead: fail every fetch from it.
  void peer_lost(int peer);
  exec::Co<void> handle_get_data(WorkerMsg msg);
  /// Store `data` and wake local readers. A `cached` peer copy counts
  /// in peer_fetch_cached_bytes_ instead of bytes_stored_.
  void store_put(Key key, Data data, bool cached = false);
  exec::Co<void> notify_scheduler(
      SchedMsg msg, exec::Delivery delivery = exec::Delivery::kReliable);

  /// Update the memory gauge + counter track after a store change.
  void record_memory();

  exec::Executor* engine_;
  exec::Transport* cluster_;
  int id_;
  int node_;
  std::string actor_;  // trace actor name, "worker-<id>"
  WorkerParams params_;
  exec::Channel<WorkerMsg> inbox_;
  exec::FifoServer cpu_;  // one slot: computes run one at a time

  int scheduler_node_ = -1;
  std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes_;
  std::vector<WorkerRef> peers_;
  std::vector<char> dead_peers_;  // by worker id, set by kPeerLost

  std::unordered_map<Key, Data> store_;
  std::unordered_map<Key, std::unique_ptr<exec::Event>> arrivals_;
  /// Peer fetches currently on the wire, keyed by the requested key.
  /// Tasks needing a key already in flight join the existing fetch
  /// instead of issuing a duplicate request.
  std::unordered_map<Key, std::shared_ptr<InflightFetch>> inflight_;
  /// Bounds the number of concurrent outbound peer fetches (NIC model).
  exec::Semaphore fetch_slots_;
  std::uint64_t tasks_executed_ = 0;
  std::uint64_t bytes_stored_ = 0;
  std::uint64_t peer_fetch_cached_bytes_ = 0;
  std::uint64_t peer_fetches_ = 0;
  std::uint64_t peer_fetches_shared_ = 0;
  std::uint64_t peer_fetch_cache_hits_ = 0;
  std::uint64_t memory_bytes_ = 0;
  std::uint64_t peak_memory_bytes_ = 0;
  std::uint64_t keys_released_ = 0;
  bool stopping_ = false;
  bool alive_ = true;
};

}  // namespace deisa::dts
