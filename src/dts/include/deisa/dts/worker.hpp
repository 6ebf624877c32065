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
  /// Peer dependency fetches a worker keeps in flight at once. Fetches of
  /// a compute request overlap up to this bound (1 restores the old
  /// strictly sequential behavior); in-flight fetches of the same key are
  /// shared, never duplicated.
  int max_concurrent_fetches = 8;
};

class Worker {
public:
  Worker(exec::Executor& engine, exec::Transport& cluster, int id, int node,
         WorkerParams params);

  int id() const { return id_; }
  int node() const { return node_; }
  exec::Channel<WorkerMsg>& inbox() { return inbox_; }

  /// Wire up peers and the scheduler (done once by the Runtime).
  void attach(int scheduler_node, exec::Channel<SchedMsg>* scheduler_inbox,
              std::vector<WorkerRef> peers);

  /// Scheduler-shard routing table (Runtime, only at shards > 1): task
  /// completions are routed to the shard owning the key; keyless traffic
  /// (heartbeats) keeps going to shard 0 via scheduler_inbox_.
  void set_shards(std::vector<exec::Channel<SchedMsg>*> inboxes) {
    shard_inboxes_ = std::move(inboxes);
  }

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
  /// One in-flight peer fetch, shared by every task waiting on the key.
  struct InflightFetch {
    explicit InflightFetch(exec::Executor& engine) : done(engine) {}
    exec::Event done;
    Data data;
  };

  exec::Co<void> handle_compute(TaskSpec spec, std::vector<DepLocation> deps,
                                std::uint64_t cause);
  exec::Co<Data> fetch(const DepLocation& dep);
  /// Fetch one dependency into slot `i` of the shared input vector
  /// (spawned per dep by handle_compute; joined with when_all).
  exec::Co<void> fetch_one(std::shared_ptr<std::vector<Data>> inputs,
                          std::size_t i, DepLocation dep);
  exec::Co<void> handle_get_data(WorkerMsg msg);
  void store_put(Key key, Data data);
  /// Like store_put, but accounts the bytes as a cached peer copy
  /// (memory_bytes_ and peer_fetch_cached_bytes_, not bytes_stored_).
  void store_put_cached(Key key, Data data);
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
  exec::Channel<SchedMsg>* scheduler_inbox_ = nullptr;
  /// Empty at shards == 1 (every branch testing it is dead then).
  std::vector<exec::Channel<SchedMsg>*> shard_inboxes_;
  std::vector<WorkerRef> peers_;

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
