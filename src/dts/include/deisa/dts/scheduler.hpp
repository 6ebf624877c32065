// The centralized scheduler — a C++ analogue of the dask.distributed
// scheduler, extended with the paper's external task state.
//
// Every incoming message consumes service time on a FIFO server (the
// Python scheduler is single-threaded); queueing on this server under
// per-timestep metadata load is what degrades DEISA1 in the paper's
// Figures 2a/3a/5, and what external tasks (DEISA2/3) avoid.
//
// Hot-path layout (see DESIGN.md "Scheduler data structures"): every key
// string is interned to a dense KeyId once at ingestion (KeyTable); task
// records live in a flat vector indexed by KeyId; dependencies are CSR
// slices of one shared pool; dependent edges are a pooled intrusive
// list; ready tasks chain through an intrusive O(1) FIFO queue; per-kind
// and per-state counters are flat arrays. Key strings are only rebuilt
// at the wire boundary (worker messages, replies, traces).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "deisa/dts/key_table.hpp"
#include "deisa/dts/messages.hpp"
#include "deisa/dts/task.hpp"
#include "deisa/exec/transport.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/util/rng.hpp"

namespace deisa::dts {

struct SchedulerParams {
  /// Fixed service cost per incoming message. Calibrated to the Python
  /// dask scheduler (single-threaded, a few hundred ops/s under load).
  double service_base = 7e-3;
  /// Extra cost per task in an update_graph batch.
  double service_per_task = 1.2e-3;
  /// Extra cost per key touched (deps, scatter registrations, ...).
  double service_per_key = 0.15e-3;
  /// Extra cost per distributed-Queue operation (dask Queues are a
  /// scheduler extension with locking — far dearer than plain messages;
  /// the DEISA1 prototype drives 2·ranks of them per timestep).
  double service_queue_extra = 18e-3;
  /// Lognormal sigma on service time (0 = deterministic; the GC/GIL
  /// noise of the Python scheduler).
  double service_jitter_sigma = 0.0;
  std::uint64_t seed = 0x5c4ed;

  // ---- failure detection / recovery ----
  /// Declare a worker lost after this many seconds without a heartbeat;
  /// <= 0 disables detection (the seed behavior: heartbeats are counted
  /// but never acted on). Only enable when worker heartbeats are on. The
  /// failure detector scans deadlines every quarter of this timeout.
  double heartbeat_timeout = 0.0;
  /// A lost external key re-armed for re-push errs out (poisoning its
  /// cone, so waiters fail instead of hanging) if the producer has not
  /// replayed it within this many seconds.
  double repush_timeout = 60.0;

  // ---- refcount GC ----
  /// Release a key's data (the owner worker's store copy) once every
  /// consumer that ever depended on it has finished. Consumers are
  /// charged at graph-ingestion time and released on task completion;
  /// keys nothing ever depends on (gather targets, leaves) are never
  /// released. Cross-shard consumers are charged through the
  /// subscription slices and drained back via kShardKeyReleased, so the
  /// owner shard releases iff local AND remote consumers finished. Off
  /// by default: long-running DEISA2/3 loops opt in to hold bounded
  /// resident bytes. Not compatible with lineage recomputation after
  /// worker loss (released inputs cannot be re-read), so leave it off
  /// when running fault plans.
  bool release_consumed = false;
};

/// Scheduler-side task state machine: which transitions are legal. Every
/// state change goes through Scheduler::transition(), which enforces this
/// table — stale stimuli (late task_finished, duplicate pushes) are
/// dropped by the handlers before ever reaching an illegal edge.
bool transition_valid(TaskState from, TaskState to);

/// Plain-counter mirror of the scheduler.recovery.* / scheduler.stale.*
/// metrics, readable without a metrics registry installed (tests).
struct RecoveryCounters {
  std::uint64_t workers_lost = 0;        // workers declared dead
  std::uint64_t tasks_rerun = 0;         // in-flight tasks re-assigned
  std::uint64_t keys_recomputed = 0;     // lost computed keys re-executed
  std::uint64_t external_rearmed = 0;    // lost external keys re-armed
  std::uint64_t external_rerouted = 0;   // preselections moved off a dead
                                         // worker before any push
  std::uint64_t mirrors_rearmed = 0;     // remote mirrors parked back in
                                         // external awaiting re-announce
  std::uint64_t keys_lost = 0;           // unrecoverable (plain scatter)
  std::uint64_t repush_expired = 0;      // re-armed keys never replayed
  std::uint64_t stale_task_finished = 0; // late/duplicate reports dropped
  std::uint64_t stale_update_data = 0;   // pushes to terminal keys dropped
  std::uint64_t stale_heartbeats = 0;    // heartbeats from dead workers
};

class Scheduler {
public:
  Scheduler(exec::Executor& engine, exec::Transport& cluster, int node,
            SchedulerParams params);

  int node() const { return node_; }
  exec::Channel<SchedMsg>& inbox() { return inbox_; }
  void attach_workers(std::vector<WorkerRef> workers);

  /// Make this scheduler shard `shard_index` of `num_shards` co-located
  /// actors (see shard.hpp). `peer_inboxes[i]` is shard i's inbox (this
  /// shard's own entry included, never sent to). At num_shards == 1 this
  /// is a no-op: the single-scheduler hot path has no shard branches
  /// taken and the trace actor id stays "scheduler".
  void set_shard_context(int shard_index, int num_shards,
                         std::vector<exec::Channel<SchedMsg>*> peer_inboxes);
  int shard_index() const { return shard_index_; }
  int num_shards() const { return num_shards_; }
  /// Trace/span actor id ("scheduler", or "scheduler-<i>" when sharded).
  const std::string& actor() const { return actor_; }

  /// Main actor loop (spawned by the Runtime). Exits on kShutdown.
  exec::Co<void> run();
  /// Heartbeat-deadline monitor (spawned alongside run()). Exits
  /// immediately when params.heartbeat_timeout <= 0, and on every shard
  /// except shard 0 when sharded (heartbeats land on shard 0 only; it is
  /// the liveness authority and broadcasts kShardWorkerDead to peers).
  /// Suspected workers are reported through the scheduler's own inbox
  /// (kWorkerLost), so recovery serializes with every other handler.
  exec::Co<void> run_failure_detector();

  // ---- observability ----
  std::uint64_t messages_received(SchedMsgKind kind) const {
    return arrivals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_messages() const { return total_messages_; }
  std::uint64_t retries_performed() const { return retries_performed_; }
  double total_service_time() const { return server_.total_busy_time(); }
  double total_queueing_time() const { return server_.total_waiting_time(); }
  TaskState state_of(const Key& key) const;
  bool knows(const Key& key) const { return keys_.find(key) != kNoKeyId; }
  std::size_t task_count() const { return records_.size(); }
  std::size_t count_in_state(TaskState s) const {
    return state_counts_[static_cast<std::size_t>(s)];
  }
  const RecoveryCounters& recovery() const { return recovery_; }

  // ---- refcount-GC introspection (property/stress tests) ----
  /// Consumers of `key` charged at ingestion and not yet finished.
  int pending_consumers(const Key& key) const;
  /// Whether the GC released `key`'s data (kMemory records only; the
  /// record itself is never erased).
  bool is_released(const Key& key) const;
  /// Keys whose data the GC has released so far.
  std::uint64_t keys_released() const { return keys_released_; }

  bool worker_is_dead(int worker) const {
    return worker >= 0 && static_cast<std::size_t>(worker) < dead_.size() &&
           dead_[static_cast<std::size_t>(worker)] != 0;
  }
  std::size_t live_workers() const { return workers_.size() - dead_count_; }

  // ---- leak / drain introspection (stress tests) ----
  /// Interned keys == task records ever created (records are never
  /// erased; a leak shows up as records stuck in a non-terminal state).
  std::size_t interned_keys() const { return keys_.size(); }
  /// Tasks currently chained in the ready queue (must be 0 between
  /// messages: every handler drains the queue before returning).
  std::size_t ready_queue_size() const { return ready_size_; }
  /// Blocked wait_key/gather reply channels across all records.
  std::size_t pending_waiters() const;
  /// Lost external keys still queued for a producer re-push.
  std::size_t repush_pending() const;

  // ---- cross-shard protocol introspection ----
  /// Dependency edges wired to a remote-owned mirror record (0 when
  /// single-sharded).
  std::uint64_t shard_remote_edges() const { return shard_remote_edges_; }
  /// kShardKeyDone notifications this shard sent to subscriber shards.
  std::uint64_t shard_notify_msgs() const { return shard_notify_msgs_; }
  /// kShardKeyReleased consumer-drain acks this shard sent to owners.
  std::uint64_t shard_release_acks() const { return shard_release_acks_; }

private:
  /// Where a record's data comes from — decides what a lost key implies:
  /// computed keys re-run via lineage, external keys re-arm for a
  /// producer re-push, plain scatters are unrecoverable. kRemote marks a
  /// mirror of a key owned by another shard: it completes only via
  /// kShardKeyDone (riding the external→memory edge) and is never
  /// assigned or re-pushed locally — a lost mirror parks back in
  /// external until the owner's recovery re-announces it.
  enum class Origin : std::uint8_t { kComputed, kScattered, kExternal,
                                     kRemote };

  static constexpr std::uint32_t kNoEdge = static_cast<std::uint32_t>(-1);

  /// Flat task record, indexed by KeyId in records_ — sized for cache
  /// residency (~72 bytes). The key string lives in keys_; the submitted
  /// TaskSpec stays in spec_arena_ (one wholesale vector move per
  /// update_graph) and the record points at it; cold per-task state
  /// (blocked waiters, error text) lives in side tables keyed by id.
  struct TaskRecord {
    TaskState state = TaskState::kWaiting;
    Origin origin = Origin::kComputed;
    int nwaiting = 0;  // unfinished dependencies
    int worker = -1;
    std::uint32_t dep_off = 0;    // CSR slice into deps_pool_
    std::uint32_t dep_count = 0;
    std::uint32_t dependents_head = kNoEdge;  // pooled intrusive list
    KeyId next_ready = kNoKeyId;  // intrusive ready-queue link
    int preferred_worker = -1;    // scheduler's (re-routable) copy
    int retries = 0;
    int attempts = 0;  // executions so far (retry support)
    int pusher_client = -1;  // client id of the bridge that completed an
                             // external key (for re-push routing)
    /// Refcount plane: consumers charged at ingestion (one per dependent
    /// edge, decremented as each dependent reaches a terminal state) and
    /// the historical total (a key nothing ever consumed is never
    /// released — it is a gather target or a leaf).
    int pending_consumers = 0;
    int ever_consumers = 0;
    /// GC released this key's data (state stays kMemory; the release is
    /// a storage fact, not a lifecycle transition).
    bool released = false;
    /// This task's input refcounts were already returned (guards against
    /// double decrements on poison-then-finish paths).
    bool inputs_released = false;
    std::uint64_t bytes = 0;
    double state_since = 0.0;  // sim time of the last transition (tracing)
    std::uint64_t rearm_epoch = 0;  // bumps on memory -> external re-arm
    /// Causality id of the handling span that moved this key to memory;
    /// forwarded as DepLocation::cause so dependents can record
    /// dep-ready -> execute edges (0 when untraced).
    std::uint64_t done_cause = 0;
    /// Execution payload (fn/io/cost/out_bytes) in spec_arena_; null for
    /// records the scheduler never assigns (external/scattered keys).
    TaskSpec* spec = nullptr;
  };

  /// Clients blocked in wait_key/gather on one record (cold path).
  struct WaiterList {
    std::vector<std::shared_ptr<exec::Channel<Ack>>> chans;
    std::vector<int> nodes;
  };

  struct Edge {  // pooled singly-linked dependent edge
    KeyId node = kNoKeyId;
    std::uint32_t next = kNoEdge;
  };

  double service_time(const SchedMsg& msg);
  /// Create the record for a freshly interned id (records_ grows in
  /// lockstep with the key table).
  TaskRecord& create_record(KeyId id);
  /// Record a task entering the state machine (tracing/metrics/state
  /// counts) — called after the creator set state/origin.
  void record_created(KeyId id, TaskRecord& rec);
  /// Move record `id` to state `to`, emitting the lifecycle event (a
  /// span for the time spent in the previous state), transition counters
  /// and the flat per-state counts.
  void transition(KeyId id, TaskRecord& rec, TaskState to);

  // ---- edge pool ----
  void add_dependent(TaskRecord& rec, KeyId dependent);
  /// Move rec's dependent list into `out` in original insertion order
  /// (the pooled list is LIFO; consumers need push order for
  /// deterministic cascade/assignment sequencing) and clear it.
  void take_dependents(TaskRecord& rec, std::vector<KeyId>& out);

  // ---- intrusive ready queue ----
  /// Transition `id` to kReady and chain it on the FIFO ready queue.
  void push_ready(KeyId id);
  KeyId pop_ready();
  /// Assign every queued ready task in FIFO order. Handlers call this
  /// before returning, so the queue is always empty between messages.
  exec::Co<void> drain_ready();

  exec::Co<void> handle(SchedMsg msg);
  exec::Co<void> handle_update_graph(SchedMsg& msg);
  /// Intern a mirror record for a dependency owned by shard
  /// `h % num_shards_`: state kExternal, origin kRemote, no spec. The
  /// subscriber slice of the same client batch registered a completion
  /// subscription with the owner, so kShardKeyDone will land here.
  KeyId create_remote_mirror(std::uint64_t h, const Key& dep);
  /// Owner side: register the subscriptions piggybacked on an
  /// update_graph slice (sub_keys/sub_shards); keys already terminal
  /// notify the subscriber immediately.
  exec::Co<void> process_shard_subscriptions(SchedMsg& msg);
  /// Send one kShardKeyDone{key, worker, bytes} (or erred + error) for
  /// record `id` to shard `shard`.
  exec::Co<void> notify_one_shard(int shard, KeyId id, bool erred);
  /// Notify and drop every subscriber of `id` (no-op unless sharded and
  /// subscribed). Called when a record reaches kMemory or kErred.
  exec::Co<void> notify_shard_subscribers(KeyId id);
  /// Subscriber side: complete (or poison) the local mirror record; a
  /// re-announcement for a mirror already in memory refreshes the cached
  /// location (post-recovery).
  exec::Co<void> handle_shard_key_done(SchedMsg& msg);
  /// Peer side of the liveness broadcast: mark the worker dead (epoch-
  /// guarded, idempotent) and run recovery over this shard's records.
  exec::Co<void> handle_shard_worker_dead(SchedMsg& msg);
  /// Owner side of the cross-shard refcount: a subscriber shard returned
  /// `bytes` drained consumer charges for `key`.
  exec::Co<void> handle_shard_key_released(SchedMsg& msg);
  exec::Co<void> handle_task_finished(SchedMsg& msg);
  exec::Co<void> handle_update_data(SchedMsg& msg);
  /// Register one pushed/scattered key on `worker` and return the ack
  /// code. Shared by the single-key path and the coalesced batch path
  /// (one kUpdateData carrying keys[]/sizes[] for a whole bridge push).
  exec::Co<int> update_data_one(Key key, int worker, std::uint64_t bytes,
                               bool external, int sender_client);
  void handle_create_external(SchedMsg& msg);
  exec::Co<void> handle_wait_key(SchedMsg& msg);
  exec::Co<void> handle_cancel(SchedMsg& msg);
  exec::Co<void> handle_variable(SchedMsg& msg);
  exec::Co<void> handle_queue(SchedMsg& msg);
  exec::Co<void> handle_worker_lost(SchedMsg& msg);
  exec::Co<void> handle_repush_keys(SchedMsg& msg);
  exec::Co<void> handle_repush_expired(SchedMsg& msg);

  /// Recovery core, run as (part of) a serialized handler: classify every
  /// key held by the dead worker, re-run lost computed keys via lineage,
  /// re-arm lost external keys for a producer re-push, err unrecoverable
  /// scatters (poisoning their cones), and re-assign in-flight tasks.
  exec::Co<void> recover_worker(int worker);
  /// Err task `id` and cascade the poison through its dependent cone,
  /// releasing any blocked waiters with kAckErred.
  exec::Co<void> poison_task(KeyId id, const std::string& error);
  /// Reply `value` to every client blocked on record `id` and drop them.
  exec::Co<void> release_waiters(KeyId id, int value);
  /// Watchdog for a re-armed external key: if the producer has not
  /// replayed it within params.repush_timeout, err it out (epoch guards
  /// against acting on a key that was replayed and re-armed again).
  exec::Co<void> repush_deadline(Key key, std::uint64_t epoch);
  /// Poke a producer's registered wake-up channel (no-op if it never
  /// pushed with one): re-push work is waiting for it.
  void notify_producer(int client);
  /// Round-robin over live workers only.
  int pick_live_worker();
  bool is_dead(int worker) const {
    return dead_[static_cast<std::size_t>(worker)] != 0;
  }

  /// Mark record `id` finished in memory and cascade: notify waiters,
  /// decrement dependents, assign newly-ready tasks. The
  /// external→memory transition of §2.2 lands here.
  exec::Co<void> finish_task(KeyId id, TaskRecord& rec, int worker,
                            std::uint64_t bytes, bool erred,
                            const std::string& error);
  /// Return the input refcounts a terminal task holds (one per dep) and
  /// release any input whose last consumer this was. Idempotent per
  /// record (inputs_released flag).
  exec::Co<void> release_task_inputs(TaskRecord& rec);
  /// Release `id`'s data if the refcount GC proves nothing will read it
  /// again: gc enabled, in memory, every historical consumer finished,
  /// no blocked waiters, and a live owner to send the release to.
  exec::Co<void> maybe_release(KeyId id, TaskRecord& rec);
  exec::Co<void> assign(KeyId id);
  /// Preselection if live, else locality: locality_owner() over the live
  /// input owners, falling back to pick_live_worker() when no owner holds
  /// a positive byte count.
  int decide_worker(const TaskRecord& rec);
  exec::Co<void> reply_ack(std::shared_ptr<exec::Channel<Ack>> ch,
                          int dst_node, int code, std::uint64_t cause);
  exec::Co<void> reply_data(std::shared_ptr<exec::Channel<Data>> ch,
                           int dst_node, Data value);

  exec::Executor* engine_;
  exec::Transport* cluster_;
  int node_;
  SchedulerParams params_;
  exec::Channel<SchedMsg> inbox_;
  exec::FifoServer server_;
  util::Rng rng_;

  std::vector<WorkerRef> workers_;

  // ---- task table (all KeyId-indexed, parallel to keys_) ----
  KeyTable keys_;
  std::vector<TaskRecord> records_;
  std::vector<KeyId> deps_pool_;  // CSR backing store for spec deps
  std::vector<Edge> edge_pool_;   // pooled dependent-edge links
  // Submitted specs, one batch per update_graph, moved in wholesale;
  // element addresses are stable (inner vectors are never resized), so
  // records point straight at their spec. Dep strings are released once
  // resolved into the CSR pool.
  std::vector<std::vector<TaskSpec>> spec_arena_;
  std::unordered_map<KeyId, WaiterList> waiters_;  // cold: blocked clients
  std::unordered_map<KeyId, std::string> errors_;  // cold: failure text
  KeyId ready_head_ = kNoKeyId;   // intrusive FIFO of kReady tasks
  KeyId ready_tail_ = kNoKeyId;
  std::size_t ready_size_ = 0;
  std::array<std::size_t, kNumTaskStates> state_counts_{};
  // Handler-local scratch, reused across messages to stay allocation-free
  // on the hot path (handlers are fully serialized by run()).
  std::vector<KeyId> scratch_dependents_;
  std::vector<KeyId> scratch_batch_;
  std::vector<int> scratch_owner_;
  std::vector<std::uint64_t> scratch_owner_bytes_;

  std::size_t rr_next_worker_ = 0;

  struct VariableSlot {
    bool set = false;
    Data value;
    std::vector<std::pair<std::shared_ptr<exec::Channel<Data>>, int>> waiters;
  };
  std::unordered_map<std::string, VariableSlot> variables_;

  struct QueueSlot {
    std::deque<Data> items;
    std::deque<std::pair<std::shared_ptr<exec::Channel<Data>>, int>> waiters;
  };
  std::unordered_map<std::string, QueueSlot> queues_;

  std::array<std::uint64_t, kSchedMsgKindCount> arrivals_{};
  std::uint64_t total_messages_ = 0;
  std::uint64_t retries_performed_ = 0;
  std::uint64_t keys_released_ = 0;
  /// Causality id of the handling span of the message currently being
  /// processed (0 untraced); stamped into outgoing assigns and recorded
  /// as done_cause when a key completes.
  std::uint64_t current_cause_ = 0;
  bool stopping_ = false;

  // ---- failure detection / recovery state (worker-id indexed) ----
  std::vector<std::uint8_t> dead_;       // declared lost
  std::vector<std::uint8_t> suspected_;  // reported, recovery pending
  std::size_t dead_count_ = 0;
  std::vector<double> last_heartbeat_;   // sim time; <0 = never seen
  // Which keys' data lives on each worker (memory-state records only).
  // recover_worker reads this instead of scanning every record.
  std::vector<std::unordered_set<KeyId>> has_what_;
  // Lost external keys awaiting a replay, grouped by producing client
  // (each bridge holds its own replay buffer). The producer learns about
  // them via kAckRepushPending — piggybacked on its next push ack, or
  // poked through its registered notify channel when no further push is
  // coming — and drains the list with kRepushKeys.
  std::unordered_map<int, std::vector<KeyId>> repush_;
  // Latest wake-up channel per producing client (see SchedMsg::notify).
  std::unordered_map<int, std::shared_ptr<exec::Channel<int>>> producer_notify_;
  RecoveryCounters recovery_;

  // ---- cross-shard protocol state (see shard.hpp) ----
  int shard_index_ = 0;
  int num_shards_ = 1;
  std::string actor_ = "scheduler";  // per-shard trace/span actor id
  std::vector<exec::Channel<SchedMsg>*> shard_peers_;
  /// Subscriber shards awaiting completion of a local key (cold: only
  /// keys another shard depends on ever get an entry). Persistent: a key
  /// recovered after worker loss re-announces through the same list.
  std::unordered_map<KeyId, std::vector<int>> shard_subs_;
  /// Owner side of the cross-shard refcount: outstanding remote consumer
  /// charges per local key (charged by subscription slices, drained by
  /// kShardKeyReleased acks; transiently negative when an ack outruns
  /// its charging slice). A non-zero balance blocks the GC release.
  std::unordered_map<KeyId, int> shard_remote_counts_;
  /// Subscriber side: consumer charges already acked back to the owner
  /// per mirror record (ever_consumers - acked = still to drain).
  std::unordered_map<KeyId, int> shard_drain_acked_;
  std::uint64_t shard_remote_edges_ = 0;
  std::uint64_t shard_notify_msgs_ = 0;
  std::uint64_t shard_release_acks_ = 0;
  /// Liveness-broadcast epoch: shard 0 stamps each kShardWorkerDead with
  /// a fresh epoch; peers drop anything at or below the last one seen.
  std::uint64_t shard_death_epoch_ = 0;
  std::uint64_t shard_last_death_epoch_ = 0;
};

}  // namespace deisa::dts
