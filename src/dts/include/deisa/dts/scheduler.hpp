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
#include <vector>

#include "deisa/dts/key_lifetime.hpp"
#include "deisa/dts/key_table.hpp"
#include "deisa/dts/messages.hpp"
#include "deisa/dts/shard.hpp"
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
  /// consumer that ever depended on it has finished (KeyLifetime, see
  /// key_lifetime.hpp). Off by default: long-running DEISA2/3 loops opt
  /// in to hold bounded resident bytes. Rejected together with
  /// heartbeat_timeout > 0: lineage recomputation after worker loss
  /// would re-read released inputs (DESIGN.md §5g).
  bool release_consumed = false;
};

/// Scheduler-side task state machine: which transitions are legal. Every
/// state change goes through Scheduler::transition(), which enforces this
/// table — stale stimuli (late task_finished, duplicate pushes) are
/// dropped by the handlers before ever reaching an illegal edge.
bool transition_valid(TaskState from, TaskState to);

/// The scheduler's recovery and stale-message counts (reported as the
/// scheduler.recovery.* / scheduler.stale.* metrics).
struct RecoveryCounters {
  std::uint64_t suspected = 0;           // missed-deadline reports sent
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

  RecoveryCounters& operator+=(const RecoveryCounters& o) {
    suspected += o.suspected;
    workers_lost += o.workers_lost;
    tasks_rerun += o.tasks_rerun;
    keys_recomputed += o.keys_recomputed;
    external_rearmed += o.external_rearmed;
    external_rerouted += o.external_rerouted;
    mirrors_rearmed += o.mirrors_rearmed;
    keys_lost += o.keys_lost;
    repush_expired += o.repush_expired;
    stale_task_finished += o.stale_task_finished;
    stale_update_data += o.stale_update_data;
    stale_heartbeats += o.stale_heartbeats;
    return *this;
  }
};

class Scheduler {
public:
  Scheduler(exec::Executor& engine, exec::Transport& cluster, int node,
            SchedulerParams params);

  int node() const { return node_; }
  exec::Channel<SchedMsg>& inbox() { return inbox_; }
  void attach_workers(std::vector<WorkerRef> workers);

  /// Make this scheduler shard `index` of `peers.size()` co-located
  /// actors (see shard.hpp). `peers[i]` is shard i's inbox (this shard's
  /// own entry included, never sent to). With one peer the trace actor
  /// id stays "scheduler"; otherwise it becomes "scheduler-<index>".
  void set_shard_context(int index,
                         std::vector<exec::Channel<SchedMsg>*> peers);

  /// Main actor loop (spawned by the Runtime). Exits on kShutdown.
  exec::Co<void> run();
  /// Heartbeat-deadline monitor (spawned alongside run(); recovery.cpp).
  /// Exits immediately when params.heartbeat_timeout <= 0, and on every
  /// shard except shard 0 when sharded (heartbeats land on shard 0 only;
  /// it is the liveness authority and broadcasts kShardWorkerDead to
  /// peers). Suspected workers are reported through the scheduler's own
  /// inbox (kWorkerLost), so recovery serializes with every other handler.
  exec::Co<void> run_failure_detector();

  // ---- observability ----
  std::uint64_t messages_received(SchedMsgKind kind) const {
    return arrivals_[static_cast<std::size_t>(kind)];
  }
  std::uint64_t total_messages() const { return total_messages_; }
  TaskState state_of(const Key& key) const;
  bool knows(const Key& key) const { return keys_.find(key) != kNoKeyId; }
  std::size_t task_count() const { return records_.size(); }
  /// Records now in state `s`: created in it, plus entered, minus left.
  std::size_t count_in_state(TaskState s) const;
  /// Records that entered the state machine in state `s`.
  std::uint64_t created_in(TaskState s) const {
    return created_[static_cast<std::size_t>(s)];
  }
  /// State changes `from` -> `to` so far.
  std::uint64_t transitions(TaskState from, TaskState to) const {
    return transitions_[static_cast<std::size_t>(from)]
                       [static_cast<std::size_t>(to)];
  }
  const RecoveryCounters& recovery() const { return recovery_; }

  // ---- refcount-GC introspection (property/stress tests) ----
  /// Consumers of `key` charged at ingestion and not yet finished.
  int pending_consumers(const Key& key) const;
  /// Whether the GC released `key`'s data (kMemory records only; the
  /// record itself is never erased).
  bool is_released(const Key& key) const;
  /// Keys whose data the GC has released so far, and their bytes.
  std::uint64_t keys_released() const { return lifetime_.keys_released(); }
  std::uint64_t bytes_released() const { return bytes_released_; }

  bool worker_is_dead(int worker) const {
    return worker >= 0 && static_cast<std::size_t>(worker) < dead_.size() &&
           dead_[static_cast<std::size_t>(worker)] != 0;
  }
  std::size_t live_workers() const { return workers_.size() - dead_count_; }

  // ---- leak / drain introspection (stress tests) ----
  /// Tasks currently chained in the ready queue (must be 0 between
  /// messages: every handler drains the queue before returning).
  std::size_t ready_queue_size() const { return ready_size_; }
  /// Blocked wait_key/gather reply channels across all records.
  std::size_t pending_waiters() const;

  /// Cross-shard protocol state and counters (remote edges, notify
  /// messages, drain acks; all 0 at one shard).
  const ShardLink& shard_link() const { return shard_; }

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
  /// residency (80 bytes). The key string lives in keys_; the submitted
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
    int pusher_client = -1;  // client id of the bridge that completed an
                             // external key (for re-push routing)
    std::uint64_t bytes = 0;
    double state_since = 0.0;  // sim time of the last transition (tracing)
    std::uint64_t rearm_epoch = 0;  // bumps on memory -> external re-arm
    /// Causality id of the handling span that moved this key to memory;
    /// forwarded as DepLocation::cause so dependents can record
    /// dep-ready -> execute edges (0 when untraced).
    std::uint64_t done_cause = 0;
    /// Execution payload (fn/io/cost/out_bytes) in spec_arena_, read-only
    /// once ingested (workers read it concurrently); null for records the
    /// scheduler never assigns (external/scattered keys).
    const TaskSpec* spec = nullptr;
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
  /// Intern `n` fresh keys in order (`key_at(i)` yields the i-th, moved
  /// from), create each record and hand it to `init(i, id, rec)`.
  template <typename KeyAt, typename Init>
  void intern_batch(std::size_t n, KeyAt key_at, const char* dup, Init init);
  /// Point `rec` at `worker` (-1: nowhere) holding `bytes`.
  static void locate(TaskRecord& rec, int worker, std::uint64_t bytes) {
    rec.worker = worker;
    rec.bytes = bytes;
  }

  // ---- the cross-shard protocol (defined in shard.cpp) ----
  /// Intern a record for a key owned by another shard (origin kRemote,
  /// no spec): kExternal at ingest, completed later by kShardKeyDone;
  /// or already memory/erred when the notification outran the slice.
  KeyId create_mirror(std::uint64_t h, Key key, TaskState state);
  /// Owner side: register (or answer at once) the subscriptions and
  /// charge the consumer counts piggybacked on an update_graph slice.
  exec::Co<void> subscribe_shards(SchedMsg& msg);
  /// Send kShardKeyDone{key, worker, bytes} (or erred + error) for
  /// record `id` to shard `shard`.
  exec::Co<void> notify_shard(int shard, KeyId id);
  /// Pay the intra-node control cost, then enqueue `m` at shard `shard`.
  exec::Co<void> send_shard(int shard, SchedMsg m);
  /// Return `count` consumer charges of mirror `id` to its owner shard.
  exec::Co<void> drain_to_owner(KeyId id, int count);
  /// Subscriber side: complete (or poison) the local mirror record; a
  /// re-announcement for a mirror already in memory moves its location.
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
  /// An external key pushed at a worker already declared dead is re-armed
  /// and appended to `rearmed`, for the caller's send_replays().
  exec::Co<int> update_data_one(Key key, int worker, std::uint64_t bytes,
                               bool external, int sender_client,
                               std::vector<KeyId>& rearmed);
  void handle_create_external(SchedMsg& msg);
  exec::Co<void> handle_wait_key(SchedMsg& msg);
  exec::Co<void> handle_variable(SchedMsg& msg);
  exec::Co<void> handle_queue(SchedMsg& msg);
  /// Err task `id` and cascade the poison through its dependent cone,
  /// releasing any blocked waiters with kAckErred.
  exec::Co<void> poison_task(KeyId id, const std::string& error);
  /// Reply `value` to every client blocked on record `id` and drop them.
  exec::Co<void> release_waiters(KeyId id, int value);
  /// Round-robin over live workers only.
  int pick_live_worker();

  // ---- failure detection and recovery (defined in recovery.cpp) ----
  /// Refresh the sending worker's heartbeat deadline (counted but ignored
  /// once the worker is declared dead).
  void handle_heartbeat(const SchedMsg& msg);
  /// Re-check a suspected worker's deadline, declare it dead, broadcast
  /// the death to peer shards and run recover_worker().
  exec::Co<void> handle_worker_lost(SchedMsg& msg);
  /// Recovery core, run as (part of) a serialized handler: classify every
  /// key held by the dead worker, re-run lost computed keys via lineage,
  /// re-arm lost external keys for a producer re-push, err unrecoverable
  /// scatters (poisoning their cones), and re-assign in-flight tasks.
  exec::Co<void> recover_worker(int worker);
  /// Re-arm external key `id` for a producer re-push: a fresh epoch, a
  /// live target worker, and the repush_deadline() that errs it out if
  /// no replay arrives.
  void rearm_external(KeyId id, TaskRecord& rec);
  /// Send each producing client one RepushList naming its re-armed keys
  /// among `ids` and their targets; a key with no known producer is
  /// poisoned instead (its data was lost with `worker`).
  exec::Co<void> send_replays(const std::vector<KeyId>& ids, int worker);
  /// Watchdog for a re-armed external key: if the producer has not
  /// replayed it within params.repush_timeout, err it out (epoch guards
  /// against acting on a key that was replayed and re-armed again).
  exec::Co<void> repush_deadline(Key key, std::uint64_t epoch);
  exec::Co<void> handle_repush_expired(SchedMsg& msg);

  /// Mark record `id` finished in memory and cascade: notify waiters,
  /// decrement dependents, assign newly-ready tasks. The
  /// external→memory transition of §2.2 lands here.
  exec::Co<void> finish_task(KeyId id, TaskRecord& rec, int worker,
                            std::uint64_t bytes, bool erred,
                            const std::string& error);
  /// Key-terminal hook: `id` reached memory or erred. Notify its
  /// subscriber shards, then return its input charges to the GC,
  /// releasing every input whose last consumer it was. Callers skip the
  /// call when terminal_work() is false, so an idle hook costs no frame.
  exec::Co<void> key_terminal(KeyId id, TaskRecord& rec);
  bool terminal_work(KeyId id) const {
    return shard_.subscribed(id) || lifetime_.holds_inputs(id);
  }
  /// Release-candidate hook: KeyLifetime's decision on `id`, given what
  /// only the core knows (mirror? in memory on a live worker, unwaited?).
  Release decide_release(KeyId id);
  /// Carry out a GC decision: free the key on its worker, or drain the
  /// mirror's charges back to the owner shard.
  exec::Co<void> release(KeyId id, Release r);
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
  std::array<std::uint64_t, kNumTaskStates> created_{};
  std::array<std::array<std::uint64_t, kNumTaskStates>, kNumTaskStates>
      transitions_{};
  std::uint64_t bytes_released_ = 0;  // GC'd bytes (keys: lifetime_)
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
  // Where to send each producing client's replay lists (each bridge holds
  // its own replay buffer); registered from its armed pushes.
  struct Producer {
    Producer(int node_, std::shared_ptr<exec::Channel<RepushList>> replays_)
        : node(node_), replays(std::move(replays_)) {}
    int node;
    std::shared_ptr<exec::Channel<RepushList>> replays;
  };
  std::unordered_map<int, Producer> producers_;
  RecoveryCounters recovery_;

  std::string actor_ = "scheduler";  // trace/span actor id
  ShardLink shard_;       // the cross-shard protocol (shard.hpp)
  KeyLifetime lifetime_;  // refcount GC (key_lifetime.hpp)
};

}  // namespace deisa::dts
