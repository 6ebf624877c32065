// Wire messages between dts actors. Every struct has a user-declared
// constructor (never an aggregate) — see the GCC 12 coroutine note on
// deisa::mpix::Message.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "deisa/dts/task.hpp"
#include "deisa/exec/primitives.hpp"

namespace deisa::dts {

// ---- wire-cost model constants ----
// Shared by the workers, clients, the scheduler's metadata serialization
// model and the bridge push path, so every actor prices the same thing
// the same way.
/// Floor on any bulk payload transfer (serialization framing: even an
/// empty block occupies one frame on the wire).
inline constexpr std::uint64_t kMinTransferBytes = 64;
/// Base size of a small control message (request/ack envelope).
inline constexpr std::uint64_t kControlMsgBase = 128;
/// Scheduler-message envelope (header + routing metadata).
inline constexpr std::uint64_t kWireEnvelopeBytes = 512;
/// Serialized size of one TaskSpec in an update_graph batch.
inline constexpr std::uint64_t kWirePerTaskBytes = 256;
/// Serialized size of one dependency edge.
inline constexpr std::uint64_t kWirePerDepBytes = 48;
/// Serialized size of one key reference (keys/wants lists).
inline constexpr std::uint64_t kWirePerKeyBytes = 64;

/// Reference to a worker actor as seen by the scheduler/clients.
struct WorkerRef {
  WorkerRef() = default;
  WorkerRef(int id_, int node_, exec::Channel<struct WorkerMsg>* inbox_)
      : id(id_), node(node_), inbox(inbox_) {}
  int id = -1;
  int node = -1;
  exec::Channel<struct WorkerMsg>* inbox = nullptr;
};

/// Scheduler acknowledgement: an int code (worker id, ack code, or a
/// kAck* sentinel) plus the causality id of the scheduler handling span
/// that produced it. wait_key replies carry the completion's handling
/// span so a client that throttles on a key — wait, then submit the next
/// batch — chains its follow-up graph onto the completion it waited for
/// instead of opening a fresh causal root.
struct Ack {
  Ack() = default;
  Ack(int code_, std::uint64_t cause_) : code(code_), cause(cause_) {}
  int code = 0;
  std::uint64_t cause = 0;
};

/// Dependency location handed to a worker with a compute request.
struct DepLocation {
  DepLocation() = default;
  DepLocation(Key key_, int owner_, std::uint64_t bytes_,
              std::uint64_t cause_ = 0)
      : key(std::move(key_)), owner(owner_), bytes(bytes_), cause(cause_) {}
  Key key;
  int owner = -1;  // worker id
  std::uint64_t bytes = 0;
  /// Causality id of the event that completed this dependency (the
  /// scheduler handling span that transitioned it to memory); lets the
  /// worker record dep-ready -> execute edges without knowing how the
  /// data physically arrived.
  std::uint64_t cause = 0;
};

/// Message kinds accepted by the scheduler inbox. The scheduler counts
/// arrivals per kind — those counters are the measured quantity of the
/// paper's §2.1 metadata-message formula.
enum class SchedMsgKind {
  kUpdateGraph,
  kTaskFinished,
  kUpdateData,       // scatter registration; may carry external=true
  kCreateExternal,   // the paper's external-future RPC
  kWaitKey,          // client gather support
  kHeartbeatWorker,
  kHeartbeatBridge,
  kCancelKey,
  kVariableSet,
  kVariableGet,
  kQueuePut,
  kQueueGet,
  kWorkerLost,       // failure detector -> scheduler (serialized recovery)
  kRepushKeys,       // producer asks for its pending re-push assignments
  kRepushExpired,    // internal deadline: re-armed key never replayed
                     // (carries the re-arm epoch in `bytes`)
  kShardKeyDone,     // cross-shard completion notification {key, worker,
                     // bytes} from the owning shard to a subscriber shard
  kShardWorkerDead,  // liveness broadcast from shard 0 {worker, epoch in
                     // `bytes`}: every peer shard runs recovery over its
                     // own records
  kShardKeyReleased, // consumer-drain ack from a subscriber shard to the
                     // owner {key, drained count in `bytes`}: the remote
                     // consumers charged at ingest have all finished
  kShutdown,
};

const char* to_string(SchedMsgKind k);

/// Number of SchedMsgKind values (flat per-kind arrival counters).
inline constexpr std::size_t kSchedMsgKindCount =
    static_cast<std::size_t>(SchedMsgKind::kShutdown) + 1;

// Acknowledgement codes carried on int reply channels. Non-negative
// values are worker ids (wait_key, scatter registration).
inline constexpr int kAckErred = -2;      // task erred / cancelled
inline constexpr int kAckDiscarded = -3;  // stale push dropped (terminal key)
/// The push was handled, but the scheduler holds pending re-push
/// assignments for this producer: it must issue kRepushKeys and replay
/// the listed blocks (possibly including the one just pushed, if its
/// target worker is being replaced).
inline constexpr int kAckRepushPending = -4;

/// Payload of a kRepushKeys reply: lost external keys this producer must
/// push again, each with its re-routed target worker.
using RepushList = std::vector<std::pair<Key, int>>;

struct SchedMsg {
  explicit SchedMsg(SchedMsgKind kind_) : kind(kind_) {}

  SchedMsgKind kind;
  /// Causality id of the span that sent this message (0: untraced). The
  /// scheduler links its handling span to it, giving the trace analyzer
  /// typed send->recv / push->update_data edges.
  std::uint64_t cause = 0;
  int sender_node = -1;
  /// Client id of the sender (-1 for workers/internal messages). Re-push
  /// bookkeeping is per client, not per node: two ranks can share a node
  /// but each holds its own replay buffer.
  int sender_client = -1;

  // kUpdateGraph
  std::vector<TaskSpec> tasks;
  std::vector<Key> wants;
  /// Cross-shard completion subscriptions piggybacked on the slice sent
  /// to the shard that OWNS sub_keys[i]: "when sub_keys[i] completes,
  /// send kShardKeyDone to shard sub_shards[i]". sub_counts[i] is the
  /// number of consumer edges this batch charges against sub_keys[i]
  /// from shard sub_shards[i] (refcount GC: the owner adds them to
  /// pending_consumers/ever_consumers; the subscriber drains them back
  /// with kShardKeyReleased). Always empty at shards == 1 (the
  /// single-shard wire format is unchanged).
  std::vector<Key> sub_keys;
  std::vector<int> sub_shards;
  std::vector<int> sub_counts;

  // kTaskFinished / kUpdateData / kWaitKey
  Key key;
  int worker = -1;
  std::uint64_t bytes = 0;
  bool external = false;
  bool erred = false;
  std::string error;

  // kCreateExternal; also batched kUpdateData (coalesced bridge pushes):
  // a kUpdateData with non-empty `keys` registers every (keys[i],
  // sizes[i]) pair on `worker` in one message, and replies per-key acks
  // on `reply_acks` instead of a single code on `reply_worker`.
  std::vector<Key> keys;
  std::vector<int> preferred_workers;
  std::vector<std::uint64_t> sizes;
  std::shared_ptr<exec::Channel<std::vector<int>>> reply_acks;

  // kVariable* / kQueue*
  std::string name;
  Data payload;

  // Replies (WaitKey -> worker id or -2 on error; VariableGet/QueueGet ->
  // payload). Channels are engine-bound and shared with the requester.
  std::shared_ptr<exec::Channel<Ack>> reply_worker;
  std::shared_ptr<exec::Channel<Data>> reply_data;
  std::shared_ptr<exec::Channel<RepushList>> reply_repush;  // kRepushKeys

  /// Producer wake-up channel, carried on kUpdateData. The scheduler
  /// remembers the latest channel per producing client and pokes it with
  /// kAckRepushPending when re-push work appears for that producer later
  /// — e.g. a crash detected after the producer's final push, when no
  /// further ack could carry the request.
  std::shared_ptr<exec::Channel<int>> notify;

  /// Memoized sum of tasks[i].deps.size(), shared by wire_bytes() and
  /// the scheduler's service-time model so a large update_graph batch is
  /// scanned once, not once per consumer. ~0 means "not computed yet";
  /// mutating `tasks` after either consumer ran would stale it, which no
  /// sender does (messages are built, sent, and moved).
  mutable std::uint64_t dep_total_cache = ~std::uint64_t{0};
};

/// Sum of deps.size() over msg.tasks, memoized on the message.
std::uint64_t spec_dep_total(const SchedMsg& msg);

/// Messages accepted by a worker inbox.
enum class WorkerMsgKind {
  kCompute,
  kReceiveData,       // direct push (scatter / bridge send)
  kReceiveDataBatch,  // coalesced push: several blocks in one message
  kGetData,           // peer or client fetch
  kReleaseKey,        // refcount GC: drop the stored value for `key`
  kShutdown,
};

struct WorkerMsg {
  explicit WorkerMsg(WorkerMsgKind kind_) : kind(kind_) {}

  WorkerMsgKind kind;
  /// Causality id of the sending span (scheduler assign, bridge push).
  std::uint64_t cause = 0;

  // kCompute
  TaskSpec spec;
  std::vector<DepLocation> deps;

  // kReceiveData / kGetData
  Key key;
  Data payload;
  int requester_node = -1;
  std::shared_ptr<exec::Channel<Data>> reply_data;

  // kReceiveDataBatch
  std::vector<std::pair<Key, Data>> batch;
};

/// Estimated wire size of a scheduler message (metadata serialization).
std::uint64_t wire_bytes(const SchedMsg& msg);

}  // namespace deisa::dts
