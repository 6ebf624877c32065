#include "deisa/dts/shard.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <type_traits>

#include "deisa/dts/scheduler.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/obs/trace.hpp"

namespace deisa::dts {

// ---- client half: the per-shard split ----

namespace {

/// An empty slice of `msg`'s kind carrying its header fields.
SchedMsg slice_of(const SchedMsg& msg) {
  SchedMsg s(msg.kind);
  s.cause = msg.cause;
  s.worker = msg.worker;
  s.external = msg.external;
  return s;
}

}  // namespace

Slices split_graph(const ShardMapper& mapper, SchedMsg msg) {
  Slices out;
  if (mapper.shards <= 1) {
    out.emplace_back(0, std::move(msg));
    return out;
  }
  const auto n = static_cast<std::size_t>(mapper.shards);
  std::vector<SchedMsg> slices(n, slice_of(msg));
  // Repeat edges from the same consumer shard bump the already-emitted
  // count in place, so the owner's refcount GC charges exactly one
  // consumer per dependent edge — the rule the single scheduler applies.
  struct SubEntry {
    std::uint64_t bits = 0;  // consumer shards already subscribed
    // (consumer shard, index into the owner slice's sub_counts) pairs;
    // a dep rarely spans many shards.
    std::vector<std::pair<int, std::size_t>> at;
  };
  std::unordered_map<Key, SubEntry> submask;
  submask.reserve(msg.tasks.size());
  for (auto& slice : slices) slice.tasks.reserve(msg.tasks.size() / n + 1);
  for (TaskSpec& t : msg.tasks) {
    const int s = mapper.shard_of(t.key);
    for (const Key& dep : t.deps) {
      const int ds = mapper.shard_of(dep);
      if (ds == s) continue;
      SubEntry& entry = submask[dep];
      SchedMsg& owner = slices[static_cast<std::size_t>(ds)];
      const std::uint64_t bit = std::uint64_t{1} << s;
      if ((entry.bits & bit) != 0) {
        for (const auto& [shard, idx] : entry.at)
          if (shard == s) ++owner.sub_counts[idx];
        continue;
      }
      entry.bits |= bit;
      entry.at.emplace_back(s, owner.sub_counts.size());
      owner.sub_keys.push_back(dep);
      owner.sub_shards.push_back(s);
      owner.sub_counts.push_back(1);
    }
    slices[static_cast<std::size_t>(s)].tasks.push_back(std::move(t));
  }
  for (Key& w : msg.wants)
    slices[static_cast<std::size_t>(mapper.shard_of(w))].wants.push_back(
        std::move(w));
  for (std::size_t s = 0; s < n; ++s)
    if (!slices[s].tasks.empty() || !slices[s].wants.empty() ||
        !slices[s].sub_keys.empty())
      out.emplace_back(static_cast<int>(s), std::move(slices[s]));
  return out;
}

Slices split_keys(const ShardMapper& mapper, SchedMsg msg,
                  std::vector<std::vector<std::size_t>>* positions) {
  const auto n = static_cast<std::size_t>(mapper.shards);
  std::vector<std::vector<std::size_t>> pos(n);
  Slices out;
  if (n == 1) {
    pos[0].resize(msg.keys.size());
    std::iota(pos[0].begin(), pos[0].end(), std::size_t{0});
    out.emplace_back(0, std::move(msg));
  } else {
    DEISA_CHECK(msg.preferred_workers.empty() ||
                    msg.preferred_workers.size() == msg.keys.size(),
                "preferred_workers must be empty or parallel to keys");
    std::vector<SchedMsg> slices(n, slice_of(msg));
    for (std::size_t i = 0; i < msg.keys.size(); ++i) {
      const auto s = static_cast<std::size_t>(mapper.shard_of(msg.keys[i]));
      pos[s].push_back(i);
      if (!msg.preferred_workers.empty())
        slices[s].preferred_workers.push_back(msg.preferred_workers[i]);
      if (!msg.sizes.empty()) slices[s].sizes.push_back(msg.sizes[i]);
      slices[s].keys.push_back(std::move(msg.keys[i]));
    }
    for (std::size_t s = 0; s < n; ++s)
      if (!slices[s].keys.empty())
        out.emplace_back(static_cast<int>(s), std::move(slices[s]));
  }
  if (positions != nullptr) *positions = std::move(pos);
  return out;
}

// ---- scheduler half: ShardLink ----

void ShardLink::subscribe(KeyId id, int shard) {
  DEISA_CHECK(shard >= 0 && shard < mapper.shards && shard != index,
              "bad subscriber shard " << shard);
  auto& list = subs[id];
  if (std::find(list.begin(), list.end(), shard) == list.end())
    list.push_back(shard);
}

const std::vector<int>& ShardLink::subscribers(KeyId id) const {
  static const std::vector<int> kNone;
  const auto it = subs.find(id);
  return it == subs.end() ? kNone : it->second;
}

Slices ShardLink::worker_dead(int worker) {
  // Deaths are monotone (workers never rejoin) and the epoch only moves
  // forward, so a stale or duplicated report can never re-kill a worker
  // whose recovery a peer already ran (DESIGN.md §5j).
  const std::uint64_t epoch = ++death_epoch;
  Slices out;
  for (int s = 0; s < mapper.shards; ++s) {
    if (s == index) continue;
    SchedMsg m(SchedMsgKind::kShardWorkerDead);
    m.worker = worker;
    m.bytes = epoch;
    out.emplace_back(s, std::move(m));
  }
  return out;
}

// ---- scheduler half: the Scheduler's shard sends and kShard* handlers ----

void Scheduler::set_shard_context(
    int index, std::vector<exec::Channel<SchedMsg>*> peers) {
  const int n = static_cast<int>(peers.size());
  DEISA_CHECK(n >= 1 && index >= 0 && index < n,
              "bad shard context " << index << "/" << n);
  shard_.index = index;
  shard_.mapper.shards = n;
  shard_.peers = std::move(peers);
  // The single-shard actor id stays exactly "scheduler" so traces (and
  // the critical-path partition) are bit-identical to the unsharded
  // scheduler.
  actor_ = n == 1 ? "scheduler" : "scheduler-" + std::to_string(index);
}

KeyId Scheduler::create_mirror(std::uint64_t h, Key key, TaskState state) {
  const auto [id, fresh] = keys_.intern_hashed(h, std::move(key));
  DEISA_ASSERT(fresh, "mirror for known key " << keys_.name(id));
  TaskRecord& rec = create_record(id);
  rec.origin = Origin::kRemote;
  rec.state = state;
  record_created(id, rec);
  return id;
}

exec::Co<void> Scheduler::subscribe_shards(SchedMsg& msg) {
  DEISA_CHECK(msg.sub_keys.size() == msg.sub_shards.size(),
              "sub_keys/sub_shards length mismatch: "
                  << msg.sub_keys.size() << " vs " << msg.sub_shards.size());
  DEISA_CHECK(msg.sub_counts.empty() ||
                  msg.sub_counts.size() == msg.sub_keys.size(),
              "sub_counts length mismatch: " << msg.sub_counts.size()
                                             << " vs " << msg.sub_keys.size());
  for (std::size_t i = 0; i < msg.sub_keys.size(); ++i) {
    const Key& key = msg.sub_keys[i];
    const KeyId id = keys_.find(key);
    // FIFO channel order guarantees the producer's slice (same message)
    // or an earlier RPC from the same client already interned the key.
    DEISA_CHECK(id != kNoKeyId,
                "cross-shard subscription to unknown key '" << key << "'");
    // Refcount plane: the subscriber's slice charges its consumer edges
    // against this key; they drain back through kShardKeyReleased.
    const int count = i < msg.sub_counts.size() ? msg.sub_counts[i] : 0;
    if (lifetime_.charge_remote(id, key, count))
      if (const Release r = decide_release(id)) co_await release(id, r);
    // Subscribe even when the key is already terminal (and answer now):
    // a key recovered after worker loss re-announces through the list.
    const int sub = msg.sub_shards[i];
    shard_.subscribe(id, sub);
    const TaskState st = records_[id].state;
    if (st == TaskState::kMemory || st == TaskState::kErred)
      co_await notify_shard(sub, id);
  }
}

exec::Co<void> Scheduler::notify_shard(int shard, KeyId id) {
  const TaskRecord& rec = records_[id];
  SchedMsg m(SchedMsgKind::kShardKeyDone);
  m.key = keys_.name(id);
  m.worker = rec.worker;
  m.bytes = rec.bytes;
  m.erred = rec.state == TaskState::kErred;
  if (const auto it = errors_.find(id); m.erred && it != errors_.end())
    m.error = it->second;
  ++shard_.notify_msgs;
  obs::count("scheduler.shard.notify_msgs");
  co_await send_shard(shard, std::move(m));
}

exec::Co<void> Scheduler::send_shard(int shard, SchedMsg m) {
  m.sender_node = node_;
  m.cause = current_cause_;
  // Shards are co-located on the scheduler node; the message still pays
  // the intra-node control cost of an actor-to-actor message.
  co_await cluster_->send_control(node_, node_, wire_bytes(m));
  shard_.peers[static_cast<std::size_t>(shard)]->send(std::move(m));
}

exec::Co<void> Scheduler::drain_to_owner(KeyId id, int count) {
  SchedMsg m(SchedMsgKind::kShardKeyReleased);
  m.key = keys_.name(id);
  m.bytes = static_cast<std::uint64_t>(count);
  m.sender_node = node_;
  m.cause = current_cause_;
  const int owner = shard_.mapper.shard_of(m.key);
  DEISA_ASSERT(owner != shard_.index,
               "remote mirror " << m.key << " owned by this shard");
  ++shard_.release_acks;
  obs::count("scheduler.shard.release_acks");
  // Enqueue before paying the control cost (the reverse of send_shard):
  // the client may observe the consumer's completion and enqueue
  // kShutdown in this very tick — landing the ack in the owner's FIFO
  // inbox now guarantees it is processed before that shutdown, so the
  // final step of a run drains exactly like every other step.
  const std::size_t ack_bytes = wire_bytes(m);
  shard_.peers[static_cast<std::size_t>(owner)]->send(std::move(m));
  co_await cluster_->send_control(node_, node_, ack_bytes);
}

exec::Co<void> Scheduler::handle_shard_key_done(SchedMsg& msg) {
  KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) {
    // The notification outran this shard's slice of the client batch
    // (the owner ran its slice to completion first): register the remote
    // key as already done — the late slice resolves it as a satisfied
    // (or erred) dependency.
    const std::uint64_t h = KeyTable::hash_key(msg.key);
    id = create_mirror(h, std::move(msg.key),
                       msg.erred ? TaskState::kErred : TaskState::kMemory);
    if (msg.erred) {
      errors_[id] = msg.error;
    } else {
      records_[id].done_cause = current_cause_;
      locate(records_[id], msg.worker, msg.bytes);
    }
    co_return;
  }
  TaskRecord& rec = records_[id];
  DEISA_ASSERT(rec.origin == Origin::kRemote,
               "shard_key_done for locally owned key " << msg.key);
  if (rec.state == TaskState::kErred) co_return;  // terminal: duplicate
  if (rec.state == TaskState::kMemory) {
    // A re-announcement (or a notification that outran the death
    // broadcast for this mirror's worker): move the cached location so
    // assigns and recovery see where the bytes actually live now. An
    // erred one means the owner lost the key unrecoverably after
    // announcing it: the data is nowhere, and the cone is poisoned below.
    locate(rec, msg.erred ? -1 : msg.worker,
           msg.erred ? rec.bytes : msg.bytes);
    if (!msg.erred) co_return;
  }
  if (msg.erred) {
    co_await poison_task(id, msg.error);
  } else {
    co_await finish_task(id, rec, msg.worker, msg.bytes, false, {});
  }
}

exec::Co<void> Scheduler::handle_shard_worker_dead(SchedMsg& msg) {
  const int w = msg.worker;
  if (w < 0 || static_cast<std::size_t>(w) >= workers_.size()) co_return;
  // Epoch guard: with FIFO delivery from shard 0 this only fires on
  // duplicated or stale reports, but it makes the broadcast idempotent.
  if (!shard_.accept_death(msg.bytes, worker_is_dead(w))) co_return;
  dead_[static_cast<std::size_t>(w)] = 1;
  ++dead_count_;
  obs::count("scheduler.shard.worker_dead");
  // recovery_.workers_lost stays untouched here: shard 0 counted the
  // death once; per-shard sums must equal the single-scheduler count.
  obs::trace_instant(actor_, "recovery",
                     "shard_worker_dead:worker-" + std::to_string(w));
  co_await recover_worker(w);
}

exec::Co<void> Scheduler::handle_shard_key_released(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  DEISA_CHECK(id != kNoKeyId,
              "consumer-drain ack for unknown key '" << msg.key << "'");
  DEISA_ASSERT(records_[id].origin != Origin::kRemote,
               "consumer-drain ack routed to a subscriber shard for "
                   << msg.key);
  lifetime_.drain_remote(id, static_cast<int>(msg.bytes));
  if (const Release r = decide_release(id)) co_await release(id, r);
}

// ---- the shard set ----

ShardedScheduler::ShardedScheduler(exec::Executor& engine,
                                   exec::Transport& cluster, int node,
                                   int num_shards, SchedulerParams params) {
  DEISA_CHECK(num_shards >= 1, "num_shards must be >= 1: " << num_shards);
  // The client's per-dependency subscription dedup uses a 64-bit consumer
  // bitmask; far above any useful shard count for co-located actors.
  DEISA_CHECK(num_shards <= 64, "num_shards must be <= 64: " << num_shards);
  mapper_.shards = num_shards;
  shards_.reserve(static_cast<std::size_t>(num_shards));
  for (int i = 0; i < num_shards; ++i) {
    SchedulerParams p = params;
    // Shard 0 keeps the configured seed so a 1-shard run draws the exact
    // jitter stream of the unsharded scheduler; siblings decorrelate.
    p.seed = params.seed + static_cast<std::uint64_t>(i);
    shards_.push_back(std::make_unique<Scheduler>(engine, cluster, node, p));
  }
  for (int i = 0; i < num_shards; ++i)
    shards_[static_cast<std::size_t>(i)]->set_shard_context(i, inboxes());
}

std::vector<exec::Channel<SchedMsg>*> ShardedScheduler::inboxes() {
  std::vector<exec::Channel<SchedMsg>*> out;
  for (auto& s : shards_) out.push_back(&s->inbox());
  return out;
}

void ShardedScheduler::attach_workers(const std::vector<WorkerRef>& refs) {
  for (auto& s : shards_) s->attach_workers(refs);
}

void ShardedScheduler::start(exec::Executor& engine) {
  for (auto& s : shards_) {
    void* strand = engine.new_strand();
    engine.spawn_on(strand, s->run());
    engine.spawn_on(strand, s->run_failure_detector());
  }
}

void ShardedScheduler::send_shutdown() {
  for (auto& s : shards_) s->inbox().send(SchedMsg(SchedMsgKind::kShutdown));
}

template <typename F>
auto ShardedScheduler::sum(F get) const {
  std::remove_cvref_t<std::invoke_result_t<F, const Scheduler&>> total{};
  for (const auto& s : shards_) total += std::invoke(get, *s);
  return total;
}

std::uint64_t ShardedScheduler::total_messages() const {
  return sum(&Scheduler::total_messages);
}
std::uint64_t ShardedScheduler::messages_received(SchedMsgKind kind) const {
  return sum([kind](const Scheduler& s) { return s.messages_received(kind); });
}
double ShardedScheduler::total_service_time() const {
  return sum(&Scheduler::total_service_time);
}
std::uint64_t ShardedScheduler::keys_released() const {
  return sum(&Scheduler::keys_released);
}
std::uint64_t ShardedScheduler::remote_edges() const {
  return sum([](const Scheduler& s) { return s.shard_link().remote_edges; });
}
std::uint64_t ShardedScheduler::notify_msgs() const {
  return sum([](const Scheduler& s) { return s.shard_link().notify_msgs; });
}
std::uint64_t ShardedScheduler::release_acks() const {
  return sum([](const Scheduler& s) { return s.shard_link().release_acks; });
}
RecoveryCounters ShardedScheduler::recovery() const {
  return sum(&Scheduler::recovery);
}

}  // namespace deisa::dts
