#include "deisa/dts/scheduler.hpp"

#include <algorithm>
#include <set>

#include "deisa/dts/policy.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/util/log.hpp"

namespace deisa::dts {

const char* to_string(TaskState s) {
  switch (s) {
    case TaskState::kWaiting: return "waiting";
    case TaskState::kReady: return "ready";
    case TaskState::kProcessing: return "processing";
    case TaskState::kMemory: return "memory";
    case TaskState::kExternal: return "external";
    case TaskState::kErred: return "erred";
  }
  return "?";
}

const char* to_string(SchedMsgKind k) {
  switch (k) {
    case SchedMsgKind::kUpdateGraph: return "update_graph";
    case SchedMsgKind::kTaskFinished: return "task_finished";
    case SchedMsgKind::kUpdateData: return "update_data";
    case SchedMsgKind::kCreateExternal: return "create_external";
    case SchedMsgKind::kWaitKey: return "wait_key";
    case SchedMsgKind::kCancelKey: return "cancel_key";
    case SchedMsgKind::kHeartbeatWorker: return "heartbeat_worker";
    case SchedMsgKind::kHeartbeatBridge: return "heartbeat_bridge";
    case SchedMsgKind::kVariableSet: return "variable_set";
    case SchedMsgKind::kVariableGet: return "variable_get";
    case SchedMsgKind::kQueuePut: return "queue_put";
    case SchedMsgKind::kQueueGet: return "queue_get";
    case SchedMsgKind::kWorkerLost: return "worker_lost";
    case SchedMsgKind::kRepushKeys: return "repush_keys";
    case SchedMsgKind::kRepushExpired: return "repush_expired";
    case SchedMsgKind::kShardKeyDone: return "shard_key_done";
    case SchedMsgKind::kShardWorkerDead: return "shard_worker_dead";
    case SchedMsgKind::kShardKeyReleased: return "shard_key_released";
    case SchedMsgKind::kShutdown: return "shutdown";
  }
  return "?";
}

bool transition_valid(TaskState from, TaskState to) {
  switch (from) {
    case TaskState::kWaiting:
      return to == TaskState::kReady || to == TaskState::kProcessing ||
             to == TaskState::kErred;
    case TaskState::kReady:
      return to == TaskState::kProcessing || to == TaskState::kErred;
    case TaskState::kProcessing:
      // -> ready/waiting are the retry and worker-loss re-run paths.
      return to == TaskState::kMemory || to == TaskState::kErred ||
             to == TaskState::kReady || to == TaskState::kWaiting;
    case TaskState::kMemory:
      // -> waiting: lost computed key re-running via lineage.
      // -> external: lost external key re-armed for a producer re-push.
      // -> erred: lost scattered key (no lineage, no producer protocol).
      return to == TaskState::kWaiting || to == TaskState::kExternal ||
             to == TaskState::kErred;
    case TaskState::kExternal:
      return to == TaskState::kMemory || to == TaskState::kErred;
    case TaskState::kErred:
      return false;  // terminal: stale stimuli must be dropped upstream
  }
  return false;
}

std::uint64_t spec_dep_total(const SchedMsg& msg) {
  if (msg.dep_total_cache == ~std::uint64_t{0}) {
    std::uint64_t s = 0;
    for (const auto& t : msg.tasks) s += t.deps.size();
    msg.dep_total_cache = s;
  }
  return msg.dep_total_cache;
}

std::uint64_t wire_bytes(const SchedMsg& msg) {
  std::uint64_t b = kWireEnvelopeBytes;
  b += msg.tasks.size() * kWirePerTaskBytes;
  b += spec_dep_total(msg) * kWirePerDepBytes;
  b += msg.keys.size() * kWirePerKeyBytes;
  b += msg.wants.size() * kWirePerKeyBytes;
  b += msg.sub_keys.size() * kWirePerKeyBytes;  // cross-shard subscriptions
  b += msg.sub_counts.size() * sizeof(int);     // piggybacked consumer counts
  b += msg.sizes.size() * sizeof(std::uint64_t);  // batched push sizes
  b += msg.key.size();
  b += msg.payload.bytes;  // variables/queues carry their payload inline
  return b;
}

Scheduler::Scheduler(exec::Executor& engine, exec::Transport& cluster, int node,
                     SchedulerParams params)
    : engine_(&engine),
      cluster_(&cluster),
      node_(node),
      params_(params),
      inbox_(engine),
      server_(engine, 1),
      rng_(params.seed) {}

void Scheduler::set_shard_context(
    int shard_index, int num_shards,
    std::vector<exec::Channel<SchedMsg>*> peer_inboxes) {
  DEISA_CHECK(num_shards >= 1 && shard_index >= 0 &&
                  shard_index < num_shards,
              "bad shard context " << shard_index << "/" << num_shards);
  DEISA_CHECK(static_cast<int>(peer_inboxes.size()) == num_shards,
              "peer inbox count " << peer_inboxes.size()
                                  << " != num_shards " << num_shards);
  shard_index_ = shard_index;
  num_shards_ = num_shards;
  shard_peers_ = std::move(peer_inboxes);
  // The single-shard actor id stays exactly "scheduler" so traces (and
  // the critical-path partition) are bit-identical to the unsharded
  // scheduler.
  actor_ = num_shards == 1 ? "scheduler"
                           : "scheduler-" + std::to_string(shard_index);
}

void Scheduler::attach_workers(std::vector<WorkerRef> workers) {
  workers_ = std::move(workers);
  dead_.assign(workers_.size(), 0);
  suspected_.assign(workers_.size(), 0);
  last_heartbeat_.assign(workers_.size(), -1.0);
  has_what_.clear();
  has_what_.resize(workers_.size());
  dead_count_ = 0;
}

TaskState Scheduler::state_of(const Key& key) const {
  const KeyId id = keys_.find(key);
  DEISA_CHECK(id != kNoKeyId, "unknown task key: " << key);
  return records_[id].state;
}

int Scheduler::pending_consumers(const Key& key) const {
  const KeyId id = keys_.find(key);
  DEISA_CHECK(id != kNoKeyId, "unknown task key: " << key);
  return records_[id].pending_consumers;
}

bool Scheduler::is_released(const Key& key) const {
  const KeyId id = keys_.find(key);
  DEISA_CHECK(id != kNoKeyId, "unknown task key: " << key);
  return records_[id].released;
}

std::size_t Scheduler::pending_waiters() const {
  std::size_t n = 0;
  for (const auto& [id, wl] : waiters_) n += wl.chans.size();
  return n;
}

std::size_t Scheduler::repush_pending() const {
  std::size_t n = 0;
  for (const auto& [client, ids] : repush_) n += ids.size();
  return n;
}

double Scheduler::service_time(const SchedMsg& msg) {
  double t = params_.service_base;
  if (msg.kind == SchedMsgKind::kQueuePut ||
      msg.kind == SchedMsgKind::kQueueGet)
    t += params_.service_queue_extra;
  t += params_.service_per_task * static_cast<double>(msg.tasks.size());
  std::size_t keys = msg.keys.size() + msg.wants.size() + (msg.key.empty() ? 0 : 1);
  keys += msg.sub_keys.size();
  keys += static_cast<std::size_t>(spec_dep_total(msg));
  t += params_.service_per_key * static_cast<double>(keys);
  if (params_.service_jitter_sigma > 0.0)
    t *= rng_.lognormal_mean(1.0, params_.service_jitter_sigma);
  return t;
}

Scheduler::TaskRecord& Scheduler::create_record(KeyId id) {
  DEISA_ASSERT(static_cast<std::size_t>(id) == records_.size(),
               "key table and record table out of sync at id " << id);
  records_.emplace_back();
  return records_.back();
}

void Scheduler::record_created(KeyId id, TaskRecord& rec) {
  rec.state_since = engine_->now();
  ++state_counts_[static_cast<std::size_t>(rec.state)];
  if (auto* m = obs::metrics()) {
    m->counter("scheduler.tasks.created").add();
    m->counter(std::string("scheduler.created.") + to_string(rec.state))
        .add();
  }
  if (auto* r = obs::tracer())
    r->instant(r->track(actor_, "lifecycle"), "create:" + keys_.name(id),
               {obs::arg("state", to_string(rec.state))});
}

void Scheduler::transition(KeyId id, TaskRecord& rec, TaskState to) {
  const TaskState from = rec.state;
  DEISA_ASSERT(from != to, "self-transition on task " << keys_.name(id));
  DEISA_ASSERT(transition_valid(from, to),
               "illegal transition " << to_string(from) << " -> "
                                     << to_string(to) << " on task "
                                     << keys_.name(id));
  DEISA_TRACE("scheduler", keys_.name(id) << ": " << to_string(from) << " -> "
                                          << to_string(to));
  if (auto* m = obs::metrics())
    m->counter(std::string("scheduler.transitions.") + to_string(from) +
               "->" + to_string(to))
        .add();
  if (auto* r = obs::tracer()) {
    // Time spent in the state being left, as a span on that state's lane;
    // terminal states (memory/erred) show up as lifecycle instants.
    const double now = engine_->now();
    r->complete(r->track(actor_, to_string(from)), keys_.name(id),
                rec.state_since, now - rec.state_since,
                {obs::arg("to", to_string(to))});
    r->instant(r->track(actor_, "lifecycle"), keys_.name(id),
               {obs::arg("from", to_string(from)),
                obs::arg("to", to_string(to))});
  }
  --state_counts_[static_cast<std::size_t>(from)];
  ++state_counts_[static_cast<std::size_t>(to)];
  rec.state = to;
  rec.state_since = engine_->now();
}

void Scheduler::add_dependent(TaskRecord& rec, KeyId dependent) {
  edge_pool_.push_back(Edge{dependent, rec.dependents_head});
  rec.dependents_head = static_cast<std::uint32_t>(edge_pool_.size() - 1);
}

void Scheduler::take_dependents(TaskRecord& rec, std::vector<KeyId>& out) {
  out.clear();
  for (std::uint32_t e = rec.dependents_head; e != kNoEdge;
       e = edge_pool_[e].next)
    out.push_back(edge_pool_[e].node);
  rec.dependents_head = kNoEdge;
  // The pooled list is LIFO; downstream cascades must see original
  // insertion order for deterministic assignment sequencing.
  std::reverse(out.begin(), out.end());
}

void Scheduler::push_ready(KeyId id) {
  TaskRecord& rec = records_[id];
  transition(id, rec, TaskState::kReady);
  rec.next_ready = kNoKeyId;
  if (ready_tail_ == kNoKeyId)
    ready_head_ = id;
  else
    records_[ready_tail_].next_ready = id;
  ready_tail_ = id;
  ++ready_size_;
}

KeyId Scheduler::pop_ready() {
  DEISA_ASSERT(ready_head_ != kNoKeyId, "pop from empty ready queue");
  const KeyId id = ready_head_;
  TaskRecord& rec = records_[id];
  ready_head_ = rec.next_ready;
  if (ready_head_ == kNoKeyId) ready_tail_ = kNoKeyId;
  rec.next_ready = kNoKeyId;
  --ready_size_;
  return id;
}

exec::Co<void> Scheduler::drain_ready() {
  while (ready_head_ != kNoKeyId) co_await assign(pop_ready());
}

exec::Co<void> Scheduler::run() {
  while (true) {
    SchedMsg msg = co_await inbox_.recv();
    ++total_messages_;
    ++arrivals_[static_cast<std::size_t>(msg.kind)];
    if (auto* m = obs::metrics()) {
      m->counter("scheduler.messages.total").add();
      m->counter(std::string("scheduler.messages.") + to_string(msg.kind))
          .add();
    }
    // Guarded so the disabled path never builds the name string: this
    // loop is the scheduler-throughput hot path.
    obs::Span span;
    current_cause_ = 0;
    const double svc = service_time(msg);
    if (obs::tracer() != nullptr) {
      span = obs::trace_span(actor_, "inbox", to_string(msg.kind));
      span.set_cause(msg.cause, msg.kind == SchedMsgKind::kUpdateData
                                    ? obs::EdgeKind::kPush
                                    : obs::EdgeKind::kMessage);
      // The span covers recv -> handled; "svc" tells the critical-path
      // engine how much of it is modelled service vs inbox queueing.
      span.add_arg(obs::arg("svc", svc));
      current_cause_ = span.id();
    }
    co_await server_.serve(svc);
    if (msg.kind == SchedMsgKind::kShutdown) {
      stopping_ = true;
      break;
    }
    co_await handle(std::move(msg));
    DEISA_ASSERT(ready_head_ == kNoKeyId,
                 "ready queue not drained by a handler");
  }
}

exec::Co<void> Scheduler::handle(SchedMsg msg) {
  switch (msg.kind) {
    case SchedMsgKind::kUpdateGraph: co_await handle_update_graph(msg); break;
    case SchedMsgKind::kTaskFinished: co_await handle_task_finished(msg); break;
    case SchedMsgKind::kUpdateData: co_await handle_update_data(msg); break;
    case SchedMsgKind::kCreateExternal: handle_create_external(msg); break;
    case SchedMsgKind::kWaitKey: co_await handle_wait_key(msg); break;
    case SchedMsgKind::kCancelKey: co_await handle_cancel(msg); break;
    case SchedMsgKind::kHeartbeatWorker:
      // The deadline the failure detector checks against. Heartbeats from
      // a worker already declared dead are counted but ignored (the seed
      // behavior for all heartbeats: service time is their whole cost).
      if (msg.worker >= 0 &&
          static_cast<std::size_t>(msg.worker) < workers_.size()) {
        if (is_dead(msg.worker)) {
          ++recovery_.stale_heartbeats;
          obs::count("scheduler.stale.heartbeats");
        } else {
          last_heartbeat_[static_cast<std::size_t>(msg.worker)] =
              engine_->now();
        }
      }
      break;
    case SchedMsgKind::kHeartbeatBridge:
      break;  // service time is their whole cost
    case SchedMsgKind::kWorkerLost: co_await handle_worker_lost(msg); break;
    case SchedMsgKind::kRepushKeys: co_await handle_repush_keys(msg); break;
    case SchedMsgKind::kRepushExpired:
      co_await handle_repush_expired(msg);
      break;
    case SchedMsgKind::kShardKeyDone:
      co_await handle_shard_key_done(msg);
      break;
    case SchedMsgKind::kShardWorkerDead:
      co_await handle_shard_worker_dead(msg);
      break;
    case SchedMsgKind::kShardKeyReleased:
      co_await handle_shard_key_released(msg);
      break;
    case SchedMsgKind::kVariableSet:
    case SchedMsgKind::kVariableGet:
      co_await handle_variable(msg);
      break;
    case SchedMsgKind::kQueuePut:
    case SchedMsgKind::kQueueGet:
      co_await handle_queue(msg);
      break;
    case SchedMsgKind::kShutdown: break;
  }
}

exec::Co<void> Scheduler::handle_update_graph(SchedMsg& msg) {
  const std::size_t n = msg.tasks.size();
  const std::size_t ndeps = static_cast<std::size_t>(spec_dep_total(msg));
  keys_.reserve(keys_.size() + n);
  records_.reserve(records_.size() + n);
  deps_pool_.reserve(deps_pool_.size() + ndeps);
  edge_pool_.reserve(edge_pool_.size() + ndeps);
  scratch_batch_.clear();
  scratch_batch_.reserve(n);
  // The whole submitted batch moves into the arena in one vector steal;
  // records point at their spec in place instead of copying it around.
  spec_arena_.push_back(std::move(msg.tasks));
  std::vector<TaskSpec>& batch = spec_arena_.back();
  // Pass 1: intern keys and create records in one batch, so intra-batch
  // dependencies resolve and no reference is invalidated by growth later.
  // The loop is software-pipelined: keys are hashed kPipe items ahead and
  // their table slots prefetched, overlapping the DRAM misses that
  // otherwise serialize one probe per insert at 10^5-task scale.
  constexpr std::size_t kPipe = 8;
  std::uint64_t hpipe[kPipe];
  for (std::size_t i = 0; i < std::min(n, kPipe); ++i) {
    hpipe[i] = KeyTable::hash_key(batch[i].key);
    keys_.prefetch(hpipe[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    TaskSpec& spec = batch[i];
    const std::uint64_t h = hpipe[i % kPipe];
    if (i + kPipe < n) {
      const std::uint64_t hn = KeyTable::hash_key(batch[i + kPipe].key);
      keys_.prefetch(hn);
      hpipe[i % kPipe] = hn;
    }
    const auto [id, fresh] = keys_.intern_hashed(h, std::move(spec.key));
    DEISA_CHECK(fresh, "task key resubmitted: " << keys_.name(id));
    TaskRecord& rec = create_record(id);
    rec.spec = &spec;
    rec.preferred_worker = spec.preferred_worker;
    rec.retries = spec.retries;
    record_created(id, rec);
    scratch_batch_.push_back(id);
  }
  // Pass 2: wire dependency edges of the records created above (and only
  // those — incremental submission must not rescan the whole table). Dep
  // strings are resolved to ids into the CSR pool; the scheduler never
  // touches them again (they stay parked in the spec arena). A tiny memo
  // short-circuits deps repeated between nearby tasks — reduction trees
  // and stencils share most deps with the previous task, so roughly half
  // the table probes disappear. A memo hit is confirmed by a string
  // compare against names_, whose line is warm from the find that
  // populated the entry, so a 64-bit hash collision can never alias two
  // keys.
  struct DepMemo {
    std::uint64_t h = 0;
    KeyId id = kNoKeyId;
  };
  DepMemo memo[4];
  std::size_t memo_rr = 0;
  const std::size_t ntasks = scratch_batch_.size();
  for (std::size_t t = 0; t < ntasks; ++t) {
    const KeyId id = scratch_batch_[t];
    const TaskSpec& spec = batch[t];
    // Records are addressed through records_[...] per use, not a held
    // reference: a cross-shard dependency below may intern a fresh
    // mirror record, growing the table mid-loop.
    records_[id].dep_off = static_cast<std::uint32_t>(deps_pool_.size());
    bool fresh = true;
    for (const Key& dep : spec.deps) {
      const std::uint64_t h = KeyTable::hash_key(dep);
      KeyId d = kNoKeyId;
      for (const DepMemo& m : memo)
        if (m.id != kNoKeyId && m.h == h && keys_.name(m.id) == dep) {
          d = m.id;
          break;
        }
      if (d == kNoKeyId) {
        d = keys_.find_hashed(h, dep);
        if (d == kNoKeyId && num_shards_ > 1 &&
            static_cast<int>(h % static_cast<std::uint64_t>(num_shards_)) !=
                shard_index_)
          d = create_remote_mirror(h, dep);
        memo[memo_rr++ % std::size(memo)] = DepMemo{h, d};
      }
      DEISA_CHECK(d != kNoKeyId,
                  "graph references unknown key '"
                      << dep << "' — without external tasks, graphs may "
                      << "only depend on data already in the cluster");
      TaskRecord& drec = records_[d];
      if (drec.state == TaskState::kErred) {
        transition(id, records_[id], TaskState::kErred);
        errors_[id] = "dependency erred: " + dep;
        fresh = false;
        break;
      }
      DEISA_CHECK(!drec.released,
                  "graph references key '" << dep
                                           << "' already released by the "
                                              "refcount GC");
      if (drec.origin == Origin::kRemote) {
        ++shard_remote_edges_;
        obs::count("scheduler.shard.remote_edges");
      }
      deps_pool_.push_back(d);
      ++records_[id].dep_count;
      // Refcount plane: charge the dep one consumer per dependent edge
      // at assignment time, regardless of its current state — the
      // consumer will read it exactly once before finishing.
      ++drec.pending_consumers;
      ++drec.ever_consumers;
      if (drec.state != TaskState::kMemory) {
        ++records_[id].nwaiting;
        add_dependent(drec, id);
      }
    }
    if (fresh && records_[id].nwaiting == 0) push_ready(id);
    // Poisoned at ingestion (erred dep): the task is terminal before it
    // ever ran, so return the consumer charges on the deps it did take.
    if (!fresh) co_await release_task_inputs(records_[id]);
  }
  // Owner-side half of the cross-shard protocol: register (or
  // immediately answer) the subscriptions piggybacked on this slice.
  // After both passes, so intra-batch producers are interned.
  if (!msg.sub_keys.empty()) co_await process_shard_subscriptions(msg);
  co_await drain_ready();
}

KeyId Scheduler::create_remote_mirror(std::uint64_t h, const Key& dep) {
  const auto [id, fresh] = keys_.intern_hashed(h, Key(dep));
  DEISA_ASSERT(fresh, "mirror for known key " << dep);
  TaskRecord& rec = create_record(id);
  rec.origin = Origin::kRemote;
  rec.state = TaskState::kExternal;
  record_created(id, rec);
  return id;
}

exec::Co<void> Scheduler::process_shard_subscriptions(SchedMsg& msg) {
  DEISA_CHECK(msg.sub_keys.size() == msg.sub_shards.size(),
              "sub_keys/sub_shards length mismatch: "
                  << msg.sub_keys.size() << " vs " << msg.sub_shards.size());
  DEISA_CHECK(msg.sub_counts.empty() ||
                  msg.sub_counts.size() == msg.sub_keys.size(),
              "sub_counts length mismatch: " << msg.sub_counts.size()
                                             << " vs " << msg.sub_keys.size());
  for (std::size_t i = 0; i < msg.sub_keys.size(); ++i) {
    const Key& key = msg.sub_keys[i];
    const int sub = msg.sub_shards[i];
    DEISA_CHECK(sub >= 0 && sub < num_shards_ && sub != shard_index_,
                "bad subscriber shard " << sub << " for key " << key);
    const KeyId id = keys_.find(key);
    // FIFO channel order guarantees the producer's slice (same message)
    // or an earlier RPC from the same client already interned the key.
    DEISA_CHECK(id != kNoKeyId,
                "cross-shard subscription to unknown key '" << key << "'");
    TaskRecord& rec = records_[id];
    // Refcount plane: the subscriber's slice charges `count` consumer
    // edges against this key from shard `sub`; they drain back through
    // kShardKeyReleased once those consumers reach a terminal state.
    const int count = i < msg.sub_counts.size() ? msg.sub_counts[i] : 0;
    if (count > 0 && params_.release_consumed) {
      DEISA_CHECK(!rec.released,
                  "cross-shard graph references key '"
                      << key << "' already released by the refcount GC");
      rec.ever_consumers += count;
      const auto [cit, fresh] = shard_remote_counts_.try_emplace(id, 0);
      cit->second += count;
      if (cit->second == 0) {
        // The drain ack outran this slice (different channels): the
        // balance parked negative and blocked the release; it is settled
        // now, so this charge is also the release trigger.
        shard_remote_counts_.erase(cit);
        co_await maybe_release(id, rec);
      }
    }
    // Register the subscriber persistently — even when the key is
    // already terminal: a key recovered after worker loss re-announces
    // its fresh completion through the same list.
    auto& subs = shard_subs_[id];
    if (std::find(subs.begin(), subs.end(), sub) == subs.end())
      subs.push_back(sub);
    const TaskState st = records_[id].state;
    if (st == TaskState::kMemory || st == TaskState::kErred)
      co_await notify_one_shard(sub, id, st == TaskState::kErred);
  }
}

exec::Co<void> Scheduler::notify_one_shard(int shard, KeyId id, bool erred) {
  const TaskRecord& rec = records_[id];
  SchedMsg m(SchedMsgKind::kShardKeyDone);
  m.key = keys_.name(id);
  m.worker = rec.worker;
  m.bytes = rec.bytes;
  m.erred = erred;
  if (erred) {
    const auto it = errors_.find(id);
    if (it != errors_.end()) m.error = it->second;
  }
  m.sender_node = node_;
  m.cause = current_cause_;
  ++shard_notify_msgs_;
  obs::count("scheduler.shard.notify_msgs");
  exec::Channel<SchedMsg>* peer = shard_peers_[static_cast<std::size_t>(shard)];
  DEISA_ASSERT(peer != nullptr, "no inbox for shard " << shard);
  // Shards are co-located on the scheduler node; the notification still
  // pays the intra-node control cost of an actor-to-actor message.
  co_await cluster_->send_control(node_, node_, wire_bytes(m));
  peer->send(std::move(m));
}

exec::Co<void> Scheduler::notify_shard_subscribers(KeyId id) {
  if (num_shards_ <= 1) co_return;
  const auto it = shard_subs_.find(id);
  if (it == shard_subs_.end()) co_return;
  // The subscription list is persistent (not drained): when worker loss
  // re-arms this key and lineage recovery completes it again, the fresh
  // kShardKeyDone re-announces the new location to every subscriber.
  const bool erred = records_[id].state == TaskState::kErred;
  for (const int s : it->second) co_await notify_one_shard(s, id, erred);
}

exec::Co<void> Scheduler::handle_shard_key_done(SchedMsg& msg) {
  KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) {
    // The notification outran this shard's slice of the client batch
    // (the owner ran its slice to completion first): register the
    // remote key as already done — the late slice resolves it as a
    // satisfied (or erred) dependency.
    id = keys_.intern(std::move(msg.key)).first;
    TaskRecord& rec = create_record(id);
    rec.origin = Origin::kRemote;
    if (msg.erred) {
      rec.state = TaskState::kErred;
      errors_[id] = msg.error;
    } else {
      rec.state = TaskState::kMemory;
      rec.worker = msg.worker;
      rec.bytes = msg.bytes;
      rec.done_cause = current_cause_;
      if (msg.worker >= 0 &&
          static_cast<std::size_t>(msg.worker) < has_what_.size())
        has_what_[static_cast<std::size_t>(msg.worker)].insert(id);
    }
    record_created(id, rec);
    co_return;
  }
  TaskRecord& rec = records_[id];
  DEISA_ASSERT(rec.origin == Origin::kRemote,
               "shard_key_done for locally owned key " << msg.key);
  if (rec.state == TaskState::kErred) co_return;  // terminal: duplicate
  if (rec.state == TaskState::kMemory) {
    // A re-announcement (or a notification that outran the death
    // broadcast for this mirror's worker): refresh the cached location
    // so assigns and recovery see where the bytes actually live now.
    if (rec.worker >= 0 &&
        static_cast<std::size_t>(rec.worker) < has_what_.size())
      has_what_[static_cast<std::size_t>(rec.worker)].erase(id);
    if (msg.erred) {
      // The owner lost the key unrecoverably after announcing it.
      co_await poison_task(id, msg.error);
      co_return;
    }
    rec.worker = msg.worker;
    rec.bytes = msg.bytes;
    if (msg.worker >= 0 &&
        static_cast<std::size_t>(msg.worker) < has_what_.size())
      has_what_[static_cast<std::size_t>(msg.worker)].insert(id);
    co_return;
  }
  if (msg.erred) {
    co_await poison_task(id, msg.error);
  } else {
    co_await finish_task(id, rec, msg.worker, msg.bytes, false, {});
  }
}

exec::Co<void> Scheduler::release_task_inputs(TaskRecord& rec) {
  if (rec.inputs_released) co_return;
  rec.inputs_released = true;
  if (!params_.release_consumed) co_return;
  for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
    const KeyId d = deps_pool_[rec.dep_off + i];
    TaskRecord& drec = records_[d];
    DEISA_ASSERT(drec.pending_consumers > 0,
                 "refcount underflow on " << keys_.name(d));
    --drec.pending_consumers;
    co_await maybe_release(d, drec);
  }
}

exec::Co<void> Scheduler::maybe_release(KeyId id, TaskRecord& rec) {
  if (!params_.release_consumed) co_return;
  if (rec.origin == Origin::kRemote) {
    // Subscriber side of the cross-shard refcount: a mirror is never
    // released locally — the owner shard holds the authoritative count.
    // Once every local consumer charged against the mirror has drained,
    // return the charges with a consumer-drain ack; the owner releases
    // iff its local AND remote consumers are all accounted for.
    if (rec.pending_consumers != 0) co_return;
    int& acked = shard_drain_acked_[id];
    if (rec.ever_consumers <= acked) co_return;
    const int count = rec.ever_consumers - acked;
    acked = rec.ever_consumers;
    const Key& name = keys_.name(id);
    const int owner = static_cast<int>(
        KeyTable::hash_key(name) % static_cast<std::uint64_t>(num_shards_));
    DEISA_ASSERT(owner != shard_index_,
                 "remote mirror " << name << " owned by this shard");
    SchedMsg m(SchedMsgKind::kShardKeyReleased);
    m.key = name;
    m.bytes = static_cast<std::uint64_t>(count);
    m.sender_node = node_;
    m.cause = current_cause_;
    ++shard_release_acks_;
    obs::count("scheduler.shard.release_acks");
    exec::Channel<SchedMsg>* peer =
        shard_peers_[static_cast<std::size_t>(owner)];
    DEISA_ASSERT(peer != nullptr, "no inbox for shard " << owner);
    // Enqueue before charging the control cost: the client may observe the
    // consumer's completion (release_waiters runs first in finish_task) and
    // enqueue kShutdown in this very tick — landing the ack in the owner's
    // FIFO inbox now guarantees it is processed before that shutdown, so
    // the final step of a run drains exactly like every other step. The
    // intra-node control cost is still accounted against the network model.
    const std::size_t ack_bytes = wire_bytes(m);
    peer->send(std::move(m));
    co_await cluster_->send_control(node_, node_, ack_bytes);
    co_return;
  }
  if (rec.released || rec.state != TaskState::kMemory) co_return;
  // Never release a key that still has (or could get) readers: a pending
  // consumer holds a charge until it reaches a terminal state, a key
  // nothing ever consumed is a gather target or a leaf, and a blocked
  // wait_key means a client is about to fetch it.
  if (rec.ever_consumers == 0 || rec.pending_consumers > 0) co_return;
  // Cross-shard consumers: a non-zero balance means remote charges are
  // still outstanding (positive) or a drain ack outran its charging
  // slice (negative) — either way the release must wait.
  if (const auto it = shard_remote_counts_.find(id);
      it != shard_remote_counts_.end() && it->second != 0)
    co_return;
  if (waiters_.count(id) != 0) co_return;
  if (rec.worker < 0 || worker_is_dead(rec.worker)) co_return;
  rec.released = true;
  ++keys_released_;
  has_what_[static_cast<std::size_t>(rec.worker)].erase(id);
  if (auto* m = obs::metrics()) {
    m->counter("scheduler.gc.keys_released").add();
    m->counter("scheduler.gc.bytes_released").add(rec.bytes);
  }
  obs::trace_instant(actor_, "gc", "release:" + keys_.name(id));
  // Tell the owner to drop its store copy. State stays kMemory: the
  // release is a storage fact, and the record keeps answering metadata
  // queries.
  const WorkerRef& ref = workers_[static_cast<std::size_t>(rec.worker)];
  const Key& name = keys_.name(id);
  co_await cluster_->send_control(node_, ref.node,
                                  kControlMsgBase + name.size());
  WorkerMsg m(WorkerMsgKind::kReleaseKey);
  m.key = name;
  m.cause = current_cause_;
  ref.inbox->send(std::move(m));
}

exec::Co<void> Scheduler::handle_shard_key_released(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  DEISA_CHECK(id != kNoKeyId,
              "consumer-drain ack for unknown key '" << msg.key << "'");
  TaskRecord& rec = records_[id];
  DEISA_ASSERT(rec.origin != Origin::kRemote,
               "consumer-drain ack routed to a subscriber shard for "
                   << msg.key);
  const int count = static_cast<int>(msg.bytes);
  const auto [it, fresh] = shard_remote_counts_.try_emplace(id, 0);
  it->second -= count;
  // A drain ack can outrun the subscription slice that charges its batch
  // (they travel on different channels): the balance parks negative and
  // the release stays blocked until the slice settles it back to zero.
  if (it->second == 0) shard_remote_counts_.erase(it);
  co_await maybe_release(id, rec);
}

int Scheduler::pick_live_worker() {
  DEISA_CHECK(live_workers() > 0, "no live workers left");
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const int w = static_cast<int>(rr_next_worker_++ % workers_.size());
    if (!is_dead(w)) return w;
  }
  return -1;  // unreachable: the check above guarantees a live worker
}

int Scheduler::decide_worker(const TaskRecord& rec) {
  DEISA_CHECK(!workers_.empty(), "no workers attached to scheduler");
  if (rec.preferred_worker >= 0) {
    DEISA_CHECK(static_cast<std::size_t>(rec.preferred_worker) <
                    workers_.size(),
                "preferred worker out of range");
    // A dead preferred worker falls through to locality instead of
    // assigning work to a corpse.
    if (!is_dead(rec.preferred_worker)) return rec.preferred_worker;
  }
  // Locality: which live workers already hold input bytes, accumulated
  // on two parallel scratch arrays in dep order (a task has a handful of
  // deps; dead owners and unplaced deps are filtered here so only live
  // candidates are ranked). No positive-byte owner -> the shared
  // rotation, the same cursor the recovery re-routing paths advance.
  scratch_owner_.clear();
  scratch_owner_bytes_.clear();
  for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
    const TaskRecord& drec = records_[deps_pool_[rec.dep_off + i]];
    const int w = drec.worker;
    if (w < 0 || worker_is_dead(w)) continue;
    std::size_t j = 0;
    while (j < scratch_owner_.size() && scratch_owner_[j] != w) ++j;
    if (j == scratch_owner_.size()) {
      scratch_owner_.push_back(w);
      scratch_owner_bytes_.push_back(0);
    }
    scratch_owner_bytes_[j] += drec.bytes;
  }
  const int w = locality_owner(scratch_owner_, scratch_owner_bytes_);
  return w >= 0 ? w : pick_live_worker();
}

exec::Co<void> Scheduler::assign(KeyId id) {
  TaskRecord& rec = records_[id];
  DEISA_ASSERT(rec.state == TaskState::kReady,
               "assigning task in state " << to_string(rec.state));
  DEISA_ASSERT(rec.spec != nullptr,
               "assigning specless task " << keys_.name(id));
  const int w = decide_worker(rec);
  rec.worker = w;
  transition(id, rec, TaskState::kProcessing);
  WorkerMsg m(WorkerMsgKind::kCompute);
  // Field-wise copy: the dep strings stay scheduler-side (workers consume
  // m.deps below), so assignment never re-serializes the dependency list.
  const TaskSpec& s = *rec.spec;
  m.spec.key = keys_.name(id);  // rebuilt at the wire boundary
  m.spec.fn = s.fn;
  m.spec.io = s.io;
  m.spec.cost = s.cost;
  m.spec.out_bytes = s.out_bytes;
  m.spec.preferred_worker = rec.preferred_worker;
  m.spec.retries = rec.retries;
  m.cause = current_cause_;
  m.deps.reserve(rec.dep_count);
  for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
    const KeyId d = deps_pool_[rec.dep_off + i];
    const TaskRecord& drec = records_[d];
    m.deps.emplace_back(keys_.name(d), drec.worker, drec.bytes,
                        drec.done_cause);
  }
  const WorkerRef& ref = workers_[static_cast<std::size_t>(w)];
  co_await cluster_->send_control(node_, ref.node, 512 + m.deps.size() * 48);
  ref.inbox->send(std::move(m));
}

exec::Co<void> Scheduler::poison_task(KeyId id, const std::string& error) {
  TaskRecord& rec = records_[id];
  if (rec.state != TaskState::kErred) {
    transition(id, rec, TaskState::kErred);
    errors_[id] = error;
    co_await release_waiters(id, kAckErred);
    if (num_shards_ > 1) co_await notify_shard_subscribers(id);
    // Erred is terminal (retries were exhausted upstream): the task will
    // never read its inputs, so return their consumer charges.
    co_await release_task_inputs(rec);
  }
  // Poison the whole downstream cone, replying to any waiters so blocked
  // clients observe the failure instead of hanging.
  std::vector<KeyId> poison;
  take_dependents(rec, poison);
  std::vector<KeyId> next;
  while (!poison.empty()) {
    const KeyId dk = poison.back();
    poison.pop_back();
    TaskRecord& drec = records_[dk];
    if (drec.state == TaskState::kErred || drec.state == TaskState::kMemory)
      continue;
    transition(dk, drec, TaskState::kErred);
    errors_[dk] = "dependency erred: " + keys_.name(id);
    co_await release_waiters(dk, kAckErred);
    if (num_shards_ > 1) co_await notify_shard_subscribers(dk);
    co_await release_task_inputs(drec);
    take_dependents(drec, next);
    poison.insert(poison.end(), next.begin(), next.end());
  }
}

exec::Co<void> Scheduler::release_waiters(KeyId id, int value) {
  const auto it = waiters_.find(id);
  if (it == waiters_.end()) co_return;
  WaiterList wl = std::move(it->second);
  waiters_.erase(it);
  // Waiters chain onto the handling span that released them — for a
  // normal completion that is the task_finished/update_data span, whose
  // own cause is the producing execute/push span.
  for (std::size_t i = 0; i < wl.chans.size(); ++i)
    co_await reply_ack(wl.chans[i], wl.nodes[i], value, current_cause_);
}

exec::Co<void> Scheduler::finish_task(KeyId id, TaskRecord& rec, int worker,
                                     std::uint64_t bytes, bool erred,
                                     const std::string& error) {
  if (erred) {
    co_await poison_task(id, error);
    co_return;
  }
  rec.worker = worker;
  rec.bytes = bytes;
  transition(id, rec, TaskState::kMemory);
  rec.done_cause = current_cause_;
  errors_.erase(id);
  if (worker >= 0 && static_cast<std::size_t>(worker) < has_what_.size())
    has_what_[static_cast<std::size_t>(worker)].insert(id);
  // Cross-shard half of the completion cascade: subscriber shards get
  // kShardKeyDone before local waiters/dependents are serviced, so both
  // sides observe the completion in the same causal order.
  if (num_shards_ > 1) co_await notify_shard_subscribers(id);
  // Refcount plane: this task has read its inputs for the last time —
  // return the charges, releasing any input whose last consumer it was.
  // This runs BEFORE waiters wake: a client observing this completion may
  // shut the runtime down in direct response (the last step of a run), and
  // any cross-shard drain ack must already sit in the owner's FIFO inbox
  // by then or the final release is lost on both substrates.
  co_await release_task_inputs(rec);
  // Wake clients blocked in wait_key/gather.
  co_await release_waiters(id, worker);
  // Unblock dependents (standard task-finished stimulus; external tasks
  // reuse exactly this path — the point of §2.2).
  take_dependents(rec, scratch_dependents_);
  for (const KeyId dk : scratch_dependents_) {
    TaskRecord& drec = records_[dk];
    if (drec.state == TaskState::kWaiting && --drec.nwaiting == 0)
      push_ready(dk);
  }
  co_await drain_ready();
  // Covers the consumers-finished-first edge: if every consumer of this
  // key reached a terminal state before the key itself completed (e.g.
  // they were poisoned), its refcount is already zero on arrival.
  co_await maybe_release(id, rec);
}

exec::Co<void> Scheduler::handle_task_finished(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) {
    ++recovery_.stale_task_finished;
    obs::count("scheduler.stale.task_finished");
    co_return;
  }
  TaskRecord& rec = records_[id];
  // Stale guard: only the worker currently assigned may report the task,
  // and only while it is processing. Anything else — a report for a task
  // cancelled/poisoned meanwhile (the old erred→memory resurrection bug),
  // a report from a worker the task was re-assigned away from, or a
  // fault-duplicated delivery — is dropped here, never reaching an
  // illegal transition.
  if (rec.state != TaskState::kProcessing || rec.worker != msg.worker) {
    ++recovery_.stale_task_finished;
    obs::count("scheduler.stale.task_finished");
    obs::trace_instant(actor_, "recovery", "stale_finish:" + msg.key);
    co_return;
  }
  ++rec.attempts;
  if (msg.erred && rec.attempts <= rec.retries) {
    // Transient failure: re-run (dask's `retries=` semantics). The task
    // returns to ready and is re-assigned (possibly elsewhere). The stale
    // guard above makes this always a processing→ready edge — the retry
    // path can no longer lift a task out of erred.
    ++retries_performed_;
    obs::count("scheduler.retries");
    push_ready(id);
    co_await drain_ready();
    co_return;
  }
  rec.origin = Origin::kComputed;
  co_await finish_task(id, rec, msg.worker, msg.bytes, msg.erred, msg.error);
}

exec::Co<int> Scheduler::update_data_one(Key key, int worker,
                                        std::uint64_t bytes, bool external,
                                        int sender_client) {
  int ack = worker;
  KeyId id = keys_.find(key);
  if (id == kNoKeyId) {
    if (worker_is_dead(worker)) {
      // The scatter raced a worker crash: the payload landed nowhere.
      // Register the key as erred so consumers fail fast instead of
      // waiting on data that does not exist.
      id = keys_.intern(std::move(key)).first;
      TaskRecord& rec = create_record(id);
      rec.origin = Origin::kScattered;
      rec.state = TaskState::kErred;
      errors_[id] = "scattered to lost worker " + std::to_string(worker);
      record_created(id, rec);
      ++recovery_.keys_lost;
      obs::count("scheduler.recovery.keys_lost");
      ack = kAckErred;
    } else {
      // Plain scatter of a fresh key: register it directly in memory.
      id = keys_.intern(std::move(key)).first;
      TaskRecord& rec = create_record(id);
      rec.origin = Origin::kScattered;
      rec.state = TaskState::kMemory;
      rec.worker = worker;
      rec.bytes = bytes;
      rec.pusher_client = sender_client;
      record_created(id, rec);
      if (worker >= 0 && static_cast<std::size_t>(worker) < has_what_.size())
        has_what_[static_cast<std::size_t>(worker)].insert(id);
    }
  } else {
    TaskRecord& rec = records_[id];
    switch (rec.state) {
      case TaskState::kErred:
        // Push to a cancelled/poisoned key (the old DEISA_CHECK abort):
        // acknowledge and discard so the producer keeps stepping.
        ++recovery_.stale_update_data;
        obs::count("scheduler.stale.update_data");
        obs::trace_instant(actor_, "recovery", "stale_push:" + key);
        ack = kAckDiscarded;
        break;
      case TaskState::kExternal: {
        DEISA_CHECK(external,
                    "key " << key
                           << " is an external task; plain scatter cannot "
                              "complete it");
        rec.origin = Origin::kExternal;
        rec.pusher_client = sender_client;
        if (worker_is_dead(worker)) {
          // The block was pushed at a worker that is being replaced: the
          // data never landed. Re-route the preselection and schedule a
          // re-push from this producer's replay buffer.
          ++rec.rearm_epoch;
          if (rec.preferred_worker < 0 || worker_is_dead(rec.preferred_worker))
            rec.preferred_worker = pick_live_worker();
          repush_[sender_client].push_back(id);
          engine_->spawn(repush_deadline(key, rec.rearm_epoch));
          ++recovery_.external_rearmed;
          obs::count("scheduler.recovery.external_rearmed");
          ack = kAckRepushPending;
        } else {
          // external -> memory, then the normal finished-task cascade.
          co_await finish_task(id, rec, worker, bytes, false, {});
        }
        break;
      }
      case TaskState::kMemory:
        if (external) {
          // Duplicate delivery of a push that already completed the key
          // (fault duplication, or a replay racing the original).
          ++recovery_.stale_update_data;
          obs::count("scheduler.stale.update_data");
          ack = kAckDiscarded;
        } else {
          // Re-scatter of an existing key: refresh location. Fresh bytes
          // landed, so a GC release from a previous round is undone.
          if (rec.worker >= 0 &&
              static_cast<std::size_t>(rec.worker) < has_what_.size())
            has_what_[static_cast<std::size_t>(rec.worker)].erase(id);
          rec.worker = worker;
          rec.bytes = bytes;
          rec.released = false;
          if (worker >= 0 &&
              static_cast<std::size_t>(worker) < has_what_.size())
            has_what_[static_cast<std::size_t>(worker)].insert(id);
        }
        break;
      default:
        DEISA_CHECK(false, "update_data on key '" << key << "' in state "
                                                  << to_string(rec.state));
    }
  }
  co_return ack;
}

exec::Co<void> Scheduler::handle_update_data(SchedMsg& msg) {
  if (msg.notify != nullptr) producer_notify_[msg.sender_client] = msg.notify;
  if (!msg.keys.empty() || msg.reply_acks != nullptr) {
    // Coalesced bridge push: register every (keys[i], sizes[i]) pair on
    // `worker` in one message and reply the per-key acks together — one
    // registration RPC per (rank, worker, timestep) instead of one per
    // block.
    DEISA_CHECK(msg.keys.size() == msg.sizes.size(),
                "batched update_data keys/sizes length mismatch: "
                    << msg.keys.size() << " vs " << msg.sizes.size());
    std::vector<int> acks;
    acks.reserve(msg.keys.size());
    for (std::size_t i = 0; i < msg.keys.size(); ++i)
      acks.push_back(co_await update_data_one(std::move(msg.keys[i]),
                                              msg.worker, msg.sizes[i],
                                              msg.external,
                                              msg.sender_client));
    // Pending re-push assignments piggyback on every non-erred ack, as
    // on the single-key path.
    const auto rit = repush_.find(msg.sender_client);
    if (rit != repush_.end() && !rit->second.empty())
      for (int& a : acks)
        if (a != kAckErred) a = kAckRepushPending;
    if (msg.reply_acks != nullptr) {
      co_await cluster_->send_control(
          node_, msg.sender_node,
          kControlMsgBase + acks.size() * sizeof(int));
      msg.reply_acks->send(std::move(acks));
    }
    co_return;
  }
  int ack = co_await update_data_one(std::move(msg.key), msg.worker,
                                     msg.bytes, msg.external,
                                     msg.sender_client);
  // Pending re-push assignments for this producer piggyback on the ack:
  // the producer must follow up with kRepushKeys and replay the blocks.
  const auto rit = repush_.find(msg.sender_client);
  if (rit != repush_.end() && !rit->second.empty() && ack != kAckErred)
    ack = kAckRepushPending;
  // scatter is a synchronous RPC: the caller blocks until the scheduler
  // has registered the data. Under DEISA1's per-timestep metadata load
  // this acknowledgement queues behind everything else — the source of
  // the communication-time inflation and variability in Figures 2a/3a/5.
  if (msg.reply_worker != nullptr)
    co_await reply_ack(msg.reply_worker, msg.sender_node, ack, current_cause_);
}

void Scheduler::handle_create_external(SchedMsg& msg) {
  DEISA_CHECK(msg.preferred_workers.empty() ||
                  msg.preferred_workers.size() == msg.keys.size(),
              "preferred_workers must be empty or match keys");
  const std::size_t n = msg.keys.size();
  keys_.reserve(keys_.size() + n);
  records_.reserve(records_.size() + n);
  // Same hash-ahead pipeline as update_graph pass 1.
  constexpr std::size_t kPipe = 8;
  std::uint64_t hpipe[kPipe];
  for (std::size_t i = 0; i < std::min(n, kPipe); ++i) {
    hpipe[i] = KeyTable::hash_key(msg.keys[i]);
    keys_.prefetch(hpipe[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = hpipe[i % kPipe];
    if (i + kPipe < n) {
      const std::uint64_t hn = KeyTable::hash_key(msg.keys[i + kPipe]);
      keys_.prefetch(hn);
      hpipe[i % kPipe] = hn;
    }
    const auto [id, fresh] = keys_.intern_hashed(h, std::move(msg.keys[i]));
    DEISA_CHECK(fresh, "external task key already exists: " << keys_.name(id));
    TaskRecord& rec = create_record(id);
    rec.origin = Origin::kExternal;
    if (!msg.preferred_workers.empty()) {
      int pw = msg.preferred_workers[i];
      if (pw >= 0 && worker_is_dead(pw)) {
        // Preselection targets a worker that has since died: re-route at
        // creation so the producer is never told to push at a corpse.
        pw = pick_live_worker();
        ++recovery_.external_rerouted;
        obs::count("scheduler.recovery.external_rerouted");
      }
      rec.preferred_worker = pw;
    }
    rec.state = TaskState::kExternal;
    record_created(id, rec);
  }
}

exec::Co<void> Scheduler::handle_wait_key(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  DEISA_CHECK(id != kNoKeyId, "wait on unknown key: " << msg.key);
  TaskRecord& rec = records_[id];
  if (rec.state == TaskState::kMemory) {
    // Already done: the reply's provenance is the completion, not this
    // wait — done_cause is the handling span that put it in memory.
    co_await reply_ack(msg.reply_worker, msg.sender_node, rec.worker,
                       rec.done_cause);
  } else if (rec.state == TaskState::kErred) {
    co_await reply_ack(msg.reply_worker, msg.sender_node, -2, current_cause_);
  } else {
    WaiterList& wl = waiters_[id];
    wl.chans.push_back(msg.reply_worker);
    wl.nodes.push_back(msg.sender_node);
  }
}

exec::Co<void> Scheduler::handle_cancel(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  DEISA_CHECK(id != kNoKeyId, "cancel of unknown key: " << msg.key);
  TaskRecord& rec = records_[id];
  // Finished work is left in place (dask semantics: cancel is advisory
  // for completed futures); anything not yet in memory is poisoned.
  if (rec.state != TaskState::kMemory && rec.state != TaskState::kErred)
    co_await finish_task(id, rec, -1, 0, /*erred=*/true,
                         "cancelled by client");
  if (msg.reply_worker != nullptr)
    co_await reply_ack(msg.reply_worker, msg.sender_node, 0, current_cause_);
}

exec::Co<void> Scheduler::handle_variable(SchedMsg& msg) {
  VariableSlot& slot = variables_[msg.name];
  if (msg.kind == SchedMsgKind::kVariableSet) {
    slot.set = true;
    slot.value = std::move(msg.payload);
    for (auto& [ch, node] : slot.waiters)
      co_await reply_data(ch, node, slot.value);
    slot.waiters.clear();
    co_return;
  }
  if (slot.set) {
    co_await reply_data(msg.reply_data, msg.sender_node, slot.value);
  } else {
    slot.waiters.emplace_back(msg.reply_data, msg.sender_node);
  }
}

exec::Co<void> Scheduler::handle_queue(SchedMsg& msg) {
  QueueSlot& slot = queues_[msg.name];
  if (msg.kind == SchedMsgKind::kQueuePut) {
    if (!slot.waiters.empty()) {
      auto [ch, node] = slot.waiters.front();
      slot.waiters.pop_front();
      co_await reply_data(ch, node, std::move(msg.payload));
    } else {
      slot.items.push_back(std::move(msg.payload));
    }
    // Queue.put is a synchronous RPC in dask: acknowledge the producer.
    if (msg.reply_worker != nullptr)
      co_await reply_ack(msg.reply_worker, msg.sender_node, 0,
                         current_cause_);
    co_return;
  }
  if (!slot.items.empty()) {
    Data d = std::move(slot.items.front());
    slot.items.pop_front();
    co_await reply_data(msg.reply_data, msg.sender_node, std::move(d));
  } else {
    slot.waiters.emplace_back(msg.reply_data, msg.sender_node);
  }
}

exec::Co<void> Scheduler::run_failure_detector() {
  if (params_.heartbeat_timeout <= 0.0) co_return;
  // Heartbeats are keyless, so workers route them to shard 0: it is the
  // liveness authority. Peer shards must not run deadline scans over
  // heartbeats they never receive (every worker would look dead); they
  // learn of deaths through the kShardWorkerDead broadcast instead.
  if (num_shards_ > 1 && shard_index_ != 0) co_return;
  const double interval = params_.heartbeat_timeout / 4.0;
  // Workers that have not heartbeated yet are measured from arming time,
  // so a worker that dies before its first heartbeat is still detected.
  const double armed_at = engine_->now();
  while (!stopping_) {
    co_await engine_->delay(interval);
    if (stopping_) co_return;
    const double now = engine_->now();
    for (const WorkerRef& ref : workers_) {
      const auto w = static_cast<std::size_t>(ref.id);
      if (dead_[w] != 0 || suspected_[w] != 0) continue;
      const double hb = last_heartbeat_[w];
      const double last = hb < 0.0 ? armed_at : hb;
      if (now - last <= params_.heartbeat_timeout) continue;
      // Report through the scheduler's own inbox so recovery serializes
      // with every other handler instead of mutating records mid-flight.
      suspected_[w] = 1;
      obs::count("scheduler.recovery.suspected");
      obs::trace_instant(actor_, "recovery",
                         "suspect:worker-" + std::to_string(ref.id));
      SchedMsg m(SchedMsgKind::kWorkerLost);
      m.worker = ref.id;
      m.sender_node = node_;
      inbox_.send(std::move(m));
    }
  }
}

exec::Co<void> Scheduler::handle_worker_lost(SchedMsg& msg) {
  const int w = msg.worker;
  if (w < 0 || static_cast<std::size_t>(w) >= workers_.size()) co_return;
  suspected_[static_cast<std::size_t>(w)] = 0;
  if (is_dead(w)) co_return;
  // A heartbeat may have slipped in while this report queued: re-check
  // the deadline before declaring the worker dead.
  const double hb = last_heartbeat_[static_cast<std::size_t>(w)];
  if (hb >= 0.0 && engine_->now() - hb <= params_.heartbeat_timeout)
    co_return;
  DEISA_CHECK(live_workers() > 1,
              "worker " << w << " lost and no surviving worker to recover "
                        << "onto");
  dead_[static_cast<std::size_t>(w)] = 1;
  ++dead_count_;
  ++recovery_.workers_lost;
  obs::count("scheduler.recovery.workers_lost");
  obs::trace_instant(actor_, "recovery",
                     "worker_lost:worker-" + std::to_string(w));
  DEISA_TRACE("scheduler", "worker " << w << " declared lost; recovering");
  if (num_shards_ > 1) {
    // Liveness authority: broadcast the death (epoch in `bytes`) before
    // running local recovery, so peer shards start recovering their own
    // records — mirrors included — as early as possible. Deaths are
    // monotone (workers never rejoin) and the epoch only moves forward,
    // so a stale or duplicated report can never re-kill a worker whose
    // recovery a peer already ran (DESIGN.md §5j).
    const std::uint64_t epoch = ++shard_death_epoch_;
    for (int s = 0; s < num_shards_; ++s) {
      if (s == shard_index_) continue;
      SchedMsg m(SchedMsgKind::kShardWorkerDead);
      m.worker = w;
      m.bytes = epoch;
      m.sender_node = node_;
      m.cause = current_cause_;
      co_await cluster_->send_control(node_, node_, wire_bytes(m));
      shard_peers_[static_cast<std::size_t>(s)]->send(std::move(m));
    }
  }
  co_await recover_worker(w);
}

exec::Co<void> Scheduler::handle_shard_worker_dead(SchedMsg& msg) {
  const int w = msg.worker;
  if (w < 0 || static_cast<std::size_t>(w) >= workers_.size()) co_return;
  // Epoch guard: drop anything at or below the last death this shard
  // processed, and anything about a worker already marked dead. With
  // FIFO delivery from shard 0 this only fires on duplicated or stale
  // reports, but it makes the broadcast safely idempotent either way.
  if (msg.bytes <= shard_last_death_epoch_ || is_dead(w)) co_return;
  shard_last_death_epoch_ = msg.bytes;
  dead_[static_cast<std::size_t>(w)] = 1;
  ++dead_count_;
  // recovery_.workers_lost stays untouched here: shard 0 counted the
  // death once; per-shard sums must equal the single-scheduler count.
  obs::count("scheduler.shard.worker_dead");
  obs::trace_instant(actor_, "recovery",
                     "shard_worker_dead:worker-" + std::to_string(w));
  co_await recover_worker(w);
}

exec::Co<void> Scheduler::recover_worker(int w) {
  obs::Span span;
  if (obs::tracer() != nullptr)
    span = obs::trace_span(actor_, "recovery",
                           "recover:worker-" + std::to_string(w));
  // Phase 1: classify every key whose data lived on the dead worker. The
  // has-what index hands them over directly (sorted for deterministic
  // event ordering) — no scan of the full record table.
  auto& held = has_what_[static_cast<std::size_t>(w)];
  std::vector<KeyId> lost_ids(held.begin(), held.end());
  held.clear();
  std::sort(lost_ids.begin(), lost_ids.end());
  std::vector<std::uint8_t> lost(records_.size(), 0);
  std::vector<std::pair<KeyId, std::string>> to_poison;
  std::vector<KeyId> rearmed;
  for (const KeyId id : lost_ids) {
    TaskRecord& rec = records_[id];
    DEISA_ASSERT(rec.state == TaskState::kMemory && rec.worker == w,
                 "has-what index out of sync on " << keys_.name(id));
    lost[id] = 1;
    switch (rec.origin) {
      case Origin::kComputed:
        // Lineage exists: re-run the task once its inputs are back.
        transition(id, rec, TaskState::kWaiting);
        rec.worker = -1;
        rec.bytes = 0;
        rec.nwaiting = 0;
        ++recovery_.keys_recomputed;
        obs::count("scheduler.recovery.keys_recomputed");
        break;
      case Origin::kExternal:
        // The producer still holds the block: re-arm the external state
        // and schedule a re-push at a surviving worker.
        transition(id, rec, TaskState::kExternal);
        rec.worker = -1;
        rec.bytes = 0;
        rec.nwaiting = 0;
        ++rec.rearm_epoch;
        rec.preferred_worker = pick_live_worker();
        rearmed.push_back(id);
        ++recovery_.external_rearmed;
        obs::count("scheduler.recovery.external_rearmed");
        break;
      case Origin::kScattered:
        // No lineage and no re-push protocol: unrecoverable. Poisoned
        // below, after dependent edges are rebuilt, so the cascade
        // reaches every consumer.
        to_poison.emplace_back(
            id, "scattered data lost with worker " + std::to_string(w));
        ++recovery_.keys_lost;
        obs::count("scheduler.recovery.keys_lost");
        break;
      case Origin::kRemote:
        // Mirror of a key owned by another shard: the owner recovers the
        // actual data (lineage, re-push, or poison) and re-announces the
        // outcome through its persistent subscription list. Park the
        // mirror back in external so the fresh kShardKeyDone completes
        // it again with the new location.
        transition(id, rec, TaskState::kExternal);
        rec.worker = -1;
        rec.bytes = 0;
        rec.nwaiting = 0;
        ++recovery_.mirrors_rearmed;
        obs::count("scheduler.recovery.mirrors_rearmed");
        break;
    }
  }
  // Phase 2: rebuild consumer edges and restart derailed in-flight work.
  // A finished key's dependent edges were cleared when it completed, so
  // consumers of lost keys are rediscovered from the CSR dep slices —
  // one flat sweep per lost worker, not per message.
  std::vector<KeyId> assignable;
  const KeyId nrec = static_cast<KeyId>(records_.size());
  for (KeyId id = 0; id < nrec; ++id) {
    TaskRecord& rec = records_[id];
    if (rec.state == TaskState::kWaiting) {
      bool doomed = false;
      for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
        const KeyId d = deps_pool_[rec.dep_off + i];
        TaskRecord& drec = records_[d];
        if (drec.state == TaskState::kErred) {
          doomed = true;
          continue;
        }
        if (lost[d] == 0) continue;
        ++rec.nwaiting;
        add_dependent(drec, id);
      }
      if (doomed)
        to_poison.emplace_back(id, "dependency unrecoverable after loss "
                                   "of worker " +
                                       std::to_string(w));
      else if (lost[id] != 0 && rec.nwaiting == 0)
        assignable.push_back(id);  // lost key whose inputs all survived
    } else if (rec.state == TaskState::kProcessing) {
      bool derailed = rec.worker == w;
      if (!derailed)
        for (std::uint32_t i = 0; i < rec.dep_count; ++i)
          if (lost[deps_pool_[rec.dep_off + i]] != 0) {
            derailed = true;  // its compute is fetching from the corpse
            break;
          }
      if (!derailed) continue;
      transition(id, rec, TaskState::kWaiting);
      rec.worker = -1;
      rec.nwaiting = 0;
      bool doomed = false;
      for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
        const KeyId d = deps_pool_[rec.dep_off + i];
        TaskRecord& drec = records_[d];
        if (drec.state == TaskState::kErred) {
          doomed = true;
          continue;
        }
        if (lost[d] != 0 || drec.state != TaskState::kMemory) {
          ++rec.nwaiting;
          add_dependent(drec, id);
        }
      }
      ++recovery_.tasks_rerun;
      obs::count("scheduler.recovery.tasks_rerun");
      if (doomed)
        to_poison.emplace_back(id, "dependency unrecoverable after loss "
                                   "of worker " +
                                       std::to_string(w));
      else if (rec.nwaiting == 0)
        assignable.push_back(id);
    } else if (rec.state == TaskState::kExternal &&
               rec.preferred_worker == w) {
      // Pending preselection on the dead worker, no data pushed yet:
      // point it at a survivor so the eventual push/replay lands. (Keys
      // re-armed in phase 1 already point at a survivor, so this only
      // catches never-pushed preselections.)
      rec.preferred_worker = pick_live_worker();
      ++recovery_.external_rerouted;
      obs::count("scheduler.recovery.external_rerouted");
    }
  }
  // Phase 3: fail the unrecoverable cones (waiters get kAckErred now
  // instead of hanging on data that will never exist).
  for (const auto& [id, error] : to_poison) co_await poison_task(id, error);
  // Phase 4: queue re-pushes with their producers and arm the deadline
  // that errs a re-armed key out if the producer never replays it. The
  // producers are poked through their notify channels: detection often
  // happens after a producer's final push, when no ack could carry the
  // kAckRepushPending request.
  std::set<int> producers_to_poke;
  for (const KeyId id : rearmed) {
    TaskRecord& rec = records_[id];
    if (rec.state != TaskState::kExternal) continue;
    if (rec.pusher_client >= 0) {
      repush_[rec.pusher_client].push_back(id);
      producers_to_poke.insert(rec.pusher_client);
      engine_->spawn(repush_deadline(keys_.name(id), rec.rearm_epoch));
    } else {
      co_await poison_task(id, "external data lost with worker " +
                                   std::to_string(w) +
                                   " and no known producer");
    }
  }
  for (int client : producers_to_poke) notify_producer(client);
  // Phase 5: re-assign everything that is immediately runnable.
  for (const KeyId id : assignable) {
    TaskRecord& rec = records_[id];
    if (rec.state == TaskState::kWaiting && rec.nwaiting == 0) push_ready(id);
  }
  co_await drain_ready();
}

exec::Co<void> Scheduler::handle_repush_keys(SchedMsg& msg) {
  RepushList list;
  const auto it = repush_.find(msg.sender_client);
  if (it != repush_.end()) {
    for (const KeyId id : it->second) {
      TaskRecord& rec = records_[id];
      // Skip keys that were replayed, poisoned, or expired meanwhile.
      if (rec.state != TaskState::kExternal) continue;
      int target = rec.preferred_worker;
      if (target < 0 || worker_is_dead(target)) {
        target = pick_live_worker();
        rec.preferred_worker = target;
      }
      list.emplace_back(keys_.name(id), target);
    }
    repush_.erase(it);
  }
  DEISA_ASSERT(msg.reply_repush != nullptr, "missing repush reply channel");
  co_await cluster_->send_control(
      node_, msg.sender_node,
      kControlMsgBase + list.size() * kWirePerKeyBytes);
  msg.reply_repush->send(std::move(list));
}

exec::Co<void> Scheduler::handle_repush_expired(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) co_return;
  TaskRecord& rec = records_[id];
  // The epoch (carried in msg.bytes) guards against expiring a key that
  // was replayed and re-armed again after this deadline was set.
  if (rec.state != TaskState::kExternal || rec.rearm_epoch != msg.bytes)
    co_return;
  ++recovery_.repush_expired;
  obs::count("scheduler.recovery.repush_expired");
  obs::trace_instant(actor_, "recovery", "repush_expired:" + msg.key);
  for (auto& [client, ids] : repush_)
    ids.erase(std::remove(ids.begin(), ids.end(), id), ids.end());
  co_await poison_task(id, "external re-push timed out");
}

void Scheduler::notify_producer(int client) {
  const auto it = producer_notify_.find(client);
  // The wake-up is a local channel send (modelling the scheduler->client
  // stream dask keeps open); the follow-up kRepushKeys RPC pays the real
  // network cost. Extra pokes are absorbed by the bridge's re-entrancy
  // guard.
  if (it != producer_notify_.end()) it->second->send(kAckRepushPending);
}

exec::Co<void> Scheduler::repush_deadline(Key key, std::uint64_t epoch) {
  co_await engine_->delay(params_.repush_timeout);
  if (stopping_) co_return;
  const KeyId id = keys_.find(key);
  if (id == kNoKeyId) co_return;
  const TaskRecord& rec = records_[id];
  if (rec.state != TaskState::kExternal || rec.rearm_epoch != epoch)
    co_return;  // replayed (or re-armed again, with a fresh deadline)
  // Route the expiry through the inbox so the poisoning serializes with
  // the message handlers.
  SchedMsg msg(SchedMsgKind::kRepushExpired);
  msg.key = std::move(key);
  msg.bytes = epoch;
  msg.sender_node = node_;
  inbox_.send(std::move(msg));
}

exec::Co<void> Scheduler::reply_ack(std::shared_ptr<exec::Channel<Ack>> ch,
                                   int dst_node, int code,
                                   std::uint64_t cause) {
  DEISA_ASSERT(ch != nullptr, "missing reply channel");
  co_await cluster_->send_control(node_, dst_node, kControlMsgBase);
  ch->send(Ack(code, cause));
}

exec::Co<void> Scheduler::reply_data(std::shared_ptr<exec::Channel<Data>> ch,
                                    int dst_node, Data value) {
  DEISA_ASSERT(ch != nullptr, "missing reply channel");
  const std::uint64_t b = kControlMsgBase + value.bytes;
  co_await cluster_->send_control(node_, dst_node, b);
  ch->send(std::move(value));
}

}  // namespace deisa::dts
