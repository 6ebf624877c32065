#include "deisa/dts/scheduler.hpp"

#include <algorithm>
#include <span>

#include "deisa/dts/policy.hpp"
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
    case SchedMsgKind::kHeartbeatWorker: return "heartbeat_worker";
    case SchedMsgKind::kHeartbeatBridge: return "heartbeat_bridge";
    case SchedMsgKind::kVariableSet: return "variable_set";
    case SchedMsgKind::kVariableGet: return "variable_get";
    case SchedMsgKind::kQueuePut: return "queue_put";
    case SchedMsgKind::kQueueGet: return "queue_get";
    case SchedMsgKind::kWorkerLost: return "worker_lost";
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
      // -> waiting: the worker-loss re-run path.
      return to == TaskState::kMemory || to == TaskState::kErred ||
             to == TaskState::kWaiting;
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
      rng_(params.seed),
      lifetime_(params) {}

void Scheduler::attach_workers(std::vector<WorkerRef> workers) {
  workers_ = std::move(workers);
  dead_.assign(workers_.size(), 0);
  suspected_.assign(workers_.size(), 0);
  last_heartbeat_.assign(workers_.size(), -1.0);
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
  return lifetime_.pending(id);
}

bool Scheduler::is_released(const Key& key) const {
  const KeyId id = keys_.find(key);
  DEISA_CHECK(id != kNoKeyId, "unknown task key: " << key);
  return lifetime_.released(id);
}

std::size_t Scheduler::pending_waiters() const {
  std::size_t n = 0;
  for (const auto& [id, wl] : waiters_) n += wl.chans.size();
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
  ++created_[static_cast<std::size_t>(rec.state)];
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
  ++transitions_[static_cast<std::size_t>(from)]
                 [static_cast<std::size_t>(to)];
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
  rec.state = to;
  rec.state_since = engine_->now();
}

std::size_t Scheduler::count_in_state(TaskState s) const {
  const auto i = static_cast<std::size_t>(s);
  std::uint64_t n = created_[i];
  for (std::size_t f = 0; f < kNumTaskStates; ++f)
    n += transitions_[f][i] - transitions_[i][f];
  return static_cast<std::size_t>(n);
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
    case SchedMsgKind::kHeartbeatWorker: handle_heartbeat(msg); break;
    case SchedMsgKind::kHeartbeatBridge:
      break;  // service time is their whole cost
    case SchedMsgKind::kWorkerLost: co_await handle_worker_lost(msg); break;
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
  intern_batch(
      n, [&](std::size_t i) -> Key& { return batch[i].key; },
      "task key resubmitted: ", [&](std::size_t i, KeyId id, TaskRecord& rec) {
        rec.spec = &batch[i];
        rec.preferred_worker = batch[i].preferred_worker;
        record_created(id, rec);
        scratch_batch_.push_back(id);
      });
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
        if (d == kNoKeyId && shard_.remote(h))
          d = create_mirror(h, dep, TaskState::kExternal);
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
      // Edge-ingested hook: the GC charges the dep one consumer, and an
      // edge to a mirror counts as a cross-shard edge.
      lifetime_.charge(d, dep);
      if (drec.origin == Origin::kRemote) ++shard_.remote_edges;
      deps_pool_.push_back(d);
      ++records_[id].dep_count;
      if (drec.state != TaskState::kMemory) {
        ++records_[id].nwaiting;
        add_dependent(drec, id);
      }
    }
    if (fresh && records_[id].nwaiting == 0) push_ready(id);
    // Poisoned at ingestion (erred dep): the task is terminal before it
    // ever ran, so return the consumer charges on the deps it did take.
    if (!fresh && terminal_work(id)) co_await key_terminal(id, records_[id]);
  }
  // Owner-side half of the cross-shard protocol: register (or
  // immediately answer) the subscriptions piggybacked on this slice.
  // After both passes, so intra-batch producers are interned.
  if (!msg.sub_keys.empty()) co_await subscribe_shards(msg);
  co_await drain_ready();
}

template <typename KeyAt, typename Init>
void Scheduler::intern_batch(std::size_t n, KeyAt key_at, const char* dup,
                             Init init) {
  keys_.reserve(keys_.size() + n);
  records_.reserve(records_.size() + n);
  // Software-pipelined: keys are hashed kPipe items ahead and their
  // table slots prefetched, overlapping the DRAM misses that otherwise
  // serialize one probe per insert at 10^5-task scale.
  constexpr std::size_t kPipe = 8;
  std::uint64_t hpipe[kPipe];
  for (std::size_t i = 0; i < std::min(n, kPipe); ++i) {
    hpipe[i] = KeyTable::hash_key(key_at(i));
    keys_.prefetch(hpipe[i]);
  }
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t h = hpipe[i % kPipe];
    if (i + kPipe < n) {
      hpipe[i % kPipe] = KeyTable::hash_key(key_at(i + kPipe));
      keys_.prefetch(hpipe[i % kPipe]);
    }
    const auto [id, fresh] = keys_.intern_hashed(h, std::move(key_at(i)));
    DEISA_CHECK(fresh, dup << keys_.name(id));
    init(i, id, create_record(id));
  }
}

exec::Co<void> Scheduler::key_terminal(KeyId id, TaskRecord& rec) {
  for (const int s : shard_.subscribers(id)) co_await notify_shard(s, id);
  const std::span<const KeyId> deps(deps_pool_.data() + rec.dep_off,
                                    rec.dep_count);
  if (!lifetime_.return_inputs(id, deps)) co_return;
  // Candidates in dep order: a release's send may suspend, but only this
  // handler mutates the tables, so the decisions read the same state.
  for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
    const KeyId d = deps_pool_[rec.dep_off + i];
    if (const Release r = decide_release(d)) co_await release(d, r);
  }
}

Release Scheduler::decide_release(KeyId id) {
  const TaskRecord& rec = records_[id];
  return lifetime_.decide(
      id, rec.origin == Origin::kRemote,
      rec.state == TaskState::kMemory && rec.worker >= 0 &&
          !worker_is_dead(rec.worker) && waiters_.count(id) == 0);
}

exec::Co<void> Scheduler::release(KeyId id, Release r) {
  if (r.kind == Release::kDrain) {
    co_await drain_to_owner(id, r.count);
    co_return;
  }
  const TaskRecord& rec = records_[id];
  bytes_released_ += rec.bytes;
  if (obs::tracer() != nullptr)
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

int Scheduler::pick_live_worker() {
  DEISA_CHECK(live_workers() > 0, "no live workers left");
  for (std::size_t i = 0; i < workers_.size(); ++i) {
    const int w = static_cast<int>(rr_next_worker_++ % workers_.size());
    if (!worker_is_dead(w)) return w;
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
    if (!worker_is_dead(rec.preferred_worker)) return rec.preferred_worker;
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
  // The worker reads fn/io/cost/out_bytes through the arena pointer: no
  // spec field is written after ingest, so nothing is copied per assign.
  m.spec = rec.spec;
  m.key = keys_.name(id);  // rebuilt at the wire boundary
  m.cause = current_cause_;
  m.deps.reserve(rec.dep_count);
  for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
    const KeyId d = deps_pool_[rec.dep_off + i];
    const TaskRecord& drec = records_[d];
    m.deps.emplace_back(keys_.name(d), drec.worker, drec.bytes,
                        drec.done_cause);
  }
  const WorkerRef& ref = workers_[static_cast<std::size_t>(w)];
  co_await cluster_->send_control(
      node_, ref.node, kWireEnvelopeBytes + m.deps.size() * kWirePerDepBytes);
  ref.inbox->send(std::move(m));
}

exec::Co<void> Scheduler::poison_task(KeyId id, const std::string& error) {
  TaskRecord& rec = records_[id];
  if (rec.state != TaskState::kErred) {
    transition(id, rec, TaskState::kErred);
    errors_[id] = error;
    co_await release_waiters(id, kAckErred);
    // Erred is terminal: the task will never read its inputs, so return
    // their consumer charges.
    if (terminal_work(id)) co_await key_terminal(id, rec);
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
    if (terminal_work(dk)) co_await key_terminal(dk, drec);
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
  locate(rec, worker, bytes);
  transition(id, rec, TaskState::kMemory);
  rec.done_cause = current_cause_;
  errors_.erase(id);
  // Key-terminal hook, BEFORE local waiters/dependents are serviced:
  // subscriber shards get kShardKeyDone first, so both sides observe the
  // completion in the same causal order; then the task returns its input
  // charges. A client observing this completion may shut the runtime down
  // in direct response (the last step of a run), and any cross-shard
  // drain ack must already sit in the owner's FIFO inbox by then or the
  // final release is lost on both substrates.
  if (terminal_work(id)) co_await key_terminal(id, rec);
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
  // Release-candidate hook for the key itself. Covers the
  // consumers-finished-first edge: if every consumer of this key reached
  // a terminal state before the key itself completed (e.g. they were
  // poisoned), its refcount is already zero on arrival.
  if (const Release r = decide_release(id)) co_await release(id, r);
}

exec::Co<void> Scheduler::handle_task_finished(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) {
    ++recovery_.stale_task_finished;
    co_return;
  }
  TaskRecord& rec = records_[id];
  // Stale guard: only the worker currently assigned may report the task,
  // and only while it is processing. Anything else — a report for a task
  // poisoned meanwhile (the old erred→memory resurrection bug),
  // a report from a worker the task was re-assigned away from, or a
  // fault-duplicated delivery — is dropped here, never reaching an
  // illegal transition.
  if (rec.state != TaskState::kProcessing || rec.worker != msg.worker) {
    ++recovery_.stale_task_finished;
    if (obs::tracer() != nullptr)
      obs::trace_instant(actor_, "recovery", "stale_finish:" + msg.key);
    co_return;
  }
  rec.origin = Origin::kComputed;
  co_await finish_task(id, rec, msg.worker, msg.bytes, msg.erred, msg.error);
}

exec::Co<int> Scheduler::update_data_one(Key key, int worker,
                                        std::uint64_t bytes, bool external,
                                        int sender_client,
                                        std::vector<KeyId>& rearmed) {
  int ack = worker;
  KeyId id = keys_.find(key);
  if (id == kNoKeyId) {
    id = keys_.intern(std::move(key)).first;
    TaskRecord& rec = create_record(id);
    rec.origin = Origin::kScattered;
    if (worker_is_dead(worker)) {
      // The scatter raced a worker crash: the payload landed nowhere.
      // Register the key as erred so consumers fail fast instead of
      // waiting on data that does not exist.
      rec.state = TaskState::kErred;
      errors_[id] = "scattered to lost worker " + std::to_string(worker);
      ++recovery_.keys_lost;
      ack = kAckErred;
    } else {
      // Plain scatter of a fresh key: register it directly in memory.
      rec.state = TaskState::kMemory;
      rec.pusher_client = sender_client;
      locate(rec, worker, bytes);
    }
    record_created(id, rec);
  } else {
    TaskRecord& rec = records_[id];
    switch (rec.state) {
      case TaskState::kErred:
        // Push to a poisoned key (the old DEISA_CHECK abort): acknowledge
        // and discard so the producer keeps stepping.
        ++recovery_.stale_update_data;
        if (obs::tracer() != nullptr)
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
          // The block was pushed at a worker already declared dead: the
          // data never landed. Re-arm the key; the caller sends the
          // producer a replay list asking for the block again.
          rearm_external(id, rec);
          rearmed.push_back(id);
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
          ack = kAckDiscarded;
        } else {
          // Re-scatter of an existing key: refresh location. Fresh bytes
          // landed, so a GC release from a previous round is undone.
          locate(rec, worker, bytes);
          lifetime_.refilled(id);
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
  if (msg.replays != nullptr)
    producers_.try_emplace(msg.sender_client, msg.sender_node, msg.replays);
  // Keys pushed at a dead worker: their replay list goes out before the
  // ack, so the producer holds it by the time its push returns.
  std::vector<KeyId> rearmed;
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
      acks.push_back(co_await update_data_one(
          std::move(msg.keys[i]), msg.worker, msg.sizes[i], msg.external,
          msg.sender_client, rearmed));
    if (!rearmed.empty()) co_await send_replays(rearmed, msg.worker);
    if (msg.reply_acks != nullptr) {
      co_await cluster_->send_control(
          node_, msg.sender_node,
          kControlMsgBase + acks.size() * sizeof(int));
      msg.reply_acks->send(std::move(acks));
    }
    co_return;
  }
  const int ack = co_await update_data_one(std::move(msg.key), msg.worker,
                                           msg.bytes, msg.external,
                                           msg.sender_client, rearmed);
  if (!rearmed.empty()) co_await send_replays(rearmed, msg.worker);
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
  intern_batch(
      msg.keys.size(), [&](std::size_t i) -> Key& { return msg.keys[i]; },
      "external task key already exists: ",
      [&](std::size_t i, KeyId id, TaskRecord& rec) {
        rec.origin = Origin::kExternal;
        if (!msg.preferred_workers.empty()) {
          int pw = msg.preferred_workers[i];
          if (pw >= 0 && worker_is_dead(pw)) {
            // Preselection targets a worker that has since died: re-route
            // at creation so the producer is never told to push at a
            // corpse.
            pw = pick_live_worker();
            ++recovery_.external_rerouted;
          }
          rec.preferred_worker = pw;
        }
        rec.state = TaskState::kExternal;
        record_created(id, rec);
      });
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
