// Failure detection and recovery: the scheduler's heartbeat deadlines,
// worker-loss handling, lineage re-execution, and the re-arm of lost
// external keys, whose producers get one replay list each.
#include <map>

#include "deisa/dts/scheduler.hpp"
#include "deisa/obs/trace.hpp"
#include "deisa/util/log.hpp"

namespace deisa::dts {

void Scheduler::handle_heartbeat(const SchedMsg& msg) {
  // The deadline the failure detector checks against. Heartbeats from a
  // worker already declared dead are counted but ignored (the seed
  // behavior for all heartbeats: service time is their whole cost).
  if (msg.worker < 0 || static_cast<std::size_t>(msg.worker) >= workers_.size())
    return;
  if (worker_is_dead(msg.worker)) {
    ++recovery_.stale_heartbeats;
  } else {
    last_heartbeat_[static_cast<std::size_t>(msg.worker)] = engine_->now();
  }
}

exec::Co<void> Scheduler::run_failure_detector() {
  if (params_.heartbeat_timeout <= 0.0) co_return;
  // Heartbeats are keyless, so workers route them to shard 0: it is the
  // liveness authority. Peer shards must not run deadline scans over
  // heartbeats they never receive (every worker would look dead); they
  // learn of deaths through the kShardWorkerDead broadcast instead.
  if (shard_.index != 0) co_return;
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
      ++recovery_.suspected;
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
  if (worker_is_dead(w)) co_return;
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
  obs::trace_instant(actor_, "recovery",
                     "worker_lost:worker-" + std::to_string(w));
  DEISA_TRACE("scheduler", "worker " << w << " declared lost; recovering");
  // Tell every live worker first: a fetch request to the dead worker
  // holds a fetch slot that no reply will ever free, and the re-runs
  // recovery assigns below need those slots.
  for (const WorkerRef& ref : workers_) {
    if (worker_is_dead(ref.id)) continue;
    co_await cluster_->send_control(node_, ref.node, kControlMsgBase);
    WorkerMsg lost(WorkerMsgKind::kPeerLost);
    lost.peer = w;
    ref.inbox->send(std::move(lost));
  }
  // Worker-dead hook. As the liveness authority, broadcast the death
  // before running local recovery, so peer shards start recovering their
  // own records — mirrors included — as early as possible.
  Slices broadcast = shard_.worker_dead(w);
  for (auto& [s, m] : broadcast) co_await send_shard(s, std::move(m));
  co_await recover_worker(w);
}

exec::Co<void> Scheduler::recover_worker(int w) {
  obs::Span span;
  if (obs::tracer() != nullptr)
    span = obs::trace_span(actor_, "recovery",
                           "recover:worker-" + std::to_string(w));
  // Phase 1: classify every key whose data lived on the dead worker: a
  // sweep in ascending id order (deterministic event ordering) over the
  // records in memory there that the GC has not released.
  const KeyId nrec = static_cast<KeyId>(records_.size());
  std::vector<std::uint8_t> lost(records_.size(), 0);
  std::vector<std::pair<KeyId, std::string>> to_poison;
  std::vector<KeyId> rearmed;
  for (KeyId id = 0; id < nrec; ++id) {
    TaskRecord& rec = records_[id];
    if (rec.state != TaskState::kMemory || rec.worker != w ||
        lifetime_.released(id))
      continue;
    lost[id] = 1;
    if (rec.origin == Origin::kScattered) {
      // No lineage and no re-push protocol: unrecoverable. Poisoned
      // below, after dependent edges are rebuilt, so the cascade reaches
      // every consumer.
      to_poison.emplace_back(
          id, "scattered data lost with worker " + std::to_string(w));
      ++recovery_.keys_lost;
      continue;
    }
    // Park the record until its data exists again: a computed key waits
    // to re-run once its inputs are back (lineage); an external key waits
    // for its producer's replay; a mirror of a key owned by another shard
    // waits for the owner, which recovers the data and re-announces it
    // through its persistent subscription list (a fresh kShardKeyDone).
    transition(id, rec, rec.origin == Origin::kComputed ? TaskState::kWaiting
                                                        : TaskState::kExternal);
    locate(rec, -1, 0);
    rec.nwaiting = 0;
    if (rec.origin == Origin::kComputed) {
      ++recovery_.keys_recomputed;
    } else if (rec.origin == Origin::kExternal) {
      rearm_external(id, rec);
      rearmed.push_back(id);
    } else {
      ++recovery_.mirrors_rearmed;
    }
  }
  // Phase 2: rebuild consumer edges and restart derailed in-flight work.
  // A finished key's dependent edges were cleared when it completed, so
  // consumers of lost keys are rediscovered from the CSR dep slices —
  // one flat sweep per lost worker, not per message.
  std::vector<KeyId> assignable;
  for (KeyId id = 0; id < nrec; ++id) {
    TaskRecord& rec = records_[id];
    if (rec.state == TaskState::kExternal && rec.preferred_worker == w) {
      // Pending preselection on the dead worker, no data pushed yet:
      // point it at a survivor so the eventual push/replay lands. (Keys
      // re-armed in phase 1 already point at a survivor, so this only
      // catches never-pushed preselections.)
      rec.preferred_worker = pick_live_worker();
      ++recovery_.external_rerouted;
      continue;
    }
    // A processing task is derailed when it ran on the dead worker or is
    // fetching an input from it: it re-runs from scratch, so every input
    // outside memory needs a fresh edge. A waiting task already has edges
    // to its unfinished inputs and only needs them to the lost ones.
    bool rerun = false;
    if (rec.state == TaskState::kProcessing) {
      rerun = rec.worker == w;
      for (std::uint32_t i = 0; i < rec.dep_count && !rerun; ++i)
        rerun = lost[deps_pool_[rec.dep_off + i]] != 0;
      if (!rerun) continue;
      transition(id, rec, TaskState::kWaiting);
      rec.worker = -1;
      rec.nwaiting = 0;
      ++recovery_.tasks_rerun;
    } else if (rec.state != TaskState::kWaiting) {
      continue;
    }
    bool doomed = false;
    for (std::uint32_t i = 0; i < rec.dep_count; ++i) {
      const KeyId d = deps_pool_[rec.dep_off + i];
      TaskRecord& drec = records_[d];
      if (drec.state == TaskState::kErred) {
        doomed = true;
      } else if (lost[d] != 0 || (rerun && drec.state != TaskState::kMemory)) {
        ++rec.nwaiting;
        add_dependent(drec, id);
      }
    }
    if (doomed)
      to_poison.emplace_back(id, "dependency unrecoverable after loss "
                                 "of worker " +
                                     std::to_string(w));
    else if ((rerun || lost[id] != 0) && rec.nwaiting == 0)
      assignable.push_back(id);  // every input survived
  }
  // Phase 3: fail the unrecoverable cones (waiters get kAckErred now
  // instead of hanging on data that will never exist).
  for (const auto& [id, error] : to_poison) co_await poison_task(id, error);
  // Phase 4: hand the re-armed keys to their producers. Detection often
  // happens after a producer's final push, so the scheduler sends the
  // work rather than waiting for the producer to come asking.
  co_await send_replays(rearmed, w);
  // Phase 5: re-assign everything that is immediately runnable.
  for (const KeyId id : assignable) {
    TaskRecord& rec = records_[id];
    if (rec.state == TaskState::kWaiting && rec.nwaiting == 0) push_ready(id);
  }
  co_await drain_ready();
}

void Scheduler::rearm_external(KeyId id, TaskRecord& rec) {
  ++rec.rearm_epoch;
  if (rec.preferred_worker < 0 || worker_is_dead(rec.preferred_worker))
    rec.preferred_worker = pick_live_worker();
  engine_->spawn(repush_deadline(keys_.name(id), rec.rearm_epoch));
  ++recovery_.external_rearmed;
}

exec::Co<void> Scheduler::send_replays(const std::vector<KeyId>& ids,
                                       int worker) {
  std::map<int, RepushList> lists;  // by producing client, in id order
  for (const KeyId id : ids) {
    const TaskRecord& rec = records_[id];
    if (rec.state != TaskState::kExternal) continue;
    if (rec.pusher_client < 0) {
      co_await poison_task(id, "external data lost with worker " +
                                   std::to_string(worker) +
                                   " and no known producer");
      continue;
    }
    lists[rec.pusher_client].emplace_back(keys_.name(id), rec.preferred_worker);
  }
  for (auto& [client, list] : lists) {
    // Keys are only re-armed once a worker is declared dead, which needs
    // an armed detector; every push made under one carries its channel.
    const auto it = producers_.find(client);
    DEISA_ASSERT(it != producers_.end(),
                 "no replay channel for producing client " << client);
    co_await cluster_->send_control(
        node_, it->second.node,
        kControlMsgBase + list.size() * kWirePerKeyBytes);
    it->second.replays->send(std::move(list));
  }
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

exec::Co<void> Scheduler::handle_repush_expired(SchedMsg& msg) {
  const KeyId id = keys_.find(msg.key);
  if (id == kNoKeyId) co_return;
  // The epoch (carried in msg.bytes) guards against expiring a key that
  // was replayed and re-armed again after this deadline was set.
  const TaskRecord& rec = records_[id];
  if (rec.state != TaskState::kExternal || rec.rearm_epoch != msg.bytes)
    co_return;
  ++recovery_.repush_expired;
  if (obs::tracer() != nullptr)
    obs::trace_instant(actor_, "recovery", "repush_expired:" + msg.key);
  co_await poison_task(id, "external re-push timed out");
}

}  // namespace deisa::dts
