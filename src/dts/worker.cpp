#include "deisa/dts/worker.hpp"

#include "deisa/dts/shard.hpp"
#include "deisa/obs/trace.hpp"

namespace deisa::dts {

namespace {
/// Peer dependency fetches a worker keeps in flight at once. Fetches of a
/// compute request overlap up to this bound; in-flight fetches of the
/// same key are shared, never duplicated.
constexpr std::size_t kMaxConcurrentFetches = 8;
}  // namespace

Worker::Worker(exec::Executor& engine, exec::Transport& cluster, int id, int node,
               WorkerParams params)
    : engine_(&engine),
      cluster_(&cluster),
      id_(id),
      node_(node),
      actor_("worker-" + std::to_string(id)),
      params_(params),
      inbox_(engine),
      cpu_(engine),
      fetch_slots_(engine, kMaxConcurrentFetches) {}

void Worker::record_memory() {
  if (memory_bytes_ > peak_memory_bytes_) peak_memory_bytes_ = memory_bytes_;
  if (auto* r = obs::tracer())
    r->counter(r->track(actor_, "memory"), "memory_bytes",
               static_cast<double>(memory_bytes_));
}

void Worker::attach(int scheduler_node,
                    std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes,
                    std::vector<WorkerRef> peers) {
  scheduler_node_ = scheduler_node;
  scheduler_inboxes_ = std::move(scheduler_inboxes);
  peers_ = std::move(peers);
  dead_peers_.assign(peers_.size(), 0);
}

exec::Co<void> Worker::run() {
  while (true) {
    WorkerMsg msg = co_await inbox_.recv();
    if (!alive_ && msg.kind != WorkerMsgKind::kShutdown) {
      // Crashed worker: every message disappears into the void. Senders
      // that expected a reply stay blocked and are reaped at teardown;
      // the scheduler learns of the death from the missed heartbeats.
      ++messages_dropped_dead_;
      continue;
    }
    switch (msg.kind) {
      case WorkerMsgKind::kCompute:
        engine_->spawn(handle_compute(msg.spec, std::move(msg.key),
                                      std::move(msg.deps), msg.cause));
        break;
      case WorkerMsgKind::kReceiveDataBatch:
        // Pushed payloads inherit the push span as provenance so later
        // consumers (gather, queue hand-offs) can link back to it.
        for (auto& [key, payload] : msg.batch) {
          if (msg.cause != 0) payload.cause = msg.cause;
          store_put(std::move(key), std::move(payload));
        }
        break;
      case WorkerMsgKind::kGetData:
        engine_->spawn(handle_get_data(std::move(msg)));
        break;
      case WorkerMsgKind::kReleaseKey: {
        // Refcount GC: the scheduler proved every consumer of this key
        // has finished, so its store copy can go.
        if (const auto it = store_.find(msg.key); it != store_.end())
          bytes_released_ += it->second.bytes;
        release_key(msg.key);
        ++keys_released_;
        break;
      }
      case WorkerMsgKind::kPeerLost:
        peer_lost(msg.peer);
        break;
      case WorkerMsgKind::kShutdown:
        stopping_ = true;
        co_return;
    }
  }
}

exec::Co<void> Worker::run_heartbeats() {
  if (params_.heartbeat_interval <= 0.0) co_return;
  while (!stopping_ && alive_) {
    co_await engine_->delay(params_.heartbeat_interval);
    if (stopping_ || !alive_) co_return;
    SchedMsg hb(SchedMsgKind::kHeartbeatWorker);
    hb.worker = id_;
    hb.sender_node = node_;
    co_await notify_scheduler(std::move(hb), exec::Delivery::kDroppable);
  }
}

void Worker::crash() {
  if (!alive_) return;
  alive_ = false;
  store_.clear();
  memory_bytes_ = 0;
  record_memory();
  obs::trace_instant(actor_, "lifecycle", "crash");
}

bool Worker::release_key(const Key& key) {
  const auto it = store_.find(key);
  if (it == store_.end()) return false;
  memory_bytes_ -= it->second.bytes;
  store_.erase(it);
  record_memory();
  return true;
}

void Worker::store_put(Key key, Data data, bool cached) {
  // A cached copy of a peer's data is resident memory, but it is not new
  // data produced or received by this worker: it has its own counter.
  if (cached) peer_fetch_cached_bytes_ += data.bytes;
  memory_bytes_ += data.bytes;
  // Single probe: try_emplace finds-or-inserts in one hash, and the key
  // string moves into the store instead of being copied.
  const auto [slot, fresh] = store_.try_emplace(std::move(key));
  if (!fresh) memory_bytes_ -= slot->second.bytes;
  slot->second = std::move(data);
  record_memory();
  const auto it = arrivals_.find(slot->first);
  if (it != arrivals_.end()) {
    it->second->set();
    arrivals_.erase(it);
  }
}

exec::Co<const Data*> Worker::local_ref(const Key& key) {
  while (true) {
    const auto it = store_.find(key);
    // Non-owning reference into the store: element addresses are stable
    // under rehash, and the entry outlives the caller's read (releases
    // only happen once every consumer finished).
    if (it != store_.end()) co_return &it->second;
    auto ev = arrivals_.find(key);
    if (ev == arrivals_.end())
      ev = arrivals_.emplace(key, std::make_unique<exec::Event>(*engine_)).first;
    // The Event object may be erased (and the map rehashed) once set;
    // capture the pointer before awaiting.
    exec::Event* event = ev->second.get();
    co_await event->wait();
  }
}

exec::Co<void> Worker::fetch(const DepLocation& dep, Data& out,
                             bool& aborted) {
  if (dep.owner == id_ || dep.owner < 0) {
    // Local (or still in flight to this worker, e.g. an external-task
    // block the bridge pushes here): wait for the store and hand back a
    // shared alias. The byte accounting models dask's per-read
    // serialization: every local dependency read duplicates the payload.
    const Data* d = co_await local_ref(dep.key);
    bytes_moved_ += d->bytes;
    out = *d;
    co_return;
  }
  DEISA_CHECK(static_cast<std::size_t>(dep.owner) < peers_.size(),
              "dep owner " << dep.owner << " unknown");
  const auto owner = static_cast<std::size_t>(dep.owner);
  // Already cached from an earlier fetch: no network round trip.
  if (const auto hit = store_.find(dep.key); hit != store_.end()) {
    ++peer_fetch_cache_hits_;
    bytes_moved_ += hit->second.bytes;
    out = hit->second;
    co_return;
  }
  // A peer declared dead never answers: fail at once, holding no slot.
  if (dead_peers_[owner] != 0) {
    aborted = true;
    ++fetches_aborted_;
    co_return;
  }
  // The same key is already on the wire from the same peer for another
  // task: join that fetch instead of issuing a duplicate request. A flight
  // from another peer is never joined: recovery moved the key, and the
  // old peer may be dead and never answer (the re-run task would hang).
  if (const auto it = inflight_.find(dep.key);
      it != inflight_.end() && it->second->owner == dep.owner) {
    auto flight = it->second;  // keep alive across the await
    ++peer_fetches_shared_;
    co_await flight->done.wait();
    if (flight->aborted)
      aborted = true;
    else
      out = flight->data;
    co_return;
  }
  // First requester: register the flight *before* waiting for a fetch
  // slot so later requesters of the same key join immediately instead of
  // queueing their own fetch behind the semaphore.
  auto flight = std::make_shared<InflightFetch>(*engine_, dep.owner);
  inflight_[dep.key] = flight;
  co_await fetch_slots_.acquire();
  // Peer fetch: request + bulk transfer back. The owner may be declared
  // dead at any suspension point; peer_lost() wakes the reply wait.
  const WorkerRef& peer = peers_[owner];
  obs::Span span = obs::trace_span(actor_, "transfer", dep.key);
  if (span.active())
    span.add_arg(obs::arg("from_worker", static_cast<std::uint64_t>(dep.owner)));
  if (dead_peers_[owner] == 0)
    co_await cluster_->send_control(node_, peer.node,
                                    kControlMsgBase + dep.key.size());
  if (dead_peers_[owner] == 0) {
    flight->reply = std::make_shared<exec::Channel<Data>>(*engine_);
    WorkerMsg req(WorkerMsgKind::kGetData);
    req.key = dep.key;
    req.requester_node = node_;
    req.reply_data = flight->reply;
    peer.inbox->send(std::move(req));
    flight->data = co_await flight->reply->recv();
  }
  if (dead_peers_[owner] != 0) {
    // No answer will come (or it came too late to trust): give the slot
    // back and fail this fetch and every fetch that joined it.
    fetch_slots_.release();
    flight->aborted = true;
    ++fetches_aborted_;
  } else {
    const Data& d = flight->data;
    bytes_moved_ += d.bytes;
    fetch_slots_.release();
    if (span.active()) span.add_arg(obs::arg("bytes", d.bytes));
    span.finish();
    ++peer_fetches_;
    peer_fetch_bytes_ += d.bytes;
    // Cache locally, as dask workers do (skip if we crashed mid-fetch:
    // the store of a dead worker stays empty).
    if (alive_) store_put(dep.key, d, /*cached=*/true);
  }
  flight->done.set();
  // Erase this flight only: a re-run may have registered its own flight
  // for the key (from the key's new owner) meanwhile.
  if (const auto it = inflight_.find(dep.key);
      it != inflight_.end() && it->second == flight)
    inflight_.erase(it);
  if (flight->aborted)
    aborted = true;
  else
    out = flight->data;
}

void Worker::peer_lost(int peer) {
  dead_peers_[static_cast<std::size_t>(peer)] = 1;
  // Wake each request on the wire to that peer with an empty reply,
  // which fetch() discards once it sees the mark. Fetches that have not
  // sent their request yet see the mark when they resume.
  for (const auto& [key, flight] : inflight_)
    if (flight->owner == peer && flight->reply) flight->reply->send(Data{});
}

exec::Co<void> Worker::handle_get_data(WorkerMsg msg) {
  const Data* ref = co_await local_ref(msg.key);
  if (!alive_) co_return;  // died while the request was in flight
  Data d = *ref;  // alias out of the store before suspending again
  const std::uint64_t b = std::max(d.bytes, kMinTransferBytes);
  co_await cluster_->transfer(node_, msg.requester_node, b);
  if (!alive_) co_return;
  msg.reply_data->send(std::move(d));
}

exec::Co<void> Worker::handle_compute(const TaskSpec* spec, Key key,
                                     std::vector<DepLocation> deps,
                                     std::uint64_t cause) {
  // Fetch all dependencies concurrently (each a spawned coroutine, joined
  // below): request/transfer latencies overlap instead of summing, with
  // total in-flight fetches bounded by fetch_slots_. Results land in
  // dep-list order regardless of arrival order, so execution stays
  // deterministic. Each fetch writes its slot of `inputs` and reads its
  // `deps` entry in this frame: when_all joins every fetch before the
  // frame moves on.
  std::vector<Data> inputs(deps.size());
  bool aborted = false;
  obs::CauseId fetch_cause = 0;
  if (!deps.empty()) {
    // The fetch phase is one causal node: caused by the assign, fed by a
    // dep edge per input (the scheduler supplies each dep's completion
    // id, so the edge set is identical on both substrates).
    obs::Span fetch_span = obs::trace_span(actor_, "fetch", key);
    fetch_span.set_cause(cause, obs::EdgeKind::kAssign);
    fetch_cause = fetch_span.id();
    for (const DepLocation& d : deps)
      obs::trace_edge(d.cause, fetch_cause, obs::EdgeKind::kDep, actor_,
                      "fetch");
    std::vector<exec::Co<void>> fetches;
    fetches.reserve(deps.size());
    for (std::size_t i = 0; i < deps.size(); ++i)
      fetches.push_back(fetch(deps[i], inputs[i], aborted));
    co_await exec::when_all(*engine_, std::move(fetches));
  }
  // Crashed while fetching inputs, or an input's owner was declared dead
  // first: the scheduler re-runs the task, so this attempt reports
  // nothing (a report could pass for the re-run's on this worker).
  if (!alive_ || aborted) co_return;

  SchedMsg done(SchedMsgKind::kTaskFinished);
  done.key = key;
  done.worker = id_;
  done.sender_node = node_;
  const double exec_start = engine_->now();
  obs::Span span = obs::trace_span(actor_, "execute", key);
  if (fetch_cause != 0)
    span.set_cause(fetch_cause, obs::EdgeKind::kLocal);
  else
    span.set_cause(cause, obs::EdgeKind::kAssign);
  done.cause = span.id();
  try {
    if (spec->io) co_await spec->io();
    co_await cpu_.serve(spec->cost);
    if (!alive_) co_return;  // crashed mid-execution: drop the result
    Data out;
    if (spec->fn) {
      out = spec->fn(inputs);
    } else {
      out = Data::sized(spec->out_bytes);
    }
    done.bytes = out.bytes;
    if (span.active()) span.add_arg(obs::arg("bytes", out.bytes));
    out.cause = done.cause;  // stored result carries the execute span
    store_put(std::move(key), std::move(out));  // done.key copied above
    ++tasks_executed_;
  } catch (const std::exception& e) {
    done.erred = true;
    done.error = e.what();
    if (span.active()) span.add_arg(obs::arg("error", done.error));
  }
  span.finish();
  if (!alive_) co_return;  // crashed mid-execution: the result dies here
  if (done.erred) ++tasks_erred_;
  execute_seconds_.observe(engine_->now() - exec_start);
  co_await notify_scheduler(std::move(done), exec::Delivery::kIdempotent);
}

exec::Co<void> Worker::notify_scheduler(SchedMsg msg, exec::Delivery delivery) {
  DEISA_ASSERT(!scheduler_inboxes_.empty(), "worker not attached");
  // Keyed notifications go to the shard owning the key; keyless traffic
  // (heartbeats) stays on shard 0.
  const ShardMapper mapper{static_cast<int>(scheduler_inboxes_.size())};
  exec::Channel<SchedMsg>* target = scheduler_inboxes_[static_cast<std::size_t>(
      msg.key.empty() ? 0 : mapper.shard_of(msg.key))];
  const exec::SendResult res = co_await cluster_->send_control(
      node_, scheduler_node_, wire_bytes(msg), delivery);
  // Delivery is caller-side: enqueue 0, 1 or 2 copies as the fault hook
  // decided (0/2 only for droppable/idempotent traffic under injection).
  for (int i = 1; i < res.copies; ++i) target->send(msg);
  if (res.copies > 0) target->send(std::move(msg));
}

}  // namespace deisa::dts
