#include "deisa/dts/runtime.hpp"

namespace deisa::dts {

Runtime::Runtime(exec::Executor& engine, exec::Transport& cluster,
                 int scheduler_node, std::vector<int> worker_nodes,
                 RuntimeParams params)
    : engine_(&engine),
      cluster_(&cluster),
      recovery_armed_(params.scheduler.heartbeat_timeout > 0.0) {
  sched_ = std::make_unique<ShardedScheduler>(
      engine, cluster, scheduler_node, params.shards, params.scheduler);
  for (std::size_t i = 0; i < worker_nodes.size(); ++i)
    workers_.push_back(std::make_unique<Worker>(
        engine, cluster, static_cast<int>(i), worker_nodes[i], params.worker));

  std::vector<WorkerRef> refs = worker_refs();
  sched_->attach_workers(refs);
  for (auto& w : workers_) w->attach(scheduler_node, sched_->inboxes(), refs);
}

std::vector<WorkerRef> Runtime::worker_refs() const {
  std::vector<WorkerRef> refs;
  refs.reserve(workers_.size());
  for (const auto& w : workers_)
    refs.emplace_back(w->id(), w->node(), &w->inbox());
  return refs;
}

void Runtime::start() {
  DEISA_CHECK(!started_, "runtime already started");
  started_ = true;
  // Strand grouping (no-op under the simulator): each shard's message
  // loop and failure detector share one strand, and each worker's task
  // loop shares a strand with its heartbeat emitter, because each pair
  // mutates the same unlocked actor state. Cross-actor traffic goes
  // through thread-safe channels.
  sched_->start(*engine_);
  for (auto& w : workers_) {
    void* worker_strand = engine_->new_strand();
    engine_->spawn_on(worker_strand, w->run());
    engine_->spawn_on(worker_strand, w->run_heartbeats());
  }
}

Client& Runtime::make_client(int node) {
  clients_.push_back(std::make_unique<Client>(
      *engine_, *cluster_, static_cast<int>(clients_.size()), node,
      sched_->shard(0).node(), sched_->inboxes(), worker_refs(),
      recovery_armed_));
  return *clients_.back();
}

exec::Co<void> Runtime::shutdown() {
  sched_->send_shutdown();
  for (auto& w : workers_) {
    WorkerMsg wstop(WorkerMsgKind::kShutdown);
    w->inbox().send(std::move(wstop));
  }
  co_return;
}

}  // namespace deisa::dts
