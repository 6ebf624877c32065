#include "deisa/dts/client.hpp"

#include <algorithm>

namespace deisa::dts {

Client::Client(exec::Executor& engine, exec::Transport& cluster, int id, int node,
               int scheduler_node,
               std::vector<exec::Channel<SchedMsg>*> scheduler_inboxes,
               std::vector<WorkerRef> workers, bool recovery_armed)
    : engine_(&engine),
      cluster_(&cluster),
      id_(id),
      node_(node),
      scheduler_node_(scheduler_node),
      scheduler_inboxes_(std::move(scheduler_inboxes)),
      mapper_{static_cast<int>(scheduler_inboxes_.size())},
      workers_(std::move(workers)),
      recovery_armed_(recovery_armed),
      replays_(recovery_armed
                   ? std::make_shared<exec::Channel<RepushList>>(engine)
                   : nullptr) {}

exec::Co<void> Client::send_to_scheduler(SchedMsg msg, exec::Delivery delivery,
                                        int shard) {
  msg.sender_node = node_;
  msg.sender_client = id_;
  // All shards are co-located on scheduler_node_; routing only picks the
  // inbox.
  exec::Channel<SchedMsg>* target =
      scheduler_inboxes_.at(static_cast<std::size_t>(shard));
  const exec::SendResult res = co_await cluster_->send_control(
      node_, scheduler_node_, wire_bytes(msg), delivery);
  // Fault injection decides delivery; the caller enqueues the copies
  // (0 = dropped, 2 = duplicated — only for non-reliable traffic).
  for (int i = 1; i < res.copies; ++i) target->send(msg);
  if (res.copies > 0) target->send(std::move(msg));
}

exec::Co<void> Client::submit(std::vector<TaskSpec> tasks,
                             std::vector<Key> wants) {
  SchedMsg msg(SchedMsgKind::kUpdateGraph);
  // Stamp the submission with the provenance of the last payload we saw:
  // per-step graphs triggered by queue tokens or gathered results chain
  // onto their trigger instead of starting a disconnected causal root.
  msg.cause = last_cause_;
  msg.tasks = std::move(tasks);
  msg.wants = std::move(wants);
  Slices slices = split_graph(mapper_, std::move(msg));
  for (auto& [shard, slice] : slices)
    co_await send_to_scheduler(std::move(slice), exec::Delivery::kReliable,
                               shard);
}

exec::Co<void> Client::external_futures(std::vector<Key> keys,
                                        std::vector<int> preferred_workers) {
  SchedMsg msg(SchedMsgKind::kCreateExternal);
  msg.keys = std::move(keys);
  msg.preferred_workers = std::move(preferred_workers);
  Slices slices = split_keys(mapper_, std::move(msg));
  for (auto& [shard, slice] : slices)
    co_await send_to_scheduler(std::move(slice), exec::Delivery::kReliable,
                               shard);
}

exec::Co<int> Client::scatter(Key key, Data data, int worker, bool external,
                             std::uint64_t cause) {
  DEISA_CHECK(worker >= 0 && static_cast<std::size_t>(worker) < workers_.size(),
              "scatter to unknown worker " << worker);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  const std::uint64_t payload_bytes = data.bytes;
  // 1) Bulk payload straight to the worker ...
  co_await cluster_->transfer(node_, ref.node,
                              std::max(payload_bytes, kMinTransferBytes));
  bytes_moved_ += payload_bytes;
  WorkerMsg push(WorkerMsgKind::kReceiveDataBatch);
  push.cause = cause;
  push.batch.emplace_back(key, std::move(data));
  ref.inbox->send(std::move(push));
  // 2) ... and the metadata registration to the scheduler — a
  // synchronous RPC, as dask's scatter is: wait for the acknowledgement.
  auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg reg(SchedMsgKind::kUpdateData);
  reg.cause = cause;
  reg.key = std::move(key);  // last use; the worker push copied above
  reg.worker = worker;
  reg.bytes = payload_bytes;
  reg.external = external;
  reg.reply_worker = ack;
  reg.replays = replays_;
  const int shard = shard_of(reg.key);
  co_await send_to_scheduler(std::move(reg), exec::Delivery::kReliable,
                             shard);
  const Ack a = co_await ack->recv();
  // The synchronous registration gates whatever this client does next
  // (DEISA1: the next timestep's push) — remember it as provenance.
  if (a.cause != 0) last_cause_ = a.cause;
  co_return a.code;
}

exec::Co<std::vector<int>> Client::scatter_batch(
    std::vector<std::pair<Key, Data>> items, int worker, bool external,
    std::uint64_t cause) {
  if (items.empty()) co_return std::vector<int>();
  DEISA_CHECK(worker >= 0 && static_cast<std::size_t>(worker) < workers_.size(),
              "scatter to unknown worker " << worker);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  std::uint64_t total = 0;
  for (const auto& [key, data] : items) total += data.bytes;
  SchedMsg reg(SchedMsgKind::kUpdateData);
  reg.cause = cause;
  reg.worker = worker;
  reg.external = external;
  for (const auto& [key, data] : items) {
    reg.keys.push_back(key);
    reg.sizes.push_back(data.bytes);
  }
  // 1) One bulk transfer for the whole batch — the payloads share a
  // single wire frame instead of paying the per-message floor each.
  co_await cluster_->transfer(node_, ref.node,
                              std::max(total, kMinTransferBytes));
  bytes_moved_ += total;
  WorkerMsg push(WorkerMsgKind::kReceiveDataBatch);
  push.cause = cause;
  push.batch = std::move(items);
  ref.inbox->send(std::move(push));
  // 2) One batched registration RPC per owner shard. All the sends go
  // out before any ack is awaited so the shards register concurrently;
  // the per-key acks are reassembled into item order.
  const std::size_t nitems = reg.keys.size();
  std::vector<std::vector<std::size_t>> positions;
  Slices slices = split_keys(mapper_, std::move(reg), &positions);
  std::vector<std::pair<int, std::shared_ptr<exec::Channel<std::vector<int>>>>>
      acks;
  for (auto& [shard, slice] : slices) {
    slice.reply_acks =
        std::make_shared<exec::Channel<std::vector<int>>>(*engine_);
    slice.replays = replays_;
    acks.emplace_back(shard, slice.reply_acks);
    co_await send_to_scheduler(std::move(slice), exec::Delivery::kReliable,
                               shard);
  }
  std::vector<int> out(nitems, 0);
  for (auto& [shard, ch] : acks) {
    const std::vector<int> got = co_await ch->recv();
    const auto& pos = positions[static_cast<std::size_t>(shard)];
    DEISA_ASSERT(got.size() == pos.size(), "shard ack count mismatch");
    for (std::size_t j = 0; j < got.size(); ++j) out[pos[j]] = got[j];
  }
  co_return out;
}

exec::Co<int> Client::wait_key(const Key& key) {
  auto reply = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg msg(SchedMsgKind::kWaitKey);
  msg.key = key;
  msg.reply_worker = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(key));
  const Ack ack = co_await reply->recv();
  DEISA_CHECK(ack.code != -2, "task erred: " << key);
  // The wait observed a completion: whatever this client does next
  // (submit the following batch, gather) was enabled by it.
  if (ack.cause != 0) last_cause_ = ack.cause;
  co_return ack.code;
}

exec::Co<Data> Client::gather(const Key& key) {
  const int worker = co_await wait_key(key);
  const WorkerRef& ref = workers_[static_cast<std::size_t>(worker)];
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  co_await cluster_->send_control(node_, ref.node,
                                  kControlMsgBase + key.size());
  WorkerMsg req(WorkerMsgKind::kGetData);
  req.key = key;
  req.requester_node = node_;
  req.reply_data = reply;
  ref.inbox->send(std::move(req));
  Data d = co_await reply->recv();
  if (d.cause != 0) last_cause_ = d.cause;
  co_return d;
}

exec::Co<void> Client::variable_set(const std::string& name, Data value) {
  SchedMsg msg(SchedMsgKind::kVariableSet);
  msg.name = name;
  msg.payload = std::move(value);
  // Variables/queues are name-keyed state: both ends of an exchange hash
  // the name to the same owning shard.
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
}

exec::Co<Data> Client::variable_get(const std::string& name) {
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  SchedMsg msg(SchedMsgKind::kVariableGet);
  msg.name = name;
  msg.reply_data = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  Data d = co_await reply->recv();
  if (d.cause != 0) last_cause_ = d.cause;
  co_return d;
}

exec::Co<void> Client::queue_put(const std::string& name, Data value) {
  auto ack = std::make_shared<exec::Channel<Ack>>(*engine_);
  SchedMsg msg(SchedMsgKind::kQueuePut);
  msg.name = name;
  msg.payload = std::move(value);
  msg.reply_worker = ack;  // Queue.put is synchronous in dask
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  (void)co_await ack->recv();
}

exec::Co<Data> Client::queue_get(const std::string& name) {
  auto reply = std::make_shared<exec::Channel<Data>>(*engine_);
  SchedMsg msg(SchedMsgKind::kQueueGet);
  msg.name = name;
  msg.reply_data = reply;
  co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable,
                             shard_of(name));
  Data d = co_await reply->recv();
  if (d.cause != 0) last_cause_ = d.cause;
  co_return d;
}

exec::Co<void> Client::run_heartbeats(double interval, exec::Event& stop) {
  if (interval <= 0.0) co_return;  // the paper's "infinite interval"
  while (!stop.is_set()) {
    co_await engine_->delay(interval);
    if (stop.is_set()) co_return;
    SchedMsg hb(SchedMsgKind::kHeartbeatBridge);
    hb.worker = id_;
    co_await send_to_scheduler(std::move(hb), exec::Delivery::kDroppable);
  }
}

exec::Co<void> Client::send_shutdown() {
  for (int s = 0; s < mapper_.shards; ++s) {
    SchedMsg msg(SchedMsgKind::kShutdown);
    co_await send_to_scheduler(std::move(msg), exec::Delivery::kReliable, s);
  }
}

}  // namespace deisa::dts
