#include "deisa/core/bridge.hpp"

#include <map>

#include "deisa/obs/trace.hpp"

namespace deisa::core {

Bridge::Bridge(dts::Client& client, Mode mode, int rank, int nranks)
    : client_(&client),
      mode_(mode),
      rank_(rank),
      nranks_(nranks),
      lane_("rank-" + std::to_string(rank)) {
  DEISA_CHECK(rank >= 0 && rank < nranks, "bridge rank out of range");
  if (uses_external_tasks(mode_) && client_->recovery_armed())
    client_->engine().spawn(run_replays());
}

exec::Co<void> Bridge::run_replays() {
  while (true) {
    const dts::RepushList list = co_await client_->replays().recv();
    if (obs::tracer() != nullptr)
      obs::trace_instant("bridge", lane_,
                         "repush:" + std::to_string(list.size()));
    // Group the replay by re-routed target and replay each group as one
    // coalesced scatter_batch — the same wire shape as the original push.
    // A replay that lands on a dead worker comes back in a fresh list.
    std::map<int, std::vector<std::pair<dts::Key, dts::Data>>> by_worker;
    for (const auto& [key, worker] : list) {
      const auto it = replay_.find(key);
      if (it == replay_.end()) {
        // Evicted from the replay buffer: unrecoverable from this rank;
        // the scheduler's re-push deadline will err the key out.
        ++repush_misses_;
        continue;
      }
      by_worker[worker].emplace_back(key, it->second);
    }
    for (auto& [worker, items] : by_worker) {
      blocks_repushed_ += items.size();
      (void)co_await client_->scatter_batch(std::move(items), worker,
                                            /*external=*/true);
    }
  }
}

exec::Co<void> Bridge::publish_arrays(std::vector<VirtualArray> arrays) {
  DEISA_CHECK(rank_ == 0, "only the rank-0 bridge publishes the arrays");
  std::uint64_t bytes = 256;
  for (const auto& a : arrays) bytes += 64 + a.shape.size() * 48;
  dts::Data payload =
      dts::Data::make<std::vector<VirtualArray>>(std::move(arrays), bytes);
  co_await client_->variable_set(kArraysVariable, std::move(payload));
}

exec::Co<void> Bridge::wait_contract() {
  obs::Span span = obs::trace_span("bridge", lane_, "wait_contract");
  const dts::Data d = co_await client_->variable_get(kContractVariable);
  contract_ = d.as<Contract>();
  has_contract_ = true;
}

const Contract& Bridge::contract() const {
  DEISA_CHECK(has_contract_, "contract not signed yet");
  return contract_;
}

Bridge::ArrayCache& Bridge::cache_for(const VirtualArray& va) {
  const auto [it, fresh] = arrays_.try_emplace(va.name);
  if (fresh) {
    it->second.grid = va.grid();
    it->second.keys = array::ChunkKeyBuilder(array::kDeisaPrefix, va.name);
  }
  DEISA_ASSERT(it->second.grid.shape() == va.shape &&
                   it->second.grid.chunk_shape() == va.subsize,
               "virtual array " << va.name << " changed its shape");
  return it->second;
}

int Bridge::preselect_worker(const array::ChunkGrid& grid,
                             const array::Index& coord) const {
  const int workers =
      has_contract_ && contract_.num_workers > 0
          ? contract_.num_workers
          : client_->num_workers();
  return array::preselected_worker(grid.linear_of(coord), workers);
}

exec::Co<std::size_t> Bridge::send_blocks(
    const VirtualArray& va,
    std::vector<std::pair<array::Index, dts::Data>> blocks) {
  DEISA_CHECK(has_contract_, "bridges must wait for the contract first");
  DEISA_CHECK(uses_external_tasks(mode_),
              "send_blocks is the DEISA2/3 path; DEISA1 uses "
              "deisa1_send_block");
  // Filter against the contract and group the survivors by preselected
  // worker (ordered map: deterministic push order across runs).
  std::map<int, std::vector<std::pair<dts::Key, dts::Data>>> by_worker;
  ArrayCache& arr = cache_for(va);
  for (auto& [coord, data] : blocks) {
    if (!contract_.includes(va.name, arr.grid, coord)) {
      ++blocks_filtered_;
      if (obs::tracer() != nullptr)
        obs::trace_instant("bridge", lane_, "filtered:" + va.name);
      continue;
    }
    // Copy the rendered key: the builder's buffer is reused per render.
    dts::Key key = arr.keys.render(coord);
    if (client_->recovery_armed()) remember_block(key, data);
    by_worker[preselect_worker(arr.grid, coord)].emplace_back(
        std::move(key), std::move(data));
  }
  std::size_t sent = 0;
  for (auto& [worker, items] : by_worker) {
    const std::size_t n = items.size();
    std::uint64_t bytes = 0;
    for (const auto& [key, data] : items) bytes += data.bytes;
    obs::Span span;
    if (obs::tracer() != nullptr) {
      span = obs::trace_span("bridge", lane_,
                             "batch->w" + std::to_string(worker));
      span.add_arg(obs::arg("blocks", static_cast<std::uint64_t>(n)));
      span.add_arg(obs::arg("bytes", bytes));
    }
    const std::vector<int> acks = co_await client_->scatter_batch(
        std::move(items), worker, /*external=*/true, span.id());
    span.finish();
    sent += n;
    blocks_sent_ += n;
    bytes_sent_ += bytes;
    ++batched_pushes_;
    for (const int ack : acks)
      if (ack == dts::kAckDiscarded) ++blocks_discarded_;
  }
  co_return sent;
}

void Bridge::remember_block(const dts::Key& key, const dts::Data& data) {
  if (replay_.emplace(key, data).second) {
    replay_order_.push_back(key);
    while (replay_order_.size() > replay_capacity_) {
      replay_.erase(replay_order_.front());
      replay_order_.pop_front();
    }
  }
}

exec::Co<void> Bridge::run_heartbeats(exec::Event& stop) {
  co_await client_->run_heartbeats(bridge_heartbeat_interval(mode_), stop);
}

exec::Co<void> Bridge::deisa1_fetch_selection() {
  obs::Span span =
      obs::trace_span("bridge", lane_, "deisa1_fetch_selection");
  const dts::Data d = co_await client_->queue_get(deisa1_selection_queue(rank_));
  contract_ = d.as<Contract>();
  has_contract_ = true;
}

exec::Co<bool> Bridge::deisa1_send_block(const VirtualArray& va,
                                        const array::Index& coord,
                                        dts::Data data) {
  DEISA_CHECK(mode_ == Mode::kDeisa1, "deisa1_send_block requires DEISA1");
  DEISA_CHECK(has_contract_, "DEISA1 bridges fetch their selection first");
  bool sent = false;
  std::uint64_t push_cause = 0;
  ArrayCache& arr = cache_for(va);
  if (contract_.includes(va.name, arr.grid, coord)) {
    const dts::Key& key = arr.keys.render(coord);
    const std::uint64_t bytes = data.bytes;
    obs::Span span;
    if (obs::tracer() != nullptr) {
      span = obs::trace_span("bridge", lane_, key);
      span.add_arg(obs::arg("bytes", bytes));
    }
    // DEISA1's scatter is a synchronous RPC: this step's push could not
    // start until the previous step's registration ack came back. Chain
    // onto it so the ack-gated serialization shows up on the critical
    // path instead of reading as unexplained idle.
    span.set_cause(client_->last_cause(), obs::EdgeKind::kMessage);
    push_cause = span.id();
    co_await client_->scatter(key, std::move(data),
                              preselect_worker(arr.grid, coord),
                              /*external=*/false, span.id());
    span.finish();
    ++blocks_sent_;
    bytes_sent_ += bytes;
    sent = true;
  } else {
    ++blocks_filtered_;
    if (obs::tracer() != nullptr)
      obs::trace_instant("bridge", lane_, "filtered:" + va.name);
  }
  // Notify the adaptor that this rank finished the step (whether or not
  // the block passed the filter) so it can submit the step's graph. The
  // token carries the push span as provenance: the adaptor's per-step
  // submit chains onto the bridge push that triggered it.
  dts::Data token = dts::Data::make<int>(rank_, 8);
  token.cause = push_cause;
  co_await client_->queue_put(kDeisa1ReadyQueue, std::move(token));
  co_return sent;
}

}  // namespace deisa::core
