#include "deisa/rt/threaded_transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>


namespace deisa::rt {

ThreadedTransport::ThreadedTransport(exec::Executor& ex,
                                     ThreadedTransportParams params)
    : ex_(&ex), params_(params) {
  DEISA_CHECK(params_.nodes > 0, "transport needs nodes");
  DEISA_CHECK(params_.chunk_bytes > 0, "chunk_bytes must be positive");
  egress_.reserve(static_cast<std::size_t>(params_.nodes));
  ingress_.reserve(static_cast<std::size_t>(params_.nodes));
  for (int i = 0; i < params_.nodes; ++i) {
    // Scratch is grown lazily on a NIC's first transfer: harness clusters
    // model thousands of nodes of which a handful move data, and zeroing
    // nodes * 2 * chunk_bytes up front costs seconds and gigabytes.
    egress_.push_back(std::make_unique<Nic>());
    ingress_.push_back(std::make_unique<Nic>());
  }
}

exec::FaultDecision ThreadedTransport::consult_hook(int src, int dst,
                                                    std::uint64_t bytes,
                                                    exec::Delivery delivery) {
  exec::FaultHook hook;
  {
    std::lock_guard lk(hook_mu_);
    hook = fault_hook_;
  }
  if (!hook) return {};
  return hook(src, dst, bytes, delivery);
}

exec::TransferStats ThreadedTransport::stats() const {
  exec::TransferStats s;
  s.control = control_.load(std::memory_order_relaxed);
  s.count = transfers_.load(std::memory_order_relaxed) + s.control;
  s.bytes = bytes_.load(std::memory_order_relaxed);
  s.dropped = dropped_.load(std::memory_order_relaxed);
  s.duplicated = duplicated_.load(std::memory_order_relaxed);
  s.delayed = delayed_.load(std::memory_order_relaxed);
  return s;
}

exec::Co<void> ThreadedTransport::transfer(int src, int dst,
                                           std::uint64_t bytes) {
  DEISA_CHECK(src >= 0 && src < params_.nodes,
              "src node " << src << " out of range");
  DEISA_CHECK(dst >= 0 && dst < params_.nodes,
              "dst node " << dst << " out of range");
  transfers_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  const exec::FaultDecision fd =
      consult_hook(src, dst, bytes, exec::Delivery::kBulk);
  if (fd.extra_delay > 0.0) {
    delayed_.fetch_add(1, std::memory_order_relaxed);
    co_await ex_->delay(fd.extra_delay);
  }
  if (src == dst) {
    // Same-node hand-off: the payload already lives in this address
    // space, so there is no NIC to contend for and nothing to copy
    // through scratch.
    local_bypasses_.fetch_add(1, std::memory_order_relaxed);
    co_return;
  }
  {
    Nic& eg = *egress_[static_cast<std::size_t>(src)];
    Nic& in = *ingress_[static_cast<std::size_t>(dst)];
    // Lock both NICs deadlock-free; concurrent flows sharing either end
    // really serialize here instead of on a modeled semaphore. The wait
    // for the locks IS the backend's NIC contention — measure it.
    const auto lock_t0 = std::chrono::steady_clock::now();
    std::scoped_lock lk(eg.mu, in.mu);
    const double lock_wait_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      lock_t0)
            .count();
    nic_lock_wait_ns_.fetch_add(
        static_cast<std::uint64_t>(lock_wait_s * 1e9),
        std::memory_order_relaxed);
    const std::size_t want = static_cast<std::size_t>(
        std::min<std::uint64_t>(bytes, params_.chunk_bytes));
    if (eg.scratch.size() < want) eg.scratch.resize(params_.chunk_bytes);
    if (in.scratch.size() < want) in.scratch.resize(params_.chunk_bytes);
    std::uint64_t left = bytes;
    while (left > 0) {
      const std::size_t n = static_cast<std::size_t>(
          std::min<std::uint64_t>(left, params_.chunk_bytes));
      std::memcpy(in.scratch.data(), eg.scratch.data(), n);
      left -= n;
    }
  }
  co_return;
}

exec::Co<exec::SendResult> ThreadedTransport::send_control(
    int src, int dst, std::uint64_t bytes, exec::Delivery delivery) {
  control_.fetch_add(1, std::memory_order_relaxed);
  bytes_.fetch_add(bytes, std::memory_order_relaxed);
  exec::SendResult result;
  double extra = 0.0;
  if (delivery != exec::Delivery::kReliable) {
    const exec::FaultDecision fd = consult_hook(src, dst, bytes, delivery);
    if (fd.drop && exec::may_drop(delivery)) {
      result.delivered = false;
      result.copies = 0;
      dropped_.fetch_add(1, std::memory_order_relaxed);
    } else if (fd.duplicate && exec::may_duplicate(delivery)) {
      result.copies = 2;
      duplicated_.fetch_add(1, std::memory_order_relaxed);
    }
    extra = fd.extra_delay;
  }
  if (extra > 0.0) co_await ex_->delay(extra);
  co_return result;
}

}  // namespace deisa::rt
