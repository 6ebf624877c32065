// In-process threaded backend of the exec::Transport seam.
//
// Where net::Cluster *models* contention (semaphore slots + computed
// delays over virtual time), ThreadedTransport *is* contention: every
// transfer really copies `bytes` through per-node scratch buffers while
// holding the source egress and destination ingress locks, so concurrent
// flows into one node serialize on a real mutex and real memory
// bandwidth. Control messages are bookkeeping-only (an in-process hop has
// no meaningful latency to model).
//
// The fault-hook contract matches the modeled transport: kBulk flows may
// be stretched (extra_delay, slept in model time), control messages may
// be dropped/duplicated according to their Delivery class — so
// fault-aware senders behave identically on either backend.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "deisa/exec/transport.hpp"

namespace deisa::rt {

/// Copy granularity through the per-node scratch buffers; also the
/// scratch size, so memory stays bounded for huge transfers.
inline constexpr std::size_t kCopyChunkBytes = 1 << 20;

struct ThreadedTransportParams {
  /// Addressable node ids [0, nodes).
  int nodes = 256;
};

class ThreadedTransport final : public exec::Transport {
public:
  ThreadedTransport(exec::Executor& ex, ThreadedTransportParams params = {});

  const ThreadedTransportParams& params() const { return params_; }

  exec::Executor& executor() override { return *ex_; }

  exec::Co<void> transfer(int src, int dst, std::uint64_t bytes) override;
  exec::Co<exec::SendResult> send_control(
      int src, int dst, std::uint64_t bytes = 256,
      exec::Delivery delivery = exec::Delivery::kReliable) override;

  void set_fault_hook(exec::FaultHook hook) override {
    std::lock_guard lk(hook_mu_);
    fault_hook_ = std::move(hook);
  }
  bool has_fault_hook() const override {
    std::lock_guard lk(hook_mu_);
    return static_cast<bool>(fault_hook_);
  }

  exec::TransferStats stats() const override;

  /// Same-node transfers, which skip the NICs and the copy.
  std::uint64_t local_bypasses() const {
    return local_bypasses_.load(std::memory_order_relaxed);
  }
  /// NIC lock contention: the total wall seconds transfers spent waiting
  /// for the egress + ingress locks. Also exported live as the
  /// rt.nic.lock_wait_s histogram when metrics are installed.
  double nic_lock_wait_seconds() const {
    return static_cast<double>(
               nic_lock_wait_ns_.load(std::memory_order_relaxed)) /
           1e9;
  }

private:
  struct Nic {
    std::mutex mu;
    std::vector<unsigned char> scratch;
  };

  exec::FaultDecision consult_hook(int src, int dst, std::uint64_t bytes,
                                   exec::Delivery delivery);

  exec::Executor* ex_;
  ThreadedTransportParams params_;
  std::vector<std::unique_ptr<Nic>> egress_;
  std::vector<std::unique_ptr<Nic>> ingress_;
  std::atomic<std::uint64_t> transfers_{0};
  std::atomic<std::uint64_t> control_{0};
  std::atomic<std::uint64_t> bytes_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> duplicated_{0};
  std::atomic<std::uint64_t> delayed_{0};
  std::atomic<std::uint64_t> local_bypasses_{0};
  std::atomic<std::uint64_t> nic_lock_wait_ns_{0};
  mutable std::mutex hook_mu_;
  exec::FaultHook fault_hook_;
};

}  // namespace deisa::rt
