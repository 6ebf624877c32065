// Cluster model: compute nodes on a pruned fat-tree interconnect, as on
// the Irene/TGCC Skylake partition used in the paper (EDR InfiniBand,
// 100 Gb/s links, two-level pruned fat tree; Slurm-style allocations).
//
// The model captures exactly the effects the paper's evaluation attributes
// its results to:
//   * full-duplex NIC injection/ejection serialization (many bridges
//     scattering into few workers queue at the receiver NIC),
//   * pruned leaf→spine uplinks (cross-switch flows contend for a limited
//     number of uplink slots),
//   * per-hop latency that depends on switch distance (Figure 5's
//     per-rank patterns),
//   * allocation randomness (a seeded Slurm-like placement; the same seed
//     reproduces the same per-rank pattern, as observed in the paper).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "deisa/exec/primitives.hpp"
#include "deisa/exec/transport.hpp"
#include "deisa/obs/metrics.hpp"
#include "deisa/sim/engine.hpp"
#include "deisa/util/rng.hpp"

namespace deisa::net {

// The delivery classes and fault-hook contract are part of the transport
// seam (every backend honors them identically); the historical net::
// spellings remain as aliases.
using Delivery = exec::Delivery;
using FaultDecision = exec::FaultDecision;
using FaultHook = exec::FaultHook;
using SendResult = exec::SendResult;
using TransferStats = exec::TransferStats;

struct ClusterParams {
  /// Total physical nodes available to the scheduler (machine size).
  int physical_nodes = 256;
  /// Nodes per leaf switch.
  int leaf_radix = 24;
  /// Leaf→spine uplinks per leaf switch (pruned: fewer uplinks than
  /// downlinks; radix/pruning_factor).
  int uplinks_per_leaf = 8;
  /// NIC / link bandwidth in bytes per second (100 Gb/s EDR ≈ 12.5 GB/s).
  double link_bandwidth = 12.5e9;
  /// Effective per-flow bandwidth of the software transport for BULK
  /// payloads (dask's TCP + pickle serialization path, well below the IB
  /// line rate); 0 disables the cap. Control messages are unaffected.
  double software_bandwidth = 0.0;
  /// Intra-node (shared-memory / loopback) transfer bandwidth in bytes/s.
  double memory_bandwidth = 8.0e9;
  /// Per-hop switch latency in seconds.
  double hop_latency = 0.25e-6;
  /// Fixed per-message software overhead (both ends combined).
  double software_overhead = 4.0e-6;
  /// Multiplicative lognormal jitter sigma on transfer durations
  /// (0 disables jitter; functional tests use 0).
  double jitter_sigma = 0.0;
  /// Seed for the jitter stream.
  std::uint64_t jitter_seed = 0x5eed;
};

class Cluster final : public exec::Transport {
public:
  Cluster(sim::Engine& engine, ClusterParams params);

  const ClusterParams& params() const { return params_; }
  sim::Engine& engine() { return *engine_; }
  exec::Executor& executor() override { return *engine_; }

  int leaf_of(int node) const;
  /// Switch hops between two nodes: 0 same node, 2 same leaf, 4 across
  /// the spine.
  int hops(int src, int dst) const;

  /// Move `bytes` from `src` to `dst` (physical node ids). Completes when
  /// the last byte lands. Holds NIC (and uplink, when crossing the spine)
  /// slots for the whole flow so that concurrent flows queue. The fault
  /// hook may stretch the flow (kBulk extra_delay) but never lose it.
  exec::Co<void> transfer(int src, int dst, std::uint64_t bytes) override;

  /// Pure latency-only message (control traffic small enough that
  /// bandwidth does not matter). Never queues. The returned SendResult
  /// tells fault-aware senders whether to enqueue the message 0, 1 or 2
  /// times; callers sending kReliable traffic may ignore it.
  exec::Co<SendResult> send_control(
      int src, int dst, std::uint64_t bytes = 256,
      Delivery delivery = Delivery::kReliable) override;

  /// Install (or clear, with an empty function) the fault hook consulted
  /// on every perturbable send. Used by fault::FaultInjector.
  void set_fault_hook(FaultHook hook) override {
    fault_hook_ = std::move(hook);
  }
  bool has_fault_hook() const override {
    return static_cast<bool>(fault_hook_);
  }

  /// Bulk-transfer bandwidth between two nodes (software cap applied).
  double effective_bandwidth(int src, int dst) const;

  TransferStats stats() const override { return stats_; }
  /// Model seconds of each bulk transfer that completed, queueing
  /// included.
  const obs::Histogram& transfer_seconds() const { return transfer_seconds_; }
  /// The extra delay of each bulk transfer the fault hook stretched.
  const obs::Histogram& delay_seconds() const { return delay_seconds_; }

private:
  double base_latency(int src, int dst) const;
  double jitter();

  sim::Engine* engine_;
  ClusterParams params_;
  // Full-duplex NIC: separate injection/ejection slots per node.
  std::vector<std::unique_ptr<exec::Semaphore>> egress_;
  std::vector<std::unique_ptr<exec::Semaphore>> ingress_;
  std::vector<std::unique_ptr<exec::Semaphore>> node_memory_;
  // One uplink pool per leaf switch (for flows leaving that leaf).
  std::vector<std::unique_ptr<exec::Semaphore>> uplinks_;
  util::Rng rng_;
  TransferStats stats_;
  obs::Histogram transfer_seconds_;
  obs::Histogram delay_seconds_;
  FaultHook fault_hook_;
};

/// Slurm-like allocation: pick `n` physical nodes from the cluster. The
/// allocator walks leaf switches from a seeded random starting point and
/// may skip already-"occupied" node blocks, producing allocations that
/// sometimes span extra switches — the source of the paper's run-to-run
/// variability patterns in Figure 5.
std::vector<int> allocate_nodes(const ClusterParams& params, int n,
                                std::uint64_t seed);

}  // namespace deisa::net
