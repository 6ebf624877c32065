#include "deisa/net/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>

#include "deisa/obs/metrics.hpp"
#include "deisa/obs/trace.hpp"

namespace deisa::net {

Cluster::Cluster(sim::Engine& engine, ClusterParams params)
    : engine_(&engine), params_(params), rng_(params.jitter_seed) {
  DEISA_CHECK(params_.physical_nodes > 0, "cluster needs nodes");
  DEISA_CHECK(params_.leaf_radix > 0, "leaf radix must be positive");
  DEISA_CHECK(params_.uplinks_per_leaf > 0, "uplinks must be positive");
  DEISA_CHECK(params_.link_bandwidth > 0, "bandwidth must be positive");
  const int n = params_.physical_nodes;
  const int leaves = (n + params_.leaf_radix - 1) / params_.leaf_radix;
  egress_.reserve(static_cast<std::size_t>(n));
  ingress_.reserve(static_cast<std::size_t>(n));
  node_memory_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    egress_.push_back(std::make_unique<exec::Semaphore>(engine, 1));
    ingress_.push_back(std::make_unique<exec::Semaphore>(engine, 1));
    node_memory_.push_back(std::make_unique<exec::Semaphore>(engine, 2));
  }
  uplinks_.reserve(static_cast<std::size_t>(leaves));
  for (int i = 0; i < leaves; ++i)
    uplinks_.push_back(std::make_unique<exec::Semaphore>(
        engine, static_cast<std::size_t>(params_.uplinks_per_leaf)));
}

int Cluster::leaf_of(int node) const {
  DEISA_CHECK(node >= 0 && node < params_.physical_nodes,
              "node " << node << " out of range");
  return node / params_.leaf_radix;
}

int Cluster::hops(int src, int dst) const {
  if (src == dst) return 0;
  if (leaf_of(src) == leaf_of(dst)) return 2;
  return 4;
}

double Cluster::base_latency(int src, int dst) const {
  return params_.software_overhead +
         static_cast<double>(hops(src, dst)) * params_.hop_latency;
}

double Cluster::jitter() {
  if (params_.jitter_sigma <= 0.0) return 1.0;
  return rng_.lognormal_mean(1.0, params_.jitter_sigma);
}

double Cluster::effective_bandwidth(int src, int dst) const {
  double bw = src == dst ? params_.memory_bandwidth : params_.link_bandwidth;
  if (params_.software_bandwidth > 0.0)
    bw = std::min(bw, params_.software_bandwidth);
  return bw;
}

exec::Co<void> Cluster::transfer(int src, int dst, std::uint64_t bytes) {
  DEISA_CHECK(dst >= 0 && dst < params_.physical_nodes,
              "dst node " << dst << " out of range");
  ++stats_.count;
  stats_.bytes += bytes;
  const double start = engine_->now();
  obs::Span span;
  if (obs::tracer() != nullptr) {
    span = obs::trace_span(
        "net", "transfer",
        "n" + std::to_string(src) + "->n" + std::to_string(dst));
    span.add_arg(obs::arg("bytes", bytes));
  }
  if (auto* m = obs::metrics()) {
    m->counter("net.transfers").add();
    m->counter("net.bytes").add(bytes);
  }
  struct TransferDone {
    sim::Engine* engine;
    double start;
    ~TransferDone() {
      if (auto* m = obs::metrics())
        m->histogram("net.transfer_seconds").observe(engine->now() - start);
    }
  } done_guard{engine_, start};
  double lat = base_latency(src, dst);
  if (fault_hook_) {
    const FaultDecision fd = fault_hook_(src, dst, bytes, Delivery::kBulk);
    if (fd.extra_delay > 0.0) {
      lat += fd.extra_delay;
      if (auto* m = obs::metrics()) {
        m->counter("net.faults.delayed").add();
        m->histogram("net.faults.delay_seconds").observe(fd.extra_delay);
      }
    }
  }
  if (src == dst) {
    // Intra-node copy through shared memory; two memcpy engines per node.
    auto& mem = *node_memory_[static_cast<std::size_t>(src)];
    co_await mem.acquire();
    co_await engine_->delay(
        (lat + static_cast<double>(bytes) / effective_bandwidth(src, src)) *
        jitter());
    mem.release();
    co_return;
  }
  const int src_leaf = leaf_of(src);
  const int dst_leaf = leaf_of(dst);
  auto& eg = *egress_[static_cast<std::size_t>(src)];
  auto& in = *ingress_[static_cast<std::size_t>(dst)];
  // Acquisition order (egress → uplink → ingress) is a DAG: no deadlock.
  co_await eg.acquire();
  exec::Semaphore* up = nullptr;
  if (src_leaf != dst_leaf) {
    up = uplinks_[static_cast<std::size_t>(src_leaf)].get();
    co_await up->acquire();
  }
  co_await in.acquire();
  const double duration =
      (lat + static_cast<double>(bytes) / effective_bandwidth(src, dst)) *
      jitter();
  co_await engine_->delay(duration);
  in.release();
  if (up != nullptr) up->release();
  eg.release();
}

exec::Co<SendResult> Cluster::send_control(int src, int dst,
                                           std::uint64_t bytes,
                                           Delivery delivery) {
  ++stats_.count;
  stats_.bytes += bytes;
  if (auto* m = obs::metrics()) {
    m->counter("net.control_messages").add();
    m->counter("net.bytes").add(bytes);
  }
  SendResult result;
  double extra = 0.0;
  if (fault_hook_ && delivery != Delivery::kReliable) {
    const FaultDecision fd = fault_hook_(src, dst, bytes, delivery);
    if (fd.drop && exec::may_drop(delivery)) {
      result.delivered = false;
      result.copies = 0;
      obs::count("net.faults.dropped");
    } else if (fd.duplicate && exec::may_duplicate(delivery)) {
      result.copies = 2;
      obs::count("net.faults.duplicated");
    }
    extra = fd.extra_delay;
  }
  const double duration =
      (base_latency(src, dst) +
       static_cast<double>(bytes) / params_.link_bandwidth) *
          jitter() +
      extra;
  co_await engine_->delay(duration);
  co_return result;
}

std::vector<int> allocate_nodes(const ClusterParams& params, int n,
                                std::uint64_t seed) {
  DEISA_CHECK(n > 0 && n <= params.physical_nodes,
              "cannot allocate " << n << " of " << params.physical_nodes
                                 << " nodes");
  util::Rng rng(seed);
  const int leaves =
      (params.physical_nodes + params.leaf_radix - 1) / params.leaf_radix;

  // Slurm-like: start from a random leaf, walk leaves in order, and take a
  // random contiguous span of free nodes from each (other jobs "occupy"
  // part of every switch). The result is mostly-contiguous but can span
  // one more switch than strictly necessary.
  std::vector<int> out;
  out.reserve(static_cast<std::size_t>(n));
  int leaf = static_cast<int>(rng.uniform_index(static_cast<std::uint64_t>(leaves)));
  int guard = 0;
  while (static_cast<int>(out.size()) < n && guard < 4 * leaves) {
    ++guard;
    const int first = leaf * params.leaf_radix;
    const int last = std::min(first + params.leaf_radix, params.physical_nodes);
    const int available = last - first;
    if (available > 0) {
      // Other jobs occupy a random prefix of this switch.
      const int occupied =
          static_cast<int>(rng.uniform_index(
              static_cast<std::uint64_t>(std::max(1, available / 2))));
      for (int node = first + occupied;
           node < last && static_cast<int>(out.size()) < n; ++node)
        out.push_back(node);
    }
    leaf = (leaf + 1) % leaves;
  }
  DEISA_ASSERT(static_cast<int>(out.size()) == n,
               "allocation failed to find enough nodes");
  return out;
}

}  // namespace deisa::net
