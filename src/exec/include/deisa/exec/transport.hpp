// Transport seam: how bytes move between "nodes".
//
// Two backends implement it:
//   * net::Cluster          — the modeled pruned-fat-tree interconnect
//                             (latency, bandwidth, NIC/uplink contention,
//                             jitter, fault classes) over the simulator.
//   * rt::ThreadedTransport — in-process transport doing real memcpys
//                             through per-node NIC locks, so contention is
//                             real contention instead of a queueing model.
//
// The delivery classes and the fault-hook contract are part of the seam:
// fault-aware senders behave identically regardless of the backend.
#pragma once

#include <cstdint>
#include <functional>

#include "deisa/exec/executor.hpp"

namespace deisa::exec {

/// How a message tolerates network faults. Senders declare it per send;
/// the transport's fault hook (if installed) may only perturb messages in
/// the ways their class permits. Reliable messages (RPCs with a blocked
/// caller, data-plane handoffs) are never dropped or duplicated — losing
/// one would wedge the workflow instead of exercising recovery.
enum class Delivery {
  kReliable,    // never perturbed (acks, replies, compute orders)
  kDroppable,   // may be silently lost (heartbeats)
  kIdempotent,  // may be duplicated; receiver dedups (task_finished,
                // scatter registrations)
  kBulk,        // data-plane transfer: may be delayed, never lost
};

/// The fault rule of the delivery classes, shared by the fault injector
/// and both transports: only kDroppable traffic may be lost, and only
/// kIdempotent traffic may arrive twice.
inline constexpr bool may_drop(Delivery d) { return d == Delivery::kDroppable; }
inline constexpr bool may_duplicate(Delivery d) {
  return d == Delivery::kIdempotent;
}

/// Verdict of the fault hook for one message.
struct FaultDecision {
  bool drop = false;
  bool duplicate = false;
  double extra_delay = 0.0;  // seconds added to the transfer duration
};

/// Installed by a FaultInjector; consulted on every perturbable send.
using FaultHook =
    std::function<FaultDecision(int src, int dst, std::uint64_t bytes,
                                Delivery delivery)>;

/// What happened to a control send under fault injection. `copies` is the
/// number of times the caller should enqueue the message at the receiver
/// (0 = dropped, 2 = duplicated); delivery of the payload is caller-side,
/// so the transport can only report the decision.
struct SendResult {
  bool delivered = true;
  int copies = 1;
};

/// Statistics over all sends (observability and tests).
struct TransferStats {
  std::uint64_t count = 0;    // bulk transfers + control messages
  std::uint64_t bytes = 0;
  std::uint64_t control = 0;  // the control messages among `count`
  // Fault-hook decisions the transport carried out.
  std::uint64_t dropped = 0;     // control messages not delivered
  std::uint64_t duplicated = 0;  // control messages delivered twice
  std::uint64_t delayed = 0;     // bulk transfers stretched
};

class Transport {
public:
  Transport() = default;
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;
  virtual ~Transport() = default;

  /// The executor all transfer coroutines run on.
  virtual Executor& executor() = 0;

  /// Move `bytes` from `src` to `dst` (node ids). Completes when the last
  /// byte lands. The fault hook may stretch the flow (kBulk extra_delay)
  /// but never lose it.
  virtual Co<void> transfer(int src, int dst, std::uint64_t bytes) = 0;

  /// Small control message. The returned SendResult tells fault-aware
  /// senders whether to enqueue the message 0, 1 or 2 times; callers
  /// sending kReliable traffic may ignore it.
  virtual Co<SendResult> send_control(
      int src, int dst, std::uint64_t bytes = 256,
      Delivery delivery = Delivery::kReliable) = 0;

  /// Install (or clear, with an empty function) the fault hook consulted
  /// on every perturbable send. Used by fault::FaultInjector.
  virtual void set_fault_hook(FaultHook hook) = 0;
  virtual bool has_fault_hook() const = 0;

  /// Snapshot of the send statistics (by value: the threaded backend
  /// maintains them atomically).
  virtual TransferStats stats() const = 0;
};

}  // namespace deisa::exec
