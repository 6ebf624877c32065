// Mini-MPI over the discrete-event cluster: ranks are coroutines, point-
// to-point messages match on (source, tag) with wildcards, and the one
// collective the workflow needs — the barrier the Heat2D ranks and the
// DEISA bridges meet at — is a dissemination barrier built from
// point-to-point messages, so its cost scales with log2(P) and with the
// switch distance of the allocation, as on a real machine.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <memory>
#include <vector>

#include <mutex>

#include "deisa/exec/executor.hpp"
#include "deisa/exec/primitives.hpp"
#include "deisa/exec/transport.hpp"

namespace deisa::mpix {

inline constexpr int kAnySource = -1;
inline constexpr int kAnyTag = -1;

// NOTE: Message is deliberately NOT an aggregate. GCC 12 miscompiles
// by-value aggregate prvalue arguments to co_awaited coroutines (the
// materialized temporary and the coroutine-frame parameter copy end up
// sharing non-trivial members, causing use-after-free). A user-provided
// constructor forces the correct copy/move path. Do not remove it.
struct Message {
  Message() = default;
  Message(int source_, int tag_, std::uint64_t bytes_,
          std::vector<double> payload_ = {})
      : source(source_),
        tag(tag_),
        bytes(bytes_),
        payload(std::move(payload_)) {}

  int source = 0;
  int tag = 0;
  /// Modeled size on the wire; set by the sender, whatever the payload.
  std::uint64_t bytes = 0;
  /// Halo values; empty for barrier signals.
  std::vector<double> payload;
};

/// Communicator over a set of ranks placed on cluster nodes.
class Comm {
public:
  /// `rank_to_node[r]` is the physical cluster node hosting rank r.
  Comm(exec::Transport& cluster, std::vector<int> rank_to_node);

  int size() const { return static_cast<int>(rank_to_node_.size()); }
  int node_of(int rank) const;
  exec::Executor& engine() { return cluster_->executor(); }
  exec::Transport& cluster() { return *cluster_; }

  /// Blocking (rendezvous-free, eager) send: completes when the payload
  /// has fully landed in the destination mailbox.
  exec::Co<void> send(int from, int to, int tag, Message msg);

  /// Blocking receive matching (source, tag); wildcards allowed.
  exec::Co<Message> recv(int rank, int source = kAnySource, int tag = kAnyTag);

  /// Dissemination barrier; every rank of the comm must call it, in order.
  exec::Co<void> barrier(int rank);

private:
  struct Waiter {
    int source;
    int tag;
    exec::ResumeToken token{};
    Message result{};
    bool delivered = false;
  };

  struct Mailbox {
    std::deque<Message> pending;
    std::list<Waiter*> waiters;
  };

  static bool matches(const Waiter& w, const Message& m) {
    return (w.source == kAnySource || w.source == m.source) &&
           (w.tag == kAnyTag || w.tag == m.tag);
  }

  void deliver(int to, Message msg);
  int next_barrier_tag(int rank);

  exec::Transport* cluster_;
  std::vector<int> rank_to_node_;
  // Guards mailboxes (pending queues + waiter lists): deliver() runs on
  // the sender's strand, recv() on the receiver's.
  std::mutex mu_;
  std::vector<Mailbox> mailboxes_;
  // Per-rank barrier sequence, only ever touched by that rank's own
  // barrier calls (one strand), so it needs no lock.
  std::vector<std::uint32_t> barrier_seq_;
};

}  // namespace deisa::mpix
