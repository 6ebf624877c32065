// Refcount GC (DESIGN.md §5g): when may a key's data go?
//
// Every dependency edge ingested charges its producer one pending
// consumer; a consumer that reaches a terminal state returns the charges
// on its inputs. A key is released once every consumer it ever had has
// finished, no client waits on it, and a live worker holds it in memory.
// Across shards (DESIGN.md §5j) an owner also counts the charges that
// subscriber shards took through their slices and drain back with acks;
// a mirror of a remote key is never released locally, it drains its
// charges back to the owner instead.
//
// The scheduler core calls in at its hooks (edge ingested, key terminal,
// release candidate) and gets each decision back synchronously; this
// class sends nothing. With release_consumed off every hook returns at
// once and no per-key state is kept.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "deisa/dts/task.hpp"

namespace deisa::dts {

struct SchedulerParams;

/// The decision on a release candidate: keep it, free it on its worker
/// ("release key k on worker w"), or return `count` consumer charges of a
/// mirror to the owner shard ("drain n charges to shard s").
struct Release {
  enum Kind : std::uint8_t { kKeep, kFree, kDrain } kind = kKeep;
  int count = 0;  // kDrain: the charges to return
  explicit operator bool() const { return kind != kKeep; }
};

class KeyLifetime {
public:
  /// Throws if release_consumed is combined with an armed failure
  /// detector: lineage recovery re-reads inputs the GC may have released.
  explicit KeyLifetime(const SchedulerParams& params);

  // ---- edge ingested ----
  /// One dependent edge on `dep` was ingested: charge it a consumer.
  /// Throws if the GC already released `dep`'s data.
  void charge(KeyId dep, const Key& name) {
    if (!on_) return;
    Charges& c = at(dep);
    DEISA_CHECK(!c.released, "graph references key '"
                                 << name
                                 << "' already released by the refcount GC");
    // One consumer per dependent edge, whatever the dep's state: the
    // consumer reads it exactly once before finishing.
    ++c.pending;
    ++c.ever;
  }
  /// Owner side: a subscriber shard's slice charged `count` consumers of
  /// local key `id`. True when this settles a balance that an early drain
  /// ack had parked negative: the key is a release candidate again.
  bool charge_remote(KeyId id, const Key& name, int count);
  /// Owner side: a subscriber shard drained `count` charges of `id`; the
  /// key is a release candidate afterwards.
  void drain_remote(KeyId id, int count) { at(id).remote -= count; }

  // ---- key terminal ----
  /// Whether terminal task `id` still holds input charges to return.
  bool holds_inputs(KeyId id) const {
    return on_ && !(id < keys_.size() && keys_[id].inputs_returned);
  }
  /// Terminal task `id` returns one charge on each of its `deps`, each
  /// a release candidate afterwards. False if it held none (GC off, or
  /// already returned on a poison-then-finish path).
  bool return_inputs(KeyId id, std::span<const KeyId> deps);

  // ---- release candidate ----
  /// The core says whether `id` is a mirror of a remote key, and whether
  /// it could free the data now (in memory on a live worker, no client
  /// waiting on it); the charges decide the rest.
  Release decide(KeyId id, bool mirror, bool freeable);
  /// Fresh bytes landed for `id` (a re-scatter): undo an earlier release.
  void refilled(KeyId id) {
    if (id < keys_.size()) keys_[id].released = false;
  }

  // ---- introspection ----
  int pending(KeyId id) const {
    return id < keys_.size() ? keys_[id].pending : 0;
  }
  bool released(KeyId id) const {
    return id < keys_.size() && keys_[id].released;
  }
  std::uint64_t keys_released() const { return keys_released_; }

private:
  struct Charges {
    int pending = 0;  // consumers charged and not yet terminal
    int ever = 0;     // every consumer ever charged
    /// Owner side: remote charges outstanding; negative while a drain ack
    /// has outrun the slice that charges its batch. Non-zero blocks release.
    int remote = 0;
    int acked = 0;    // mirror side: charges already drained to the owner
    bool released = false;
    bool inputs_returned = false;
  };
  Charges& at(KeyId id);

  bool on_;
  std::vector<Charges> keys_;  // KeyId-indexed, grown on first charge
  std::uint64_t keys_released_ = 0;
};

}  // namespace deisa::dts
