#include "deisa/dts/key_lifetime.hpp"

#include "deisa/dts/scheduler.hpp"

namespace deisa::dts {

KeyLifetime::KeyLifetime(const SchedulerParams& params)
    : on_(params.release_consumed) {
  // Recovery starts from the failure detector, and recovery is what needs
  // the released inputs back; until the two compose, refuse the pair.
  DEISA_CHECK(!on_ || params.heartbeat_timeout <= 0.0,
              "release_consumed cannot be combined with heartbeat_timeout > 0 "
              "(an armed failure detector, which every fault plan arms): "
              "lineage recovery would re-read inputs the refcount GC already "
              "released (DESIGN.md §5g)");
}

KeyLifetime::Charges& KeyLifetime::at(KeyId id) {
  if (id >= keys_.size()) keys_.resize(static_cast<std::size_t>(id) + 1);
  return keys_[id];
}

bool KeyLifetime::charge_remote(KeyId id, const Key& name, int count) {
  if (!on_ || count <= 0) return false;
  Charges& c = at(id);
  DEISA_CHECK(!c.released,
              "cross-shard graph references key '"
                  << name << "' already released by the refcount GC");
  c.ever += count;
  c.remote += count;
  // Back at zero from below: the drain ack outran this slice (they travel
  // on different channels), and this charge is now the release trigger.
  return c.remote == 0;
}

bool KeyLifetime::return_inputs(KeyId id, std::span<const KeyId> deps) {
  if (!holds_inputs(id)) return false;
  at(id).inputs_returned = true;
  for (const KeyId d : deps) {
    Charges& c = at(d);
    DEISA_ASSERT(c.pending > 0, "refcount underflow on key id " << d);
    --c.pending;
  }
  return true;
}

Release KeyLifetime::decide(KeyId id, bool mirror, bool freeable) {
  if (!on_) return {};
  Charges& c = at(id);
  if (mirror) {
    // Subscriber side: the owner shard holds the authoritative count. Once
    // every local consumer charged against the mirror has drained, return
    // the charges; the owner releases iff local AND remote consumers are
    // all accounted for.
    if (c.pending != 0 || c.ever <= c.acked) return {};
    const int n = c.ever - c.acked;
    c.acked = c.ever;
    return {Release::kDrain, n};
  }
  // Never release a key that still has (or could get) readers: a pending
  // consumer holds a charge until it is terminal, a key nothing ever
  // consumed is a gather target or a leaf, and a non-zero remote balance
  // means cross-shard charges are outstanding (or an ack outran its slice).
  if (!freeable || c.released || c.ever == 0 || c.pending > 0 || c.remote != 0)
    return {};
  c.released = true;
  ++keys_released_;
  return {Release::kFree, 0};
}

}  // namespace deisa::dts
