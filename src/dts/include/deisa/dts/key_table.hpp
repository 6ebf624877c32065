// Key interning: the scheduler maps each Key string to a dense KeyId
// exactly once, at ingestion, and runs every hot path on the integer
// handle. This is the data-structure answer to Böhm & Beránek's finding
// that Dask's central scheduler spends its time hashing/copying key
// strings in per-task bookkeeping.
//
// The table is a single open-addressing hash set (power-of-two slot
// array, linear probing) storing {64-bit hash, KeyId}; the key strings
// themselves live in a flat vector indexed by KeyId, so name(id) is one
// array load and intern/find touch one contiguous slot run plus at most
// one string compare per 64-bit hash collision. Ids are dense and
// allocated in insertion order — the scheduler keeps its TaskRecords in
// a parallel vector<TaskRecord> indexed by the same ids.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "deisa/dts/task.hpp"
#include "deisa/util/error.hpp"

namespace deisa::dts {

class KeyTable {
 public:
  KeyTable() { rehash(kInitialSlots); }

  /// Number of interned keys (== one past the largest KeyId handed out).
  std::size_t size() const { return names_.size(); }

  /// Pre-size for `n` total keys (amortizes slot-array growth across a
  /// whole update_graph batch instead of per insert).
  void reserve(std::size_t n) {
    names_.reserve(n);
    std::size_t want = kInitialSlots;
    while (n + n / 2 >= want) want <<= 1;  // keep load factor under 2/3
    if (want > slots_.size()) rehash(want);
  }

  const Key& name(KeyId id) const {
    DEISA_ASSERT(id < names_.size(), "KeyId out of range: " << id);
    return names_[id];
  }

  /// The table's hash of `key` — exposed so batch ingestion can hash
  /// ahead and prefetch() slots a few items before probing them (the
  /// table is DRAM-resident at paper scale; overlapping the misses is
  /// worth ~2x on ingestion throughput).
  static std::uint64_t hash_key(std::string_view key) { return hash(key); }

  /// Warm the first probe slot for a key hashed with hash_key().
  void prefetch(std::uint64_t h) const {
    __builtin_prefetch(&slots_[h & mask_], 0, 1);
  }

  /// Id of `key`, or kNoKeyId if it was never interned.
  KeyId find(std::string_view key) const { return find_hashed(hash(key), key); }

  KeyId find_hashed(std::uint64_t h, std::string_view key) const {
    const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = h & mask_;
    while (true) {
      const Slot& s = slots_[i];
      if (s.id == kNoKeyId) return kNoKeyId;
      if (s.tag == tag && names_[s.id] == key) return s.id;
      i = (i + 1) & mask_;
    }
  }

  /// Intern `key`, consuming the string only on first sight. Returns
  /// {id, inserted}; on a hit the argument is left untouched.
  std::pair<KeyId, bool> intern(Key&& key) {
    const std::uint64_t h = hash(key);
    return intern_hashed(h, std::move(key));
  }

  std::pair<KeyId, bool> intern_hashed(std::uint64_t h, Key&& key) {
    if (names_.size() + names_.size() / 2 >= slots_.size())
      rehash(slots_.size() * 2);
    const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
    std::size_t i = h & mask_;
    while (true) {
      Slot& s = slots_[i];
      if (s.id == kNoKeyId) {
        const KeyId id = static_cast<KeyId>(names_.size());
        names_.push_back(std::move(key));
        s.tag = tag;
        s.id = id;
        return {id, true};
      }
      if (s.tag == tag && names_[s.id] == key) return {s.id, false};
      i = (i + 1) & mask_;
    }
  }

 private:
  // 8-byte slot: the table stays half the cache footprint of a
  // {hash64, id} layout. The tag is the high hash half (the index uses
  // the low half), so a tag match is almost always the key — the string
  // compare then confirms it (ids must never be wrong, only slow).
  struct Slot {
    std::uint32_t tag = 0;
    KeyId id = kNoKeyId;
  };

  static constexpr std::size_t kInitialSlots = 1024;  // power of two

  // FNV-1a with a final avalanche; keys are short, so the byte loop wins
  // over fancier block hashes once the table fits in cache.
  static std::uint64_t hash(std::string_view key) {
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : key) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ull;
    }
    h ^= h >> 33;  // finalize: linear probing needs entropy in low bits
    h *= 0xff51afd7ed558ccdull;
    h ^= h >> 33;
    return h;
  }

  void rehash(std::size_t nslots) {
    slots_.assign(nslots, Slot{});
    mask_ = nslots - 1;
    // Slots keep only the tag half of the hash; re-place from the names.
    for (KeyId id = 0; id < names_.size(); ++id) {
      const std::uint64_t h = hash(names_[id]);
      std::size_t i = h & mask_;
      while (slots_[i].id != kNoKeyId) i = (i + 1) & mask_;
      slots_[i] = Slot{static_cast<std::uint32_t>(h >> 32), id};
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::vector<Key> names_;  // KeyId -> key string
};

}  // namespace deisa::dts
