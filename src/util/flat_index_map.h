// Flat open-addressing hash map from a 64-bit key to a 32-bit index.
//
// The lookup structure under the FTL's per-request host bookkeeping (the
// mapping cache's lpn -> node table, the async engine's claim table): one
// contiguous slot array, linear probing, Fibonacci hashing, and backward-
// shift deletion, so there are no tombstones and no per-entry allocation.
// The table doubles whenever it would pass half full. Values are indices
// into the caller's own node arrays; the map never owns the payload.

#ifndef GECKOFTL_UTIL_FLAT_INDEX_MAP_H_
#define GECKOFTL_UTIL_FLAT_INDEX_MAP_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.h"

namespace gecko {

class FlatIndexMap {
 public:
  /// Value returned by Find for an absent key (never a valid value).
  static constexpr uint32_t kNone = ~0u;

  /// The value stored for `key`, or kNone.
  uint32_t Find(uint64_t key) const {
    if (size_ == 0) return kNone;
    for (size_t i = Home(key);; i = (i + 1) & mask_) {
      const Slot& slot = slots_[i];
      if (slot.value == kNone) return kNone;
      if (slot.key == key) return slot.value;
    }
  }

  /// Stores `value` under `key`, which must be absent.
  void Insert(uint64_t key, uint32_t value) {
    GECKO_CHECK_NE(value, kNone);
    if ((size_t{size_} + 1) * 2 > slots_.size()) {
      Rehash(slots_.empty() ? 16 : slots_.size() * 2);
    }
    Place(key, value);
    ++size_;
  }

  /// Removes `key`, which must be present.
  void Erase(uint64_t key) {
    size_t hole = Home(key);
    while (slots_[hole].key != key || slots_[hole].value == kNone) {
      GECKO_CHECK_NE(slots_[hole].value, kNone) << "erasing an absent key";
      hole = (hole + 1) & mask_;
    }
    // Backward shift: pull later members of the probe run into the hole.
    // The member at j may move only if its home does not lie cyclically
    // in (hole, j].
    for (size_t j = (hole + 1) & mask_; slots_[j].value != kNone;
         j = (j + 1) & mask_) {
      const size_t home = Home(slots_[j].key);
      const bool stays = hole <= j ? (home > hole && home <= j)
                                   : (home > hole || home <= j);
      if (stays) continue;
      slots_[hole] = slots_[j];
      hole = j;
    }
    slots_[hole].value = kNone;
    --size_;
  }

  /// Drops every key (the slot array keeps its size).
  void Clear() {
    std::fill(slots_.begin(), slots_.end(), Slot{});
    size_ = 0;
  }

  uint32_t size() const { return size_; }

 private:
  struct Slot {
    uint64_t key = 0;
    uint32_t value = kNone;  // kNone marks an empty slot
  };

  size_t Home(uint64_t key) const {
    return static_cast<size_t>((key * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  void Place(uint64_t key, uint32_t value) {
    size_t i = Home(key);
    while (slots_[i].value != kNone) i = (i + 1) & mask_;
    slots_[i] = Slot{key, value};
  }

  void Rehash(size_t num_slots) {
    std::vector<Slot> old(num_slots);
    old.swap(slots_);
    mask_ = num_slots - 1;
    shift_ = 64;
    while ((size_t{1} << (64 - shift_)) < num_slots) --shift_;
    for (const Slot& slot : old) {
      if (slot.value != kNone) Place(slot.key, slot.value);
    }
  }

  std::vector<Slot> slots_;  // power-of-two sized
  size_t mask_ = 0;
  uint32_t shift_ = 64;  // 64 - log2(slots_.size())
  uint32_t size_ = 0;
};

}  // namespace gecko

#endif  // GECKOFTL_UTIL_FLAT_INDEX_MAP_H_
