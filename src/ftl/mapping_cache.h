// LRU cache of mapping entries (Figure 7 of the paper).
//
// Holds the recently-used part of the logical-to-physical translation
// table in integrated RAM. Entries carry three flags:
//   dirty     — newer than the flash-resident translation table;
//   uip       — an Unidentified Invalid Page exists: some flash page holds
//               a before-image of this logical page that has not yet been
//               reported to the page-validity store (Section 4.1);
//   uncertain — the entry was recreated during recovery and its dirty/uip
//               flags are assumed-true until a synchronization operation
//               verifies them (Appendix C.3).
//
// Layout: entries live in a node array; a flat open-addressing hash table
// (util/flat_index_map.h) maps an lpn to its node. An intrusive doubly-
// linked list through the nodes orders them by recency, and a second one
// per translation page links that page's dirty entries, so a
// synchronization operation finds the entries it flushes together
// (footnote 6) without a range scan over the whole cache. Lookups,
// inserts, erases and recency updates are O(1); nothing is allocated per
// entry. Checkpoints (Section 4.3) keep a per-entry dirtying epoch rather
// than symbols in the LRU list; see TakeCheckpoint.

#ifndef GECKOFTL_FTL_MAPPING_CACHE_H_
#define GECKOFTL_FTL_MAPPING_CACHE_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "flash/types.h"
#include "util/check.h"
#include "util/flat_index_map.h"

namespace gecko {

/// One cached mapping entry.
struct MappingEntry {
  PhysicalAddress ppa;
  bool dirty = false;
  bool uip = false;
  bool uncertain = false;
  /// Checkpoint epoch in which the entry was last dirtied (maintained by
  /// MappingCache::MarkDirty). Checkpoints synchronize entries dirtied
  /// before the previous checkpoint.
  uint64_t dirty_epoch = 0;
};

class MappingCache {
 public:
  /// `lpns_per_tpage` is the number of mapping entries one translation
  /// page holds: the grouping of the dirty index that serves DirtyInRange
  /// and TakeCheckpoint. The default makes every lpn its own group.
  explicit MappingCache(uint32_t capacity, uint32_t lpns_per_tpage = 1);

  /// Looks up `lpn` and refreshes its recency. Returns nullptr on miss.
  /// Entry pointers stay valid until the next Insert or Reset, or until
  /// the entry itself is erased.
  MappingEntry* Find(Lpn lpn);

  /// Looks up without touching recency (used by GC's UIP check, which
  /// inspects the cache rather than using it).
  const MappingEntry* Peek(Lpn lpn) const {
    uint32_t node = index_.Find(lpn);
    return node == kNone ? nullptr : &entries_[node];
  }

  /// Whether `lpn` is cached, without touching recency.
  bool Contains(Lpn lpn) const { return index_.Find(lpn) != kNone; }

  /// Inserts a new entry at MRU. The caller must have made room first
  /// (while NeedsEviction(): evict). Aborts if `lpn` is already present.
  MappingEntry* Insert(Lpn lpn, const MappingEntry& entry);

  /// Insert that tolerates the entry already being present: returns the
  /// existing entry untouched (no recency refresh, no overwrite) when
  /// `lpn` is cached, otherwise inserts at MRU like Insert. Used by batched
  /// and replayed miss fills, where an earlier extent of the same group
  /// (or an interleaved request) may have populated the lpn already. The
  /// caller must still have made room first when the lpn is absent.
  MappingEntry* InsertIfAbsent(Lpn lpn, const MappingEntry& entry);

  bool NeedsEviction() const { return index_.size() >= capacity_; }

  /// Returns the least-recently-used lpn without removing it.
  Lpn PeekLru() const;

  /// Hotness-weighted eviction (hot/cold stream separation): installs a
  /// scorer (higher = hotter) and the number of LRU-end entries
  /// PeekEvictionVictim scans for the coldest candidate. Unset scorer or
  /// depth <= 1 keeps pure LRU. Orthogonal to the checkpoint-epoch aging
  /// of TakeCheckpoint, which keys off dirtying epochs, not LRU position.
  using EvictionScorer = std::function<uint64_t(Lpn)>;
  void SetEvictionPolicy(EvictionScorer scorer, uint32_t scan_depth) {
    scorer_ = std::move(scorer);
    scan_depth_ = scan_depth;
  }

  /// The eviction candidate: the LRU entry under pure LRU; with a scorer,
  /// the coldest of the `scan_depth` least-recently-used entries (ties
  /// break toward LRU). The MRU entry is never a candidate: a just-
  /// inserted entry (e.g. a coalesced miss fill about to be read through)
  /// must survive at least until the next cache operation, whatever its
  /// hotness.
  Lpn PeekEvictionVictim() const;

  /// Removes `lpn` from the cache.
  void Erase(Lpn lpn);

  /// Dirty entries whose lpn lies in [lo, hi], in ascending lpn order —
  /// the entries one synchronization operation flushes together.
  std::vector<Lpn> DirtyInRange(Lpn lo, Lpn hi) const;

  /// Translation pages holding at least one dirty entry, ascending (what
  /// a full flush synchronizes).
  std::vector<uint32_t> DirtyTPages() const;

  /// Oldest dirty entry in LRU order (for the dirty-entry cap of LazyFTL
  /// and IB-FTL). Returns false if there are no dirty entries.
  bool OldestDirty(Lpn* out) const;

  /// Takes a checkpoint (Section 4.3): returns the dirty lpns whose last
  /// *update* predates the previous checkpoint, in ascending lpn order,
  /// which the caller must synchronize, and advances the checkpoint epoch.
  ///
  /// The paper describes this as a backward walk of the LRU queue between
  /// two checkpoint symbols. That formulation bounds staleness by *use*
  /// recency, which is only equivalent when every cache touch is an
  /// update; under mixed read/write workloads a frequently-read dirty
  /// entry would stay in front of the symbol forever and never be
  /// synchronized, breaking the 2-checkpoint recovery-scan bound
  /// (DESIGN.md §3). Tracking the dirtying epoch per entry restores the
  /// guarantee with the same O(C)-per-checkpoint cost.
  std::vector<Lpn> TakeCheckpoint();

  /// Marks an entry dirty, stamping the current checkpoint epoch. All
  /// dirtying must go through here (or Insert with dirty=true).
  void MarkDirty(MappingEntry* entry);

  /// Clears an entry's dirty flag once its mapping reached flash. All
  /// cleaning must go through here.
  void MarkClean(MappingEntry* entry);

  uint64_t epoch() const { return epoch_; }

  /// Advances the checkpoint epoch without taking a checkpoint, so every
  /// currently-dirty entry becomes due at the *next* TakeCheckpoint
  /// instead of the one after. Recovery uses this on the entries it
  /// re-inserts from the backward scan: they are not freshly dirtied
  /// work, they are the pre-crash instance's un-checkpointed backlog, and
  /// granting them a full extra period would let crash churn outrun the
  /// scan's coverage.
  void AdvanceEpoch() { ++epoch_; }

  uint32_t size() const { return index_.size(); }
  uint32_t capacity() const { return capacity_; }
  uint32_t dirty_count() const { return dirty_count_; }

  /// Drops everything (power failure).
  void Reset();

  /// All lpns currently cached, in LRU-to-MRU order (for tests).
  std::vector<Lpn> LruToMruOrder() const;

 private:
  static constexpr uint32_t kNone = FlatIndexMap::kNone;

  /// Per-node links, parallel to entries_.
  struct Links {
    Lpn lpn = 0;
    uint32_t lru_prev = kNone;  // toward LRU
    uint32_t lru_next = kNone;  // toward MRU
    uint32_t dirty_prev = kNone;
    uint32_t dirty_next = kNone;
  };
  uint32_t NodeOf(const MappingEntry* entry) const;
  uint32_t TPageOf(Lpn lpn) const { return lpn / lpns_per_tpage_; }
  void LruUnlink(uint32_t node);
  void LruPushMru(uint32_t node);
  void DirtyLink(uint32_t node);
  void DirtyUnlink(uint32_t node);

  uint32_t capacity_;
  uint32_t lpns_per_tpage_;
  FlatIndexMap index_;                 // lpn -> node
  std::vector<MappingEntry> entries_;  // node array
  std::vector<Links> links_;           // parallel to entries_
  std::vector<uint32_t> free_nodes_;   // erased nodes, reused first
  uint32_t lru_head_ = kNone;          // LRU end
  uint32_t lru_tail_ = kNone;          // MRU end
  /// Head of each translation page's dirty list (kNone: no dirty entry).
  std::vector<uint32_t> dirty_head_;
  uint32_t dirty_count_ = 0;
  uint64_t epoch_ = 1;
  EvictionScorer scorer_;    // unset = pure LRU eviction
  uint32_t scan_depth_ = 1;  // LRU-end entries scanned per eviction
};

}  // namespace gecko

#endif  // GECKOFTL_FTL_MAPPING_CACHE_H_
