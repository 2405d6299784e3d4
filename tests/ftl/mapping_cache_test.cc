#include "ftl/mapping_cache.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"

namespace gecko {
namespace {

MappingEntry E(uint32_t block, bool dirty = false, bool uip = false) {
  return MappingEntry{PhysicalAddress{block, 0}, dirty, uip, false};
}

TEST(MappingCacheTest, InsertAndFind) {
  MappingCache cache(4);
  cache.Insert(10, E(1));
  MappingEntry* e = cache.Find(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ppa.block, 1u);
  EXPECT_EQ(cache.Find(11), nullptr);
}

TEST(MappingCacheTest, LruOrderFollowsAccess) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  EXPECT_EQ(cache.PeekLru(), 1u);
  cache.Find(1);  // touch
  EXPECT_EQ(cache.PeekLru(), 2u);
}

TEST(MappingCacheTest, PeekDoesNotTouch) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Peek(1);
  EXPECT_EQ(cache.PeekLru(), 1u);
}

TEST(MappingCacheTest, NeedsEvictionAtCapacity) {
  MappingCache cache(2);
  EXPECT_FALSE(cache.NeedsEviction());
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.NeedsEviction());
  cache.Erase(1);
  EXPECT_FALSE(cache.NeedsEviction());
}

TEST(MappingCacheTest, DirtyCountTracksFlags) {
  MappingCache cache(4);
  cache.Insert(1, E(1, /*dirty=*/true));
  cache.Insert(2, E(2, /*dirty=*/false));
  EXPECT_EQ(cache.dirty_count(), 1u);
  MappingEntry* e = cache.Find(2);
  cache.MarkDirty(e);
  EXPECT_EQ(cache.dirty_count(), 2u);
  cache.MarkDirty(e);  // idempotent
  EXPECT_EQ(cache.dirty_count(), 2u);
  cache.MarkClean(e);
  EXPECT_EQ(cache.dirty_count(), 1u);
  cache.Erase(1);  // erasing a dirty entry decrements
  EXPECT_EQ(cache.dirty_count(), 0u);
}

TEST(MappingCacheTest, DirtyInRangeSelectsByLpn) {
  MappingCache cache(8);
  cache.Insert(10, E(1, true));
  cache.Insert(11, E(2, false));
  cache.Insert(12, E(3, true));
  cache.Insert(20, E(4, true));
  std::vector<Lpn> dirty = cache.DirtyInRange(10, 15);
  ASSERT_EQ(dirty.size(), 2u);
  EXPECT_EQ(dirty[0], 10u);
  EXPECT_EQ(dirty[1], 12u);
}

TEST(MappingCacheTest, OldestDirtySkipsCleanEntries) {
  MappingCache cache(4);
  cache.Insert(1, E(1, false));
  cache.Insert(2, E(2, true));
  cache.Insert(3, E(3, true));
  Lpn out;
  ASSERT_TRUE(cache.OldestDirty(&out));
  EXPECT_EQ(out, 2u);
}

TEST(MappingCacheTest, OldestDirtyFalseWhenAllClean) {
  MappingCache cache(4);
  cache.Insert(1, E(1, false));
  Lpn out;
  EXPECT_FALSE(cache.OldestDirty(&out));
}

TEST(MappingCacheTest, CheckpointReturnsStaleDirtyEntries) {
  // An entry dirtied in epoch e is synchronized by the checkpoint closing
  // epoch e+1 at the latest — the 2-period bound of Section 4.3.
  MappingCache cache(8);
  cache.Insert(1, E(1, true));
  cache.Insert(2, E(2, true));
  // Both were dirtied in the current epoch: not yet stale.
  EXPECT_TRUE(cache.TakeCheckpoint().empty());

  // Entry 1 is *updated* after the checkpoint; entry 2 is not (a read
  // touch does not refresh its dirty epoch).
  cache.MarkDirty(cache.Find(1));
  cache.Find(2);  // read touch only
  std::vector<Lpn> second = cache.TakeCheckpoint();
  // Only entry 2 was dirtied before the current epoch began.
  ASSERT_EQ(second.size(), 1u);
  EXPECT_EQ(second[0], 2u);
  // One more period with no updates: entry 1 goes stale too.
  std::vector<Lpn> third = cache.TakeCheckpoint();
  ASSERT_EQ(third.size(), 2u);  // 1 and the still-dirty 2
}

TEST(MappingCacheTest, ReadTouchesDoNotShieldDirtyEntriesFromCheckpoints) {
  // The deviation documented in DESIGN.md: a frequently-read dirty entry
  // must still be picked up by the next checkpoint, or the recovery scan
  // bound breaks.
  MappingCache cache(8);
  cache.Insert(7, E(1, true));
  cache.TakeCheckpoint();
  for (int i = 0; i < 10; ++i) cache.Find(7);  // reads keep it MRU
  std::vector<Lpn> stale = cache.TakeCheckpoint();
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale[0], 7u);
}

TEST(MappingCacheTest, ResetClearsEverything) {
  MappingCache cache(4);
  cache.Insert(1, E(1, true));
  cache.TakeCheckpoint();
  cache.Reset();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.dirty_count(), 0u);
  EXPECT_EQ(cache.Find(1), nullptr);
}

TEST(MappingCacheTest, LruToMruOrderIsComplete) {
  MappingCache cache(4);
  cache.Insert(5, E(1));
  cache.Insert(6, E(2));
  cache.Find(5);
  std::vector<Lpn> order = cache.LruToMruOrder();
  ASSERT_EQ(order.size(), 2u);
  EXPECT_EQ(order[0], 6u);
  EXPECT_EQ(order[1], 5u);
}

TEST(MappingCacheTest, ContainsDoesNotTouchLru) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_TRUE(cache.Contains(1));
  EXPECT_FALSE(cache.Contains(9));
  // Contains is a Peek: lpn 1 is still the LRU victim.
  EXPECT_EQ(cache.PeekLru(), 1u);
}

TEST(MappingCacheTest, InsertIfAbsentKeepsExistingEntryUntouched) {
  MappingCache cache(3);
  cache.Insert(1, E(1, /*dirty=*/true));
  MappingEntry* e = cache.InsertIfAbsent(1, E(9));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ppa.block, 1u);  // existing entry wins: no overwrite
  EXPECT_TRUE(e->dirty);
  EXPECT_EQ(cache.dirty_count(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  MappingEntry* f = cache.InsertIfAbsent(2, E(2));
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(f->ppa.block, 2u);  // absent: inserted like Insert
  EXPECT_EQ(cache.size(), 2u);
}

TEST(MappingCacheTest, InsertIfAbsentDoesNotRefreshRecency) {
  MappingCache cache(3);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.InsertIfAbsent(1, E(9));
  // The present-entry path is recency-neutral: 1 is still the victim.
  EXPECT_EQ(cache.PeekLru(), 1u);
}

// The FtlCounters::cache_misses split: a batched read with N misses on
// one translation page performs one fetch (miss_fetches) and N-1
// coalesced joins (miss_joins), and on a read-only workload over written
// translation pages the split is exhaustive.
TEST(MappingCacheMissSplitTest, BatchedReadSplitsFetchesFromJoins) {
  FlashDevice device(FtlTestGeometry());
  auto ftl = MakeFtl("DFTL", &device, 4);
  // Populate tpages 0 and 1, then fill the 4-entry cache with tpage-1
  // mappings so lpns 0..5 all miss.
  for (Lpn l = 0; l < 8; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  for (Lpn l = 128; l < 132; ++l) ASSERT_TRUE(ftl->Write(l, 100 + l).ok());
  ASSERT_TRUE(ftl->Flush().ok());
  for (Lpn l = 128; l < 132; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
  }

  const FtlCounters before = ftl->counters();
  IoRequest request = IoRequest::Read({0, 1, 2, 3, 4, 5});
  IoResult result;
  ASSERT_TRUE(ftl->Submit(request, &result).ok());
  ASSERT_TRUE(result.AllOk());
  for (int i = 0; i < 6; ++i) EXPECT_EQ(result.payloads[i], 100u + i);

  const FtlCounters& after = ftl->counters();
  EXPECT_EQ(after.cache_misses, before.cache_misses + 6);
  EXPECT_EQ(after.miss_fetches, before.miss_fetches + 1);
  EXPECT_EQ(after.miss_joins, before.miss_joins + 5);
  // The split is exhaustive here: every one of the six misses either
  // fetched or joined.
  EXPECT_EQ(after.cache_misses - before.cache_misses,
            (after.miss_fetches - before.miss_fetches) +
                (after.miss_joins - before.miss_joins));
}

TEST(MappingCacheEvictionPolicyTest, DefaultsToPureLru) {
  MappingCache cache(4);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  cache.Insert(3, E(3));
  // No scorer installed: the victim IS the LRU entry.
  EXPECT_EQ(cache.PeekEvictionVictim(), cache.PeekLru());
  cache.Find(1);
  EXPECT_EQ(cache.PeekEvictionVictim(), 2u);
}

TEST(MappingCacheEvictionPolicyTest, ScorerPicksColdestWithinScanDepth) {
  MappingCache cache(8);
  // Hotness oracle: lpn 2 is scorching, everything else cold.
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 2 ? 100u : lpn; },
                          /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 6; ++lpn) cache.Insert(lpn, E(lpn));
  // LRU->MRU is 1..6; the scan window is {1,2,3,4}; coldest is 1.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
  cache.Find(1);  // 1 leaves the window; now {2,3,4,5} -> 3 (2 is hot)
  EXPECT_EQ(cache.PeekEvictionVictim(), 3u);
}

TEST(MappingCacheEvictionPolicyTest, TiesBreakTowardLru) {
  MappingCache cache(8);
  cache.SetEvictionPolicy([](Lpn) { return 7u; }, /*scan_depth=*/4);
  for (Lpn lpn = 1; lpn <= 5; ++lpn) cache.Insert(lpn, E(lpn));
  // Uniform scores degenerate to pure LRU.
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, DepthOneKeepsPureLruEvenWithScorer) {
  MappingCache cache(4);
  cache.SetEvictionPolicy([](Lpn lpn) { return 100 - lpn; },
                          /*scan_depth=*/1);
  cache.Insert(1, E(1));
  cache.Insert(2, E(2));
  EXPECT_EQ(cache.PeekEvictionVictim(), 1u);
}

TEST(MappingCacheEvictionPolicyTest, MruEntryIsNeverTheVictim) {
  // The satellite regression: a coalesced miss-join fetches a mapping,
  // inserts it at MRU, and the very next cache operation (the hit that
  // reads through it) may first need an eviction. The just-fetched entry
  // must not be the victim, even when the scorer says it is by far the
  // coldest entry in the cache.
  MappingCache cache(3);
  cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 30 ? 0u : 50u; },
                          /*scan_depth=*/8);  // depth > size: whole window
  cache.Insert(10, E(1));
  cache.Insert(20, E(2));
  cache.Insert(30, E(3));  // the miss fill, at MRU, score 0 (ice cold)
  ASSERT_TRUE(cache.NeedsEviction());
  Lpn victim = cache.PeekEvictionVictim();
  EXPECT_NE(victim, 30u);
  EXPECT_EQ(victim, 10u);  // older entries tie at 50: LRU-most wins
  cache.Erase(victim);
  // The fetched mapping survives to serve its hit.
  EXPECT_NE(cache.Find(30), nullptr);
}

TEST(MappingCacheEvictionPolicyTest, MissJoinThenHitSurvivesFullCache) {
  // End-to-end shape of the InsertIfAbsent miss path under a full cache,
  // in both eviction modes: fill the cache, make room, insert the fetched
  // entry (InsertIfAbsent like the replayed miss fill), then verify a
  // subsequent eviction round never takes the fetched entry out from
  // under the hit that is about to consume it.
  for (bool hotness_mode : {false, true}) {
    MappingCache cache(4);
    if (hotness_mode) {
      // Adversarial scorer: the fetched lpn (99) is the coldest possible.
      cache.SetEvictionPolicy([](Lpn lpn) { return lpn == 99 ? 0u : 10u; },
                              /*scan_depth=*/4);
    }
    for (Lpn lpn = 1; lpn <= 4; ++lpn) cache.Insert(lpn, E(lpn));
    while (cache.NeedsEviction()) cache.Erase(cache.PeekEvictionVictim());
    MappingEntry* fetched = cache.InsertIfAbsent(99, E(9));
    ASSERT_NE(fetched, nullptr);
    ASSERT_TRUE(cache.NeedsEviction());
    EXPECT_NE(cache.PeekEvictionVictim(), 99u) << "hotness=" << hotness_mode;
    cache.Erase(cache.PeekEvictionVictim());
    EXPECT_NE(cache.Find(99), nullptr) << "hotness=" << hotness_mode;
  }
}

// The orders the FTL's simulated behaviour depends on, pinned against a
// reference model (a plain LRU vector plus an ordered map) under random
// operations: LRU-to-MRU order, OldestDirty, hotness-scored eviction
// victims, and ascending lpn order from DirtyInRange and TakeCheckpoint.
class CacheModel {
 public:
  struct Entry {
    bool dirty = false;
    uint64_t epoch = 0;
  };
  std::vector<Lpn> lru;  // front = LRU
  std::map<Lpn, Entry> entries;
  uint64_t epoch = 1;

  void Touch(Lpn lpn) {
    lru.erase(std::find(lru.begin(), lru.end(), lpn));
    lru.push_back(lpn);
  }
  void Insert(Lpn lpn, bool dirty) {
    lru.push_back(lpn);
    entries[lpn] = Entry{dirty, dirty ? epoch : 0};
  }
  void Erase(Lpn lpn) {
    lru.erase(std::find(lru.begin(), lru.end(), lpn));
    entries.erase(lpn);
  }
  Lpn Victim(uint64_t (*score)(Lpn), uint32_t depth) const {
    if (depth <= 1 || lru.size() < 2) return lru.front();
    size_t limit = std::min<size_t>(depth, lru.size() - 1);
    Lpn victim = lru.front();
    for (size_t i = 1; i < limit; ++i) {
      if (score(lru[i]) < score(victim)) victim = lru[i];
    }
    return victim;
  }
  std::vector<Lpn> DirtyInRange(Lpn lo, Lpn hi) const {
    std::vector<Lpn> out;
    for (auto it = entries.lower_bound(lo);
         it != entries.end() && it->first <= hi; ++it) {
      if (it->second.dirty) out.push_back(it->first);
    }
    return out;
  }
  std::vector<Lpn> TakeCheckpoint() {
    std::vector<Lpn> out;
    for (const auto& [lpn, e] : entries) {
      if (e.dirty && e.epoch < epoch) out.push_back(lpn);
    }
    ++epoch;
    return out;
  }
  bool OldestDirty(Lpn* out) const {
    for (Lpn lpn : lru) {
      if (entries.at(lpn).dirty) {
        *out = lpn;
        return true;
      }
    }
    return false;
  }
};

uint64_t PinScore(Lpn lpn) { return (uint64_t{lpn} * 2654435761u) % 5; }

TEST(MappingCacheOrderTest, MatchesReferenceModelUnderRandomOps) {
  for (uint32_t depth : {1u, 4u}) {
    SCOPED_TRACE(depth);
    MappingCache cache(64, /*lpns_per_tpage=*/16);
    if (depth > 1) cache.SetEvictionPolicy(PinScore, depth);
    CacheModel model;
    Rng rng(depth);
    const Lpn kSpace = 300;  // several 16-lpn groups per DirtyInRange
    for (int op = 0; op < 20000; ++op) {
      const Lpn lpn = static_cast<Lpn>(rng.Uniform(kSpace));
      const uint64_t kind = rng.Uniform(100);
      const bool present = model.entries.count(lpn) > 0;
      if (kind < 30) {
        MappingEntry* e = cache.Find(lpn);
        ASSERT_EQ(e != nullptr, present);
        if (present) model.Touch(lpn);
      } else if (kind < 45) {
        if (present) {
          cache.MarkDirty(cache.Find(lpn));
          model.Touch(lpn);
          model.entries[lpn].dirty = true;
          model.entries[lpn].epoch = model.epoch;
        }
      } else if (kind < 55) {
        MappingEntry* e = cache.Find(lpn);
        if (present) {
          model.Touch(lpn);
          if (e->dirty) {
            cache.MarkClean(e);
            model.entries[lpn].dirty = false;
          }
        }
      } else if (kind < 85) {
        if (!present) {
          while (cache.NeedsEviction()) {
            Lpn victim = cache.PeekEvictionVictim();
            ASSERT_EQ(victim, model.Victim(PinScore, depth));
            cache.Erase(victim);
            model.Erase(victim);
          }
          bool dirty = rng.Bernoulli(0.5);
          if (rng.Bernoulli(0.5)) {
            cache.Insert(lpn, E(lpn, dirty));
          } else {
            cache.InsertIfAbsent(lpn, E(lpn, dirty));
          }
          model.Insert(lpn, dirty);
        } else {
          cache.InsertIfAbsent(lpn, E(lpn, true));  // present: no effect
        }
      } else if (kind < 92) {
        if (present) {
          cache.Erase(lpn);
          model.Erase(lpn);
        }
      } else if (kind < 99) {
        Lpn lo = static_cast<Lpn>(rng.Uniform(kSpace));
        Lpn hi = lo + static_cast<Lpn>(rng.Uniform(40));
        ASSERT_EQ(cache.DirtyInRange(lo, hi), model.DirtyInRange(lo, hi));
      } else {
        ASSERT_EQ(cache.TakeCheckpoint(), model.TakeCheckpoint());
      }
      ASSERT_EQ(cache.LruToMruOrder(), model.lru);
      ASSERT_EQ(cache.size(), model.entries.size());
      uint32_t dirty = 0;
      for (const auto& [l, e] : model.entries) dirty += e.dirty ? 1 : 0;
      ASSERT_EQ(cache.dirty_count(), dirty);
      Lpn got = 0, want = 0;
      bool has = cache.OldestDirty(&got);
      ASSERT_EQ(has, model.OldestDirty(&want));
      if (has) {
        ASSERT_EQ(got, want);
      }
      if (cache.size() > 0) {
        ASSERT_EQ(cache.PeekEvictionVictim(), model.Victim(PinScore, depth));
      }
    }
  }
}

TEST(MappingCacheOrderTest, DirtyInRangeAndCheckpointAreAscending) {
  MappingCache cache(32, /*lpns_per_tpage=*/16);
  // Inserted out of lpn order, with clean entries interleaved.
  const Lpn kLpns[] = {47, 3, 31, 16, 5, 40, 17, 2, 33, 15};
  for (Lpn lpn : kLpns) cache.Insert(lpn, E(lpn, /*dirty=*/lpn % 3 != 0));
  EXPECT_EQ(cache.DirtyInRange(0, 63),
            (std::vector<Lpn>{2, 5, 16, 17, 31, 40, 47}));
  EXPECT_EQ(cache.DirtyInRange(16, 31), (std::vector<Lpn>{16, 17, 31}));
  EXPECT_TRUE(cache.TakeCheckpoint().empty());
  cache.MarkDirty(cache.Find(40));  // re-dirtied: not stale at the next one
  EXPECT_EQ(cache.TakeCheckpoint(),
            (std::vector<Lpn>{2, 5, 16, 17, 31, 47}));
}

TEST(MappingCacheDeathTest, DoubleInsertAborts) {
  MappingCache cache(4);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(1, E(2)), "already cached");
}

TEST(MappingCacheDeathTest, InsertBeyondCapacityAborts) {
  MappingCache cache(1);
  cache.Insert(1, E(1));
  EXPECT_DEATH(cache.Insert(2, E(2)), "eviction");
}

}  // namespace
}  // namespace gecko
