#include "ftl/block_manager.h"

#include <algorithm>
#include <map>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace gecko {
namespace {

Geometry SmallGeometry() {
  Geometry g;
  g.num_blocks = 8;
  g.pages_per_block = 4;
  g.page_bytes = 512;
  g.logical_ratio = 0.7;
  return g;
}

SpareArea Spare(PageType type, uint32_t key = 0) {
  SpareArea s;
  s.type = type;
  s.key = key;
  return s;
}

TEST(BlockManagerTest, SeparatesBlockGroups) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, /*auto_erase_metadata=*/true);
  PhysicalAddress u = bm.AllocatePage(PageType::kUser);
  PhysicalAddress t = bm.AllocatePage(PageType::kTranslation);
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  // One active block per group (Figure 8).
  EXPECT_NE(u.block, t.block);
  EXPECT_NE(u.block, p.block);
  EXPECT_NE(t.block, p.block);
  EXPECT_EQ(bm.BlockType(u.block), PageType::kUser);
  EXPECT_EQ(bm.BlockType(t.block), PageType::kTranslation);
  EXPECT_EQ(bm.BlockType(p.block), PageType::kPvm);
}

TEST(BlockManagerTest, AppendsWithinActiveBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress a = bm.AllocatePage(PageType::kUser);
  PhysicalAddress b = bm.AllocatePage(PageType::kUser);
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.page + 1, b.page);
}

TEST(BlockManagerTest, RotatesToFreshBlockWhenFull) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress first = bm.AllocatePage(PageType::kUser);
  for (int i = 0; i < 3; ++i) bm.AllocatePage(PageType::kUser);
  PhysicalAddress next = bm.AllocatePage(PageType::kUser);
  EXPECT_NE(first.block, next.block);
  EXPECT_TRUE(bm.IsActive(next.block));
  EXPECT_FALSE(bm.IsActive(first.block));
}

TEST(BlockManagerTest, AutoErasesFullyInvalidMetadataBlock) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
    dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  // Retire the active by allocating into a fresh block.
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);

  uint32_t free_before = bm.NumFreeBlocks();
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  // Section 4.2: the fully-invalid metadata block is erased for free.
  EXPECT_EQ(bm.NumFreeBlocks(), free_before + 1);
  EXPECT_EQ(bm.metadata_blocks_erased(), 1u);
  EXPECT_EQ(bm.BlockType(pages[0].block), PageType::kFree);
}

TEST(BlockManagerTest, GreedyModeLeavesDeadMetadataToGc) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, /*auto_erase_metadata=*/false);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
    dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
    pages.push_back(p);
  }
  PhysicalAddress p = bm.AllocatePage(PageType::kPvm);
  dev.WritePage(p, Spare(PageType::kPvm), 0, IoPurpose::kPvm);
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);
  EXPECT_EQ(bm.BlockType(pages[0].block), PageType::kPvm);
}

TEST(BlockManagerTest, PinDefersEraseUntilUnpin) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  std::vector<PhysicalAddress> pages;
  for (int i = 0; i < 4; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kTranslation);
    dev.WritePage(p, Spare(PageType::kTranslation), 0,
                  IoPurpose::kTranslation);
    pages.push_back(p);
  }
  PhysicalAddress p2 = bm.AllocatePage(PageType::kTranslation);
  dev.WritePage(p2, Spare(PageType::kTranslation), 0, IoPurpose::kTranslation);

  bm.Pin(pages[0].block, /*seq=*/100);
  for (const PhysicalAddress& addr : pages) {
    bm.OnMetadataPageInvalidated(addr);
  }
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);  // pinned: not erased
  bm.UnpinThrough(99);
  EXPECT_EQ(bm.metadata_blocks_erased(), 0u);  // pin is newer than horizon
  bm.UnpinThrough(100);
  EXPECT_EQ(bm.metadata_blocks_erased(), 1u);  // released and erased
}

TEST(BlockManagerTest, BlocksOfTypeListsAssignments) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  PhysicalAddress u = bm.AllocatePage(PageType::kUser);
  bm.AllocatePage(PageType::kPvm);
  std::vector<BlockId> users = bm.BlocksOfType(PageType::kUser);
  ASSERT_EQ(users.size(), 1u);
  EXPECT_EQ(users[0], u.block);
  EXPECT_EQ(bm.BlocksOfType(PageType::kFree).size(), 6u);
}

TEST(BlockManagerTest, RecoverFromBidRestoresTypesAndActives) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  // Write two full user blocks and one partial (the crash-time active).
  for (int i = 0; i < 9; ++i) {
    PhysicalAddress p = bm.AllocatePage(PageType::kUser);
    dev.WritePage(p, Spare(PageType::kUser, i), i, IoPurpose::kUserWrite);
  }
  PhysicalAddress t = bm.AllocatePage(PageType::kTranslation);
  dev.WritePage(t, Spare(PageType::kTranslation), 0, IoPurpose::kTranslation);

  // Crash: rebuild from a BID assembled the way BaseFtl does.
  std::vector<BlockManager::BidEntry> bid(8);
  for (BlockId b = 0; b < 8; ++b) {
    PageReadResult r = dev.ReadSpare({b, 0}, IoPurpose::kRecovery);
    if (!r.written) continue;
    bid[b].type = r.spare.type;
    bid[b].first_seq = r.spare.seq;
    bid[b].pages_written = dev.PagesWritten(b);
  }
  bm.ResetRamState();
  bm.RecoverFromBid(bid);

  EXPECT_EQ(bm.BlocksOfType(PageType::kUser).size(), 3u);
  EXPECT_EQ(bm.BlocksOfType(PageType::kTranslation).size(), 1u);
  // The partial user block resumes as active: the next allocation continues
  // at its write pointer.
  PhysicalAddress next = bm.AllocatePage(PageType::kUser);
  EXPECT_EQ(dev.PagesWritten(next.block), next.page);
  dev.WritePage(next, Spare(PageType::kUser, 99), 99, IoPurpose::kUserWrite);
}

// IsActive is answered from a per-block slot count; these compare it and
// IsPinned against a brute-force view after every operation that
// assigns or vacates a stripe slot or changes a pin: allocation (normal,
// stream-affine and compact), program-fail vacates, auto-erase, BID
// recovery and the RAM reset.
void ExpectBookkeepingMatchesBruteForce(
    const BlockManager& bm, uint32_t num_blocks,
    const std::map<BlockId, uint64_t>& pins) {
  const std::vector<BlockId> held = bm.ActiveBlocks();
  for (BlockId b = 0; b < num_blocks; ++b) {
    const bool active = std::find(held.begin(), held.end(), b) != held.end();
    ASSERT_EQ(bm.IsActive(b), active) << "block " << b;
    ASSERT_EQ(bm.IsPinned(b), pins.count(b) > 0) << "block " << b;
  }
  ASSERT_EQ(bm.NumPinned(), pins.size());
}

TEST(BlockManagerTest, ActiveAndPinnedMatchBruteForceUnderRandomOps) {
  Geometry g = SmallGeometry();
  g.num_blocks = 48;
  g.num_channels = 4;
  const PageType kTypes[] = {PageType::kUser, PageType::kTranslation,
                             PageType::kPvm};
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    FlashDevice dev(g);
    BlockManager bm(&dev, /*auto_erase_metadata=*/true);
    bm.ConfigureTempClasses(2);
    Rng rng(seed);
    std::map<BlockId, uint64_t> pins;          // model of the pin set
    std::vector<PhysicalAddress> live_meta;    // metadata pages still live
    uint64_t seq = 0;
    for (int op = 0; op < 3000; ++op) {
      const uint64_t kind = rng.Uniform(100);
      if (kind < 55 && bm.NumFreeBlocks() > 6) {
        PageType type = kTypes[rng.Uniform(3)];
        uint32_t stream = rng.Bernoulli(0.3)
                              ? static_cast<uint32_t>(rng.Uniform(8))
                              : kNoStream;
        bm.set_compact_mode(rng.Bernoulli(0.2));
        PhysicalAddress a = bm.AllocatePage(
            type, stream, static_cast<uint8_t>(rng.Uniform(2)));
        dev.WritePage(a, Spare(type), 0, IoPurpose::kOther);
        if (type != PageType::kUser) live_meta.push_back(a);
      } else if (kind < 75 && !live_meta.empty()) {
        // Invalidate a metadata page; the last one auto-erases its block.
        size_t i = rng.Uniform(live_meta.size());
        PhysicalAddress a = live_meta[i];
        live_meta[i] = live_meta.back();
        live_meta.pop_back();
        bm.OnMetadataPageInvalidated(a);
      } else if (kind < 85) {
        // Reclaim a full, idle user block the way GC does.
        for (BlockId b = 0; b < g.num_blocks; ++b) {
          if (bm.BlockType(b) == PageType::kUser && !bm.IsActive(b) &&
              dev.PagesWritten(b) == g.pages_per_block) {
            bm.EraseOrRetire(b, IoPurpose::kGcMigration);
            break;
          }
        }
      } else if (kind < 90) {
        // Cross the fail budget of an active user block: its slot is
        // vacated.
        std::vector<BlockId> held = bm.ActiveBlocks();
        if (!held.empty()) {
          BlockId b = held[rng.Uniform(held.size())];
          if (bm.BlockType(b) == PageType::kUser) {
            for (int f = 0; f < 3; ++f) bm.OnProgramFailed({b, 0});
          }
        }
      } else if (kind < 95) {
        BlockId b = static_cast<BlockId>(rng.Uniform(g.num_blocks));
        ++seq;
        bm.Pin(b, seq);
        uint64_t& pin = pins[b];
        pin = std::max(pin, seq);
      } else if (kind < 98) {
        uint64_t through = seq > 0 ? rng.Uniform(seq + 1) : 0;
        bm.UnpinThrough(through);
        for (auto it = pins.begin(); it != pins.end();) {
          it = it->second <= through ? pins.erase(it) : std::next(it);
        }
      } else {
        // Power failure: rebuild from the BID (partial blocks resume as
        // actives), then forget the RAM-only metadata bookkeeping.
        std::vector<BlockManager::BidEntry> bid(g.num_blocks);
        for (BlockId b = 0; b < g.num_blocks; ++b) {
          PageReadResult r = dev.ReadSpare({b, 0}, IoPurpose::kRecovery);
          if (!r.written) continue;
          bid[b].type = r.spare.type;
          bid[b].first_seq = r.spare.seq;
          bid[b].pages_written = dev.PagesWritten(b);
          bid[b].temp = bm.BlockTemp(b);
        }
        bm.ResetRamState();
        pins.clear();
        ASSERT_NO_FATAL_FAILURE(
            ExpectBookkeepingMatchesBruteForce(bm, g.num_blocks, pins));
        bm.RecoverFromBid(bid);
        std::vector<PhysicalAddress> live;
        for (const PhysicalAddress& a : live_meta) {
          if (bm.BlockType(a.block) != PageType::kFree) live.push_back(a);
        }
        live_meta = live;
        bm.RecoverMetadataLiveCounts(live_meta);
      }
      ASSERT_NO_FATAL_FAILURE(
          ExpectBookkeepingMatchesBruteForce(bm, g.num_blocks, pins));
    }
  }
}

TEST(BlockManagerDeathTest, ExhaustionAborts) {
  FlashDevice dev(SmallGeometry());
  BlockManager bm(&dev, true);
  EXPECT_DEATH(
      {
        for (int i = 0; i < 100; ++i) bm.AllocatePage(PageType::kUser);
      },
      "out of free blocks");
}

}  // namespace
}  // namespace gecko
