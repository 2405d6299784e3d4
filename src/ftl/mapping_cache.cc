#include "ftl/mapping_cache.h"

#include <algorithm>

namespace gecko {

MappingCache::MappingCache(uint32_t capacity, uint32_t lpns_per_tpage)
    : capacity_(capacity), lpns_per_tpage_(lpns_per_tpage) {
  GECKO_CHECK_GT(capacity, 0u);
  GECKO_CHECK_GT(lpns_per_tpage, 0u);
}

// --- Intrusive lists -------------------------------------------------------

uint32_t MappingCache::NodeOf(const MappingEntry* entry) const {
  GECKO_CHECK(entry >= entries_.data() &&
              entry < entries_.data() + entries_.size())
      << "entry does not belong to this cache";
  return static_cast<uint32_t>(entry - entries_.data());
}

void MappingCache::LruUnlink(uint32_t node) {
  Links& l = links_[node];
  if (l.lru_prev != kNone) {
    links_[l.lru_prev].lru_next = l.lru_next;
  } else {
    lru_head_ = l.lru_next;
  }
  if (l.lru_next != kNone) {
    links_[l.lru_next].lru_prev = l.lru_prev;
  } else {
    lru_tail_ = l.lru_prev;
  }
  l.lru_prev = l.lru_next = kNone;
}

void MappingCache::LruPushMru(uint32_t node) {
  Links& l = links_[node];
  l.lru_prev = lru_tail_;
  l.lru_next = kNone;
  if (lru_tail_ != kNone) {
    links_[lru_tail_].lru_next = node;
  } else {
    lru_head_ = node;
  }
  lru_tail_ = node;
}

void MappingCache::DirtyLink(uint32_t node) {
  const uint32_t t = TPageOf(links_[node].lpn);
  if (t >= dirty_head_.size()) dirty_head_.resize(t + 1, kNone);
  Links& l = links_[node];
  l.dirty_prev = kNone;
  l.dirty_next = dirty_head_[t];
  if (l.dirty_next != kNone) links_[l.dirty_next].dirty_prev = node;
  dirty_head_[t] = node;
  ++dirty_count_;
}

void MappingCache::DirtyUnlink(uint32_t node) {
  Links& l = links_[node];
  if (l.dirty_prev != kNone) {
    links_[l.dirty_prev].dirty_next = l.dirty_next;
  } else {
    dirty_head_[TPageOf(l.lpn)] = l.dirty_next;
  }
  if (l.dirty_next != kNone) links_[l.dirty_next].dirty_prev = l.dirty_prev;
  l.dirty_prev = l.dirty_next = kNone;
  GECKO_CHECK_GT(dirty_count_, 0u);
  --dirty_count_;
}

// --- Public operations -----------------------------------------------------

MappingEntry* MappingCache::Find(Lpn lpn) {
  uint32_t node = index_.Find(lpn);
  if (node == kNone) return nullptr;
  if (node != lru_tail_) {
    LruUnlink(node);
    LruPushMru(node);
  }
  return &entries_[node];
}

MappingEntry* MappingCache::Insert(Lpn lpn, const MappingEntry& entry) {
  GECKO_CHECK(index_.Find(lpn) == kNone) << "lpn " << lpn << " already cached";
  GECKO_CHECK(!NeedsEviction()) << "insert without prior eviction";
  uint32_t node;
  if (!free_nodes_.empty()) {
    node = free_nodes_.back();
    free_nodes_.pop_back();
  } else {
    node = static_cast<uint32_t>(entries_.size());
    entries_.emplace_back();
    links_.emplace_back();
  }
  index_.Insert(lpn, node);
  entries_[node] = entry;
  links_[node] = Links{};
  links_[node].lpn = lpn;
  LruPushMru(node);
  if (entry.dirty) {
    entries_[node].dirty_epoch = epoch_;
    DirtyLink(node);
  }
  return &entries_[node];
}

MappingEntry* MappingCache::InsertIfAbsent(Lpn lpn,
                                           const MappingEntry& entry) {
  uint32_t node = index_.Find(lpn);
  if (node != kNone) return &entries_[node];
  return Insert(lpn, entry);
}

void MappingCache::MarkDirty(MappingEntry* entry) {
  if (!entry->dirty) {
    entry->dirty = true;
    DirtyLink(NodeOf(entry));
  }
  entry->dirty_epoch = epoch_;
}

void MappingCache::MarkClean(MappingEntry* entry) {
  GECKO_CHECK(entry->dirty) << "cleaning a clean entry";
  entry->dirty = false;
  DirtyUnlink(NodeOf(entry));
}

Lpn MappingCache::PeekLru() const {
  GECKO_CHECK(lru_head_ != kNone) << "PeekLru on empty cache";
  return links_[lru_head_].lpn;
}

Lpn MappingCache::PeekEvictionVictim() const {
  GECKO_CHECK(lru_head_ != kNone) << "PeekEvictionVictim on empty cache";
  if (!scorer_ || scan_depth_ <= 1 || size() < 2) {
    return links_[lru_head_].lpn;
  }
  // Scan up to scan_depth_ entries from the LRU end — but never the MRU
  // entry (see the header: a just-inserted miss fill must survive its
  // first use). Ties keep the least-recently-used candidate, so a
  // uniformly-cold window degenerates to pure LRU.
  uint64_t limit = size() - 1;
  if (scan_depth_ < limit) limit = scan_depth_;
  Lpn victim = links_[lru_head_].lpn;
  uint64_t best = scorer_(victim);
  uint32_t node = lru_head_;
  for (uint64_t i = 1; i < limit; ++i) {
    node = links_[node].lru_next;
    const Lpn lpn = links_[node].lpn;
    uint64_t score = scorer_(lpn);
    if (score < best) {
      best = score;
      victim = lpn;
    }
  }
  return victim;
}

void MappingCache::Erase(Lpn lpn) {
  uint32_t node = index_.Find(lpn);
  GECKO_CHECK(node != kNone);
  if (entries_[node].dirty) DirtyUnlink(node);
  LruUnlink(node);
  index_.Erase(lpn);
  free_nodes_.push_back(node);
}

std::vector<Lpn> MappingCache::DirtyInRange(Lpn lo, Lpn hi) const {
  std::vector<Lpn> out;
  if (lo > hi || dirty_head_.empty()) return out;
  const uint32_t last =
      std::min<uint32_t>(TPageOf(hi), dirty_head_.size() - 1);
  for (uint32_t t = TPageOf(lo); t <= last; ++t) {
    for (uint32_t n = dirty_head_[t]; n != kNone; n = links_[n].dirty_next) {
      const Lpn lpn = links_[n].lpn;
      if (lpn >= lo && lpn <= hi) out.push_back(lpn);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<uint32_t> MappingCache::DirtyTPages() const {
  std::vector<uint32_t> out;
  for (uint32_t t = 0; t < dirty_head_.size(); ++t) {
    if (dirty_head_[t] != kNone) out.push_back(t);
  }
  return out;
}

bool MappingCache::OldestDirty(Lpn* out) const {
  for (uint32_t n = lru_head_; n != kNone; n = links_[n].lru_next) {
    if (entries_[n].dirty) {
      *out = links_[n].lpn;
      return true;
    }
  }
  return false;
}

std::vector<Lpn> MappingCache::TakeCheckpoint() {
  // Entries dirtied before the current epoch began have gone a full
  // checkpoint period without an update: synchronize them now so the
  // recovery backward scan stays bounded (Section 4.3). Translation pages
  // are visited in order and each page's lpns sorted, so the result is
  // ascending.
  std::vector<Lpn> stale;
  for (uint32_t head : dirty_head_) {
    const size_t first = stale.size();
    for (uint32_t n = head; n != kNone; n = links_[n].dirty_next) {
      if (entries_[n].dirty_epoch < epoch_) stale.push_back(links_[n].lpn);
    }
    std::sort(stale.begin() + first, stale.end());
  }
  ++epoch_;
  return stale;
}

void MappingCache::Reset() {
  entries_.clear();
  links_.clear();
  free_nodes_.clear();
  index_.Clear();
  std::fill(dirty_head_.begin(), dirty_head_.end(), kNone);
  lru_head_ = lru_tail_ = kNone;
  dirty_count_ = 0;
  epoch_ = 1;
}

std::vector<Lpn> MappingCache::LruToMruOrder() const {
  std::vector<Lpn> out;
  out.reserve(size());
  for (uint32_t n = lru_head_; n != kNone; n = links_[n].lru_next) {
    out.push_back(links_[n].lpn);
  }
  return out;
}

}  // namespace gecko
