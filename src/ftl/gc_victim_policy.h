// Pluggable garbage-collection victim selection (Section 4.2, generalized).
//
// Victim choice is the one GC decision every driver in this repository
// makes — BaseFtl's maintenance plane, the wear-leveler's static scan, and
// PvmDriver's store microbenchmark — and it used to be re-implemented in
// each, drifting apart. This module centralizes it: a GcVictimPolicy
// scores candidates (lower is better), and SelectGcVictim() runs one
// linear scan over the block range, asking the caller to describe each
// block and keeping the best-scoring eligible candidate.
//
// Policies:
//   greedy        — fewest valid pages (the paper's baseline; also the
//                   Section 4.2 kGreedyAll ablation when the caller admits
//                   metadata blocks as candidates).
//   cost-benefit  — classic (1-u)/(1+u) * age scoring: prefers cool blocks
//                   whose invalid population has stopped growing over hot
//                   blocks that would soon offer more invalid pages.
//
// Channel awareness: scores tie frequently (greedy scores are small
// integers), and the tie-break prefers the candidate on the channel whose
// latency clock is furthest behind — background collection then lands on
// the idlest channel, overlapping with foreground traffic instead of
// queueing behind it.

#ifndef GECKOFTL_FTL_GC_VICTIM_POLICY_H_
#define GECKOFTL_FTL_GC_VICTIM_POLICY_H_

#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "flash/flash_device.h"
#include "flash/types.h"
#include "ftl/ftl_config.h"

namespace gecko {

/// One block offered to the policy for scoring.
struct GcVictimCandidate {
  BlockId block = kInvalidU32;
  uint32_t valid = 0;    // live pages the collection would migrate
  uint32_t written = 0;  // pages programmed since the last erase
  uint32_t pages_per_block = 0;
  /// Device-sequence age of the block's newest page (now - last program);
  /// 0 when the caller does not track ages.
  uint64_t age = 0;
  /// Latency clock of the block's channel; smaller = longer idle.
  double channel_busy_until_us = 0;
};

/// Scores candidates; lower is better. Stateless and shareable.
class GcVictimPolicy {
 public:
  virtual ~GcVictimPolicy() = default;
  virtual const char* Name() const = 0;
  virtual double Score(const GcVictimCandidate& c) const = 0;
};

/// Greedy: the block with the fewest valid pages.
class GreedyVictimPolicy final : public GcVictimPolicy {
 public:
  const char* Name() const override { return "greedy"; }
  double Score(const GcVictimCandidate& c) const override {
    return static_cast<double>(c.valid);
  }
};

/// Cost-benefit (Rosenblum & Ousterhout's cleaning heuristic): maximize
/// benefit/cost = (1 - u) / (1 + u) * age, with u the utilization
/// valid/pages_per_block. Returned negated so lower stays better.
///
/// Age fairness across channels: callers derive `age` from
/// FlashDevice::LastProgramSeq against CurrentSeq. The device sequence is
/// GLOBAL and monotone — one counter across all channels, bumped per
/// program wherever it lands — not a per-channel clock, so ages of blocks
/// on different channels are directly comparable. Channel striping only
/// skews the ages of *concurrently filling* active blocks, which differ by
/// at most ~stripe-width programs (they interleave round-robin); that
/// spread is orders of magnitude below the inter-block age differences the
/// age term exists to discriminate, so no per-channel normalization is
/// needed. Pinned by CostBenefitAgeComparableAcrossChannels in
/// tests/ftl/policy_behavior_test.cc.
class CostBenefitVictimPolicy final : public GcVictimPolicy {
 public:
  const char* Name() const override { return "cost-benefit"; }
  double Score(const GcVictimCandidate& c) const override {
    double capacity = c.pages_per_block > 0 ? c.pages_per_block : 1.0;
    double u = static_cast<double>(c.valid) / capacity;
    double age = static_cast<double>(c.age) + 1.0;
    return -((1.0 - u) / (1.0 + u)) * age;
  }
};

/// Policy object for a GcPolicy config value. kNeverCollectMetadata and
/// kGreedyAll share greedy scoring — what differs is the candidate set,
/// which the caller controls (see GcPolicyCollectsMetadata).
std::unique_ptr<GcVictimPolicy> MakeGcVictimPolicy(GcPolicy policy);

/// Whether `policy` admits translation/PVM blocks as victims. The paper's
/// kNeverCollectMetadata (and cost-benefit, which keeps the paper's
/// metadata rule) erase metadata blocks only once fully invalid.
inline bool GcPolicyCollectsMetadata(GcPolicy policy) {
  return policy == GcPolicy::kGreedyAll;
}

/// One linear victim scan over blocks [0, num_blocks) of `device`.
/// `describe` fills the per-block fields of a candidate for an eligible
/// block and returns true, or returns false to skip it; the scan itself
/// fills in the block id and its channel's busy clock, read once per scan
/// since no clock moves during it. Returns the block with the lowest
/// score — ties prefer the longest-idle channel, then the lowest block id —
/// or kInvalidU32 when no block is eligible. Shared by BaseFtl::SelectVictim
/// and PvmDriver. `Policy` is a concrete `final` policy class, so the
/// per-block Score call is direct and inlines; a caller holding a GcPolicy
/// value picks the class once per scan.
template <typename Policy, typename DescribeFn>
BlockId SelectGcVictim(const FlashDevice& device, uint32_t num_blocks,
                       const Policy& policy, DescribeFn&& describe) {
  static_assert(std::is_final_v<Policy>,
                "SelectGcVictim takes a concrete policy class");
  std::vector<double> busy_us(device.num_channels());
  for (ChannelId ch = 0; ch < busy_us.size(); ++ch) {
    busy_us[ch] = device.ChannelBusyUntilUs(ch);
  }
  BlockId best = kInvalidU32;
  double best_score = 0;
  double best_busy = 0;
  for (BlockId b = 0; b < num_blocks; ++b) {
    GcVictimCandidate c;
    c.block = b;
    if (!describe(b, &c)) continue;
    c.channel_busy_until_us = busy_us[device.ChannelOf(b)];
    double score = policy.Score(c);
    if (best == kInvalidU32 || score < best_score ||
        (score == best_score && c.channel_busy_until_us < best_busy)) {
      best = b;
      best_score = score;
      best_busy = c.channel_busy_until_us;
    }
  }
  return best;
}

}  // namespace gecko

#endif  // GECKOFTL_FTL_GC_VICTIM_POLICY_H_
