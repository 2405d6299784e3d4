// Async submission/completion hazards, on all five FTLs at 1 and 4
// channels: same-LPN RAW/WAW ordering, same-translation-page commit
// serialization, flush barriers, queue-full backpressure, completion-
// callback ordering against device time, and power failure with requests
// in flight.

#include <algorithm>
#include <map>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "ftl/async_engine.h"
#include "ftl/base_ftl.h"
#include "tests/ftl/ftl_test_util.h"
#include "util/random.h"
#include "workload/workload.h"

namespace gecko {
namespace {

class AsyncSubmitTest : public ChannelFtlTest {};

const AsyncEngine& EngineOf(Ftl* ftl) {
  auto* base = dynamic_cast<BaseFtl*>(ftl);
  EXPECT_NE(base, nullptr);
  return base->async_engine();
}

/// One observed completion, in callback-fire order.
struct Fired {
  int tag = 0;
  Status status;
  double complete_us = 0;
  double submit_us = 0;
  std::vector<uint64_t> payloads;
};

CompletionCb Recorder(std::vector<Fired>* fired, int tag) {
  return [fired, tag](const IoResult& result, const AsyncCompletion& done) {
    Fired f;
    f.tag = tag;
    f.status = result.status;
    f.complete_us = done.complete_us;
    f.submit_us = done.submit_us;
    f.payloads = result.payloads;
    fired->push_back(std::move(f));
  };
}

TEST_P(AsyncSubmitTest, RawAndWawOnOneLpnSerializeInAdmissionOrder) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  ASSERT_TRUE(ftl->Write(5, 111).ok());

  std::vector<Fired> fired;
  IoRequest w1(IoOp::kWrite);
  w1.Add(5, 222);
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w1), Recorder(&fired, 0)).ok());
  ASSERT_TRUE(
      ftl->SubmitAsync(IoRequest::Read({5}), Recorder(&fired, 1)).ok());
  IoRequest w2(IoOp::kWrite);
  w2.Add(5, 333);
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w2), Recorder(&fired, 2)).ok());

  // The RAW read and the WAW write both had to park behind an in-flight
  // conflicting claim on lpn 5.
  EXPECT_GE(EngineOf(ftl.get()).stats().parked, 2u);
  EXPECT_EQ(ftl->InFlightRequests(), 3u);

  EXPECT_EQ(ftl->DrainAsync(), 3u);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].tag, 0);
  EXPECT_EQ(fired[1].tag, 1);
  EXPECT_EQ(fired[2].tag, 2);
  // Serialized, non-overlapping: each conflicting request only starts
  // after its predecessor's device-time completion.
  EXPECT_LT(fired[0].complete_us, fired[1].complete_us);
  EXPECT_LT(fired[1].complete_us, fired[2].complete_us);
  // The read observed exactly the first write's value, not the later one.
  ASSERT_EQ(fired[1].payloads.size(), 1u);
  EXPECT_EQ(fired[1].payloads[0], 222u);
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(5, &got).ok());
  EXPECT_EQ(got, 333u);
}

TEST_P(AsyncSubmitTest, IndependentRequestsOverlapWithoutParking) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  for (Lpn lpn = 0; lpn < 16; ++lpn) ASSERT_TRUE(ftl->Write(lpn, lpn).ok());
  ASSERT_TRUE(ftl->Flush().ok());

  std::vector<Fired> fired;
  for (int i = 0; i < 4; ++i) {
    IoRequest w(IoOp::kWrite);
    w.Add(static_cast<Lpn>(i), 1000u + i);
    ASSERT_TRUE(ftl->SubmitAsync(std::move(w), Recorder(&fired, i)).ok());
  }
  EXPECT_EQ(ftl->InFlightRequests(), 4u);
  EXPECT_EQ(EngineOf(ftl.get()).stats().parked, 0u);
  EXPECT_GE(device.stats().host_inflight_watermark(), 4u);

  EXPECT_EQ(ftl->DrainAsync(), 4u);
  ASSERT_EQ(fired.size(), 4u);
  for (const Fired& f : fired) EXPECT_TRUE(f.status.ok());
  for (int i = 0; i < 4; ++i) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(static_cast<Lpn>(i), &got).ok());
    EXPECT_EQ(got, 1000u + static_cast<uint64_t>(i));
  }
}

TEST_P(AsyncSubmitTest, SameTranslationPageCommitsSerialize) {
  // Cache capacity 2 makes any batch of >= 4 extents an eager translation
  // commit, which claims its translation pages exclusively. 512-byte
  // pages hold 128 mapping entries, so lpns 0..7 share tpage 0 while lpns
  // 128+ live on tpage 1.
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 2);

  auto batch = [](Lpn base, uint64_t token) {
    IoRequest w(IoOp::kWrite);
    for (Lpn l = base; l < base + 4; ++l) w.Add(l, token + l);
    return w;
  };
  std::vector<Fired> fired;
  ASSERT_TRUE(ftl->SubmitAsync(batch(0, 100), Recorder(&fired, 0)).ok());
  ASSERT_TRUE(ftl->SubmitAsync(batch(4, 200), Recorder(&fired, 1)).ok());
  // Disjoint lpns, same translation page: the second commit must wait.
  EXPECT_GE(EngineOf(ftl.get()).stats().parked, 1u);
  uint64_t parked_before = EngineOf(ftl.get()).stats().parked;
  // A batch on a different translation page sails through.
  ASSERT_TRUE(ftl->SubmitAsync(batch(128, 300), Recorder(&fired, 2)).ok());
  EXPECT_EQ(EngineOf(ftl.get()).stats().parked, parked_before);

  EXPECT_EQ(ftl->DrainAsync(), 3u);
  ASSERT_EQ(fired.size(), 3u);
  // The conflicting pair fired in admission order, strictly serialized.
  std::vector<double> tpage0_times;
  for (const Fired& f : fired) {
    EXPECT_TRUE(f.status.ok());
    if (f.tag != 2) tpage0_times.push_back(f.complete_us);
  }
  ASSERT_EQ(tpage0_times.size(), 2u);
  EXPECT_LT(tpage0_times[0], tpage0_times[1]);
  for (Lpn l = 0; l < 4; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
    EXPECT_EQ(got, 100u + l);
  }
}

TEST_P(AsyncSubmitTest, FlushIsAFullBarrier) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);

  std::vector<Fired> fired;
  IoRequest w1(IoOp::kWrite);
  w1.Add(1, 11);
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w1), Recorder(&fired, 0)).ok());
  ASSERT_TRUE(
      ftl->SubmitAsync(IoRequest::Flush(), Recorder(&fired, 1)).ok());
  IoRequest w2(IoOp::kWrite);
  w2.Add(2, 22);  // unrelated lpn, still parks behind the flush
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w2), Recorder(&fired, 2)).ok());
  EXPECT_GE(EngineOf(ftl.get()).stats().parked, 2u);

  EXPECT_EQ(ftl->DrainAsync(), 3u);
  ASSERT_EQ(fired.size(), 3u);
  EXPECT_EQ(fired[0].tag, 0);
  EXPECT_EQ(fired[1].tag, 1);
  EXPECT_EQ(fired[2].tag, 2);
}

TEST_P(AsyncSubmitTest, QueueFullBackpressureAndPollFreesSlots) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 2; });

  std::vector<Fired> fired;
  for (int i = 0; i < 2; ++i) {
    IoRequest w(IoOp::kWrite);
    w.Add(static_cast<Lpn>(i), 100u + i);
    ASSERT_TRUE(ftl->SubmitAsync(std::move(w), Recorder(&fired, i)).ok());
  }
  IoRequest overflow(IoOp::kWrite);
  overflow.Add(7, 777);
  Status full = ftl->SubmitAsync(std::move(overflow), Recorder(&fired, 2));
  EXPECT_EQ(full.code(), StatusCode::kQueueFull);
  // The rejected request was not consumed: it can be resubmitted as-is.
  ASSERT_EQ(overflow.size(), 1u);
  EXPECT_EQ(overflow.extents[0].payload, 777u);
  EXPECT_EQ(device.stats().host_queue_full(), 1u);
  EXPECT_EQ(device.stats().host_inflight(), 2u);
  EXPECT_EQ(device.stats().host_inflight_watermark(), 2u);

  // Advance past both writes' completions; Poll retires them and frees
  // both slots without a barrier drain.
  device.AdvanceTo(device.now_us() + 1e7);
  EXPECT_EQ(ftl->Poll(), 2u);
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  EXPECT_EQ(device.stats().host_inflight(), 0u);

  ASSERT_TRUE(ftl->SubmitAsync(std::move(overflow), Recorder(&fired, 2)).ok());
  EXPECT_EQ(ftl->DrainAsync(), 1u);
  ASSERT_EQ(fired.size(), 3u);
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(7, &got).ok());
  EXPECT_EQ(got, 777u);
}

TEST_P(AsyncSubmitTest, CallbacksFireInDeviceCompletionOrder) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  const Lpn kSpan = 64;
  std::unordered_map<Lpn, uint64_t> shadow;
  for (Lpn lpn = 0; lpn < kSpan; ++lpn) {
    ASSERT_TRUE(ftl->Write(lpn, lpn).ok());
    shadow[lpn] = lpn;
  }
  ASSERT_TRUE(ftl->Flush().ok());

  // Mixed single-extent churn: reads (one op, ~100us) admitted after
  // writes (~1000us) routinely complete earlier on a multi-channel
  // device, so callback order must follow device time, not admission.
  std::vector<Fired> fired;
  Rng rng(97);
  uint64_t version = 1000;
  for (int i = 0; i < 60; ++i) {
    Lpn lpn = static_cast<Lpn>(rng.Uniform(kSpan));
    Status s;
    if (rng.Uniform(3) == 0) {
      // Expected read value at admission = last admitted write's value
      // (the dependency tracker serializes same-lpn requests FIFO).
      uint64_t expect = shadow[lpn];
      s = ftl->SubmitAsync(
          IoRequest::Read({lpn}),
          [&fired, i, expect](const IoResult& result,
                              const AsyncCompletion& done) {
            Fired f;
            f.tag = i;
            f.status = result.status;
            f.complete_us = done.complete_us;
            ASSERT_EQ(result.payloads.size(), 1u);
            EXPECT_EQ(result.payloads[0], expect);
            fired.push_back(std::move(f));
          });
    } else {
      IoRequest w(IoOp::kWrite);
      w.Add(lpn, version + 1);
      s = ftl->SubmitAsync(std::move(w), Recorder(&fired, i));
      if (s.ok()) shadow[lpn] = ++version;  // mirror only admitted writes
    }
    if (s.code() == StatusCode::kQueueFull) {
      ftl->DrainAsync();
      --i;  // retry this iteration with a drained queue
      continue;
    }
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  ftl->DrainAsync();
  ASSERT_EQ(fired.size(), 60u);

  bool admission_order_inverted = false;
  for (size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].complete_us, fired[i - 1].complete_us)
        << "callback " << i << " fired out of device-time order";
    if (fired[i].tag < fired[i - 1].tag) admission_order_inverted = true;
  }
  if (NumChannels() > 1) {
    // On a striped device, some later-admitted request overtook an
    // earlier one — the ordering above is genuinely device-time order.
    EXPECT_TRUE(admission_order_inverted);
  }
  for (const auto& [lpn, token] : shadow) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(lpn, &got).ok());
    EXPECT_EQ(got, token) << "lpn " << lpn;
  }
}

TEST_P(AsyncSubmitTest, SyncSubmitDrainsInFlightAsyncWork) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);

  std::vector<Fired> fired;
  IoRequest w(IoOp::kWrite);
  w.Add(3, 33);
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w), Recorder(&fired, 0)).ok());
  // A synchronous call with async work in flight completes everything.
  ASSERT_TRUE(ftl->Write(4, 44).ok());
  EXPECT_EQ(fired.size(), 1u);
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(3, &got).ok());
  EXPECT_EQ(got, 33u);
}

TEST_P(AsyncSubmitTest, CrashAbortsInFlightAndRecoversDurableState) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128);
  const Lpn kSpan = 32;
  for (Lpn lpn = 0; lpn < kSpan; ++lpn) ASSERT_TRUE(ftl->Write(lpn, lpn).ok());

  // One write completes before the crash; three more are in flight (the
  // third conflicts with the second, so it is parked, never dispatched).
  std::vector<Fired> fired;
  IoRequest done_before(IoOp::kWrite);
  done_before.Add(0, 1000);
  ASSERT_TRUE(
      ftl->SubmitAsync(std::move(done_before), Recorder(&fired, 0)).ok());
  ASSERT_EQ(ftl->DrainAsync(), 1u);

  IoRequest inflight1(IoOp::kWrite);
  inflight1.Add(1, 1001);
  IoRequest inflight2(IoOp::kWrite);
  inflight2.Add(2, 1002);
  IoRequest parked(IoOp::kWrite);
  parked.Add(2, 2002);
  ASSERT_TRUE(
      ftl->SubmitAsync(std::move(inflight1), Recorder(&fired, 1)).ok());
  ASSERT_TRUE(
      ftl->SubmitAsync(std::move(inflight2), Recorder(&fired, 2)).ok());
  ASSERT_TRUE(ftl->SubmitAsync(std::move(parked), Recorder(&fired, 3)).ok());
  ASSERT_EQ(ftl->InFlightRequests(), 3u);

  RecoveryReport report = ftl->CrashAndRecover();
  EXPECT_FALSE(report.steps.empty());

  // Every in-flight callback fired exactly once, with kAborted and no
  // completion time; the host gauge returned to zero.
  ASSERT_EQ(fired.size(), 4u);
  EXPECT_TRUE(fired[0].status.ok());
  for (size_t i = 1; i < 4; ++i) {
    EXPECT_EQ(fired[i].status.code(), StatusCode::kAborted);
    EXPECT_EQ(fired[i].complete_us, 0.0);
  }
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  EXPECT_EQ(device.stats().host_inflight(), 0u);
  EXPECT_GE(EngineOf(ftl.get()).stats().aborted, 3u);

  // The acknowledged write is durable; aborted writes are indeterminate —
  // each lpn reads back either its old or its new token, nothing else.
  uint64_t got = 0;
  ASSERT_TRUE(ftl->Read(0, &got).ok());
  EXPECT_EQ(got, 1000u);
  ASSERT_TRUE(ftl->Read(1, &got).ok());
  EXPECT_TRUE(got == 1u || got == 1001u) << got;
  ASSERT_TRUE(ftl->Read(2, &got).ok());
  EXPECT_TRUE(got == 2u || got == 1002u || got == 2002u) << got;

  // The FTL keeps working, sync and async, after the abort path ran.
  std::vector<Fired> after;
  IoRequest w(IoOp::kWrite);
  w.Add(5, 5005);
  ASSERT_TRUE(ftl->SubmitAsync(std::move(w), Recorder(&after, 0)).ok());
  ASSERT_EQ(ftl->DrainAsync(), 1u);
  ASSERT_TRUE(ftl->Read(5, &got).ok());
  EXPECT_EQ(got, 5005u);
}

TEST_P(AsyncSubmitTest, CrashChurnWithRequestsInFlightStaysSound) {
  const uint64_t seed = FuzzSeed(131);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 128,
                     [](FtlConfig& c) { c.async_queue_depth = 8; });
  const Lpn kSpan = 48;
  // old[lpn] = last acknowledged token; pending[lpn] = tokens of writes
  // that were in flight at the crash (old-or-new indeterminate).
  std::unordered_map<Lpn, uint64_t> acked;
  for (Lpn lpn = 0; lpn < kSpan; ++lpn) {
    ASSERT_TRUE(ftl->Write(lpn, lpn).ok());
    acked[lpn] = lpn;
  }

  Rng rng(seed);
  uint64_t version = 10000;
  for (int round = 0; round < 4; ++round) {
    std::unordered_map<Lpn, std::vector<uint64_t>> pending;
    int in_flight = 0;
    while (in_flight < 6) {
      Lpn lpn = static_cast<Lpn>(rng.Uniform(kSpan));
      IoRequest w(IoOp::kWrite);
      uint64_t token = ++version;
      w.Add(lpn, token);
      Status s = ftl->SubmitAsync(
          std::move(w),
          [&acked, &pending, lpn, token](const IoResult& result,
                                         const AsyncCompletion&) {
            if (result.status.code() == StatusCode::kAborted) return;
            // Acknowledged: this is now the required value (later
            // in-flight tokens for the lpn remain possible outcomes).
            acked[lpn] = token;
            pending[lpn].clear();
          });
      if (s.code() == StatusCode::kQueueFull) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      pending[lpn].push_back(token);
      ++in_flight;
    }
    ftl->CrashAndRecover();
    ASSERT_EQ(ftl->InFlightRequests(), 0u);
    for (Lpn lpn = 0; lpn < kSpan; ++lpn) {
      uint64_t got = 0;
      ASSERT_TRUE(ftl->Read(lpn, &got).ok()) << "lpn " << lpn;
      bool ok = got == acked[lpn];
      auto it = pending.find(lpn);
      if (it != pending.end()) {
        ok = ok || std::find(it->second.begin(), it->second.end(), got) !=
                       it->second.end();
      }
      EXPECT_TRUE(ok) << FtlName() << ": lpn " << lpn << " read " << got
                      << ", acked " << acked[lpn];
      acked[lpn] = got;  // whatever survived is the new ground truth
    }
  }
}

TEST_P(AsyncSubmitTest, CrashWithParkedMissesAbortsEveryWaiter) {
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 16; });
  // Populate translation pages 0 and 1 (512-byte pages: 128 entries per
  // tpage), then fill the 4-entry cache with tpage-1 mappings so reads of
  // lpns 0..4 all miss.
  for (Lpn l = 0; l < 8; ++l) ASSERT_TRUE(ftl->Write(l, 4000 + l).ok());
  for (Lpn l = 128; l < 132; ++l) ASSERT_TRUE(ftl->Write(l, 4000 + l).ok());
  ASSERT_TRUE(ftl->Flush().ok());
  for (Lpn l = 128; l < 132; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok());
  }

  std::vector<Fired> fired;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ftl->SubmitAsync(IoRequest::Read({static_cast<Lpn>(i)}),
                                 Recorder(&fired, i))
                    .ok());
  }
  // All five parked on the single in-flight fetch of tpage 0.
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 1u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 1u);
  const uint64_t aborted_parked_before =
      EngineOf(ftl.get()).stats().aborted_parked_extents;

  RecoveryReport report = ftl->CrashAndRecover();
  EXPECT_FALSE(report.steps.empty());

  // Every parked extent's request aborted exactly once, the waiting list
  // leaked nothing, and the in-flight fetch gauge is balanced.
  ASSERT_EQ(fired.size(), 5u);
  for (const Fired& f : fired) {
    EXPECT_EQ(f.status.code(), StatusCode::kAborted);
    EXPECT_EQ(f.complete_us, 0.0);
  }
  EXPECT_EQ(ftl->InFlightRequests(), 0u);
  EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
  EXPECT_EQ(device.stats().miss_fetch_inflight(), 0u);
  EXPECT_EQ(EngineOf(ftl.get()).stats().aborted_parked_extents,
            aborted_parked_before + 5);

  // Recovery serves the same data — reads are stateless, so every lpn
  // still returns its pre-crash token, through the (now empty) cache.
  for (Lpn l = 0; l < 8; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok()) << "lpn " << l;
    EXPECT_EQ(got, 4000u + l);
  }
  // And the miss pipeline works again after the abort path ran.
  std::vector<Fired> after;
  ASSERT_TRUE(ftl->SubmitAsync(IoRequest::Read({0}), Recorder(&after, 0)).ok());
  ASSERT_EQ(ftl->DrainAsync(), 1u);
  ASSERT_EQ(after.size(), 1u);
  EXPECT_EQ(after[0].payloads[0], 4000u);
}

TEST_P(AsyncSubmitTest, CrashChurnDuringMissFetchesKeepsGaugesClean) {
  // Randomized crash points with misses in flight: bursts of cache-
  // starved reads are cut short at a random submission, sometimes crashed
  // mid-flight and sometimes after a drain. Every callback fires exactly
  // once (kAborted or success), no waiting-list entry or gauge tick
  // leaks, and recovery always serves the original data.
  const uint64_t seed = FuzzSeed(977);
  GECKO_TRACE_FUZZ_SEED(seed);
  FlashDevice device(Geo());
  auto ftl = MakeFtl(FtlName(), &device, 4,
                     [](FtlConfig& c) { c.async_queue_depth = 8; });
  const Lpn kDataSpan = 256;  // translation pages 0 and 1
  for (Lpn l = 0; l < kDataSpan; ++l) {
    ASSERT_TRUE(ftl->Write(l, 7000 + l).ok());
  }
  ASSERT_TRUE(ftl->Flush().ok());

  Rng rng(seed);
  for (int round = 0; round < 6; ++round) {
    int submitted = 0;
    int observed = 0;
    int n = 1 + static_cast<int>(rng.Uniform(8));
    for (int i = 0; i < n; ++i) {
      Lpn lpn = static_cast<Lpn>(rng.Uniform(kDataSpan));
      Status s = ftl->SubmitAsync(
          IoRequest::Read({lpn}),
          [&observed, lpn](const IoResult& result, const AsyncCompletion&) {
            ++observed;
            if (result.status.code() == StatusCode::kAborted) return;
            ASSERT_TRUE(result.status.ok());
            ASSERT_EQ(result.payloads.size(), 1u);
            EXPECT_EQ(result.payloads[0], 7000u + lpn);
          });
      if (s.code() == StatusCode::kQueueFull) break;
      ASSERT_TRUE(s.ok()) << s.ToString();
      ++submitted;
      if (rng.Uniform(4) == 0) break;  // random crash point mid-burst
    }
    if (rng.Uniform(2) == 0) ftl->DrainAsync();  // sometimes crash idle
    ftl->CrashAndRecover();
    EXPECT_EQ(observed, submitted) << "round " << round;
    EXPECT_EQ(ftl->InFlightRequests(), 0u);
    EXPECT_EQ(EngineOf(ftl.get()).ongoing_fetch_count(), 0u);
    EXPECT_EQ(device.stats().miss_fetch_inflight(), 0u);
  }

  for (Lpn l = 0; l < kDataSpan; ++l) {
    uint64_t got = 0;
    ASSERT_TRUE(ftl->Read(l, &got).ok()) << "lpn " << l;
    EXPECT_EQ(got, 7000u + l) << "lpn " << l;
  }
  // Lifetime conservation: every parked extent was replayed or aborted.
  const AsyncEngineStats& es = EngineOf(ftl.get()).stats();
  EXPECT_EQ(es.parked_extents,
            es.replayed_extents + es.aborted_parked_extents);
  EXPECT_GT(es.parked_extents, 0u);
}

// Claim-table semantics, pinned on the engine alone. A scripted host
// declares each request's dependency keys by tag (the request's first
// lpn) and services it with `reads` page reads on block `block`, so the
// test controls both conflicts and device-time completion order.
class ScriptedHost : public AsyncHost {
 public:
  struct Script {
    std::vector<DepKey> keys;
    uint32_t reads = 1;
    BlockId block = 0;
  };

  explicit ScriptedHost(FlashDevice* device) : device_(device) {}

  void ExecuteRequest(IoRequest& request, IoResult* result,
                      MissSink*) override {
    const Script& s = scripts.at(request.extents[0].lpn);
    executed.push_back(request.extents[0].lpn);
    result->extent_status.assign(request.extents.size(), Status::Ok());
    for (uint32_t i = 0; i < s.reads; ++i) {
      device_->ReadPage({s.block, 0}, IoPurpose::kUserRead);
    }
  }
  void IssueMappingFetch(uint64_t) override {}
  void ResolveParkedExtent(IoRequest&, IoResult*, size_t) override {}
  void NoteCoalescedMiss() override {}
  std::vector<DepKey> DependencyKeys(const IoRequest& request) override {
    return scripts.at(request.extents[0].lpn).keys;
  }

  std::map<Lpn, Script> scripts;
  std::vector<Lpn> executed;  // tags in dispatch order

 private:
  FlashDevice* device_;
};

Geometry TwoChannelGeometry() {
  Geometry g = FtlTestGeometry(2);
  return g;
}

TEST(AsyncClaimTableTest, SharedClaimsOverlapAndEarlierExclusiveBlocks) {
  FlashDevice device(TwoChannelGeometry());
  ScriptedHost host(&device);
  AsyncEngine engine(&host, &device, 16);
  const DepKey k_shared = DepKey::Lpn(7, false);
  const DepKey k_excl = DepKey::Lpn(7, true);
  host.scripts[1] = {{k_shared}, 1, 0};
  host.scripts[2] = {{k_shared}, 1, 1};
  host.scripts[3] = {{k_excl}, 1, 0};
  host.scripts[4] = {{k_shared}, 1, 1};                  // behind 3
  host.scripts[5] = {{DepKey::Lpn(8, false)}, 1, 1};     // unrelated key
  host.scripts[6] = {{k_shared, DepKey::Lpn(8, true)}, 1, 0};  // behind 3

  std::vector<Lpn> fired;
  for (Lpn tag = 1; tag <= 6; ++tag) {
    ASSERT_TRUE(engine
                    .Submit(IoRequest::Read({tag}),
                            [&fired, tag](const IoResult&,
                                          const AsyncCompletion&) {
                              fired.push_back(tag);
                            })
                    .ok());
  }
  // Shared + shared is granted at once; the exclusive claim waits for
  // both, and every later claim on the key queues behind it (FIFO), even
  // a shared one. A request on an unrelated key is not held up.
  EXPECT_EQ(host.executed, (std::vector<Lpn>{1, 2, 5}));
  EXPECT_EQ(engine.stats().parked, 3u);

  engine.DrainAll();
  EXPECT_EQ(host.executed, (std::vector<Lpn>{1, 2, 5, 3, 4, 6}));
  ASSERT_EQ(fired.size(), 6u);
  // 3 completes before 4 and 6 are even dispatched.
  EXPECT_LT(std::find(fired.begin(), fired.end(), 3),
            std::find(fired.begin(), fired.end(), 4));
  EXPECT_LT(std::find(fired.begin(), fired.end(), 3),
            std::find(fired.begin(), fired.end(), 6));
  EXPECT_TRUE(engine.idle());
}

TEST(AsyncClaimTableTest, ReleasesMayComeOutOfOrder) {
  FlashDevice device(TwoChannelGeometry());
  ScriptedHost host(&device);
  AsyncEngine engine(&host, &device, 16);
  const DepKey k_shared = DepKey::Lpn(3, false);
  // 1 is slow (five reads on channel 0), 2 is fast (one read on channel
  // 1): the two shared claims release in the reverse of their admission
  // order, and the exclusive 3 must wait for the later release.
  host.scripts[1] = {{k_shared}, 5, 0};
  host.scripts[2] = {{k_shared}, 1, 1};
  host.scripts[3] = {{DepKey::Lpn(3, true)}, 1, 1};

  std::vector<Lpn> fired;
  std::vector<size_t> executed_at_fire;
  for (Lpn tag = 1; tag <= 3; ++tag) {
    ASSERT_TRUE(engine
                    .Submit(IoRequest::Read({tag}),
                            [&, tag](const IoResult&, const AsyncCompletion&) {
                              fired.push_back(tag);
                              executed_at_fire.push_back(
                                  host.executed.size());
                            })
                    .ok());
  }
  engine.DrainAll();
  EXPECT_EQ(fired, (std::vector<Lpn>{2, 1, 3}));
  // When 2 released, 1 still held the key: 3 stayed parked. 1's release
  // dispatched it.
  EXPECT_EQ(executed_at_fire, (std::vector<size_t>{2, 3, 3}));
  EXPECT_EQ(engine.stats().parked, 1u);
  EXPECT_TRUE(engine.idle());
}

GECKO_INSTANTIATE_CHANNEL_FTL_SUITE(AsyncSubmitTest);

}  // namespace
}  // namespace gecko
