// The benchmark's own open-loop driver and correctness oracle.
//
// Requests arrive on a fixed clock in simulated device time, whatever the
// device is doing; a request the submission queue refuses waits in a
// host-side FIFO and its latency still counts from its arrival. Unlike
// src/sim/open_loop_driver.cc and parallel_driver.cc, this driver keeps
// exact per-request latency samples per operation type, checks every
// extent's status, and verifies every read against a shadow of the
// acknowledged writes and trims.

#ifndef PERFBENCH_DRIVER_H_
#define PERFBENCH_DRIVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <unordered_set>
#include <vector>

#include "flash/flash_device.h"
#include "ftl/ftl.h"
#include "ftl/sharded_ftl.h"
#include "workload/request_stream.h"

namespace perfbench {

using gecko::Lpn;

struct RungSink;

/// What a read of one lpn must return.
struct Expectation {
  Lpn lpn = 0;
  bool present = false;  // false: the read must come back NotFound
  uint64_t payload = 0;
};

/// Contents of the logical space as acknowledged writes and trims left
/// it, updated in admission order: the async engine serializes
/// same-lpn conflicts in that order, so a read admitted after a write
/// sees it. Submitter threads of the sharded workload own disjoint lpn
/// ranges, so each entry has a single writer.
class Shadow {
 public:
  explicit Shadow(uint64_t num_lpns)
      : payload_(num_lpns, 0), present_(num_lpns, 0) {}

  /// Records the state an admitted write or trim leaves behind.
  void Set(const Expectation& e);
  Expectation Expect(Lpn lpn) const {
    return Expectation{lpn, present_[lpn] != 0, payload_[lpn]};
  }
  uint64_t num_lpns() const { return payload_.size(); }

 private:
  std::vector<uint64_t> payload_;
  std::vector<uint8_t> present_;
};

/// Outcomes of checked extents. Thread-safe: completions of the sharded
/// workload land on shard worker threads.
class Verdicts {
 public:
  /// Checks one completed request against the expectations captured at
  /// its admission (one per extent). Returns whether every extent
  /// succeeded; a wrong payload or a resurrected trim is a mismatch.
  bool Check(gecko::IoOp op, const std::vector<Expectation>& expected,
             const gecko::IoResult& result);

  uint64_t attempted() const { return attempted_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t mismatches() const { return mismatches_.load(); }

 private:
  std::atomic<uint64_t> attempted_{0};
  std::atomic<uint64_t> failed_{0};
  std::atomic<uint64_t> mismatches_{0};
  /// Lpns whose write or trim failed: their content is legitimately
  /// either version afterwards, so a later disagreement is not a
  /// mismatch. Rare path only.
  std::mutex mu_;
  std::unordered_set<Lpn> uncertain_;
};

/// Host throughput of one slice of a rung: extents completed per host
/// second. Chunks alternate traced/untraced in the traced run.
struct Chunk {
  double host_s = 0;
  uint64_t extents = 0;
  bool traced = false;
  double ref_speed = 0;  // ReferenceSpeed() measured right after the chunk
};

/// Speed of the host right now, in millions of iterations per second of
/// a fixed loop of integer arithmetic and random read-modify-writes over
/// 16 MiB (about 3 ms). It shares no code with the system under test, so
/// it tracks only how fast the machine runs: on a shared machine that
/// drifts by tens of percent over minutes. Call from one thread at a time.
double ReferenceSpeed();

struct RungSpec {
  double offered_kiops = 0;  // extents offered per simulated ms
  double period_us = 0;      // request inter-arrival time (all tenants)
  uint64_t requests = 0;
  uint32_t chunks = 8;       // even, for traced/untraced pairs
};

/// Exact per-request arrival-to-completion latencies (simulated us).
struct RungResult {
  RungSpec spec;
  uint64_t extents_completed = 0;
  double first_arrival_us = 0;
  double last_arrival_us = 0;
  double last_complete_us = 0;
  std::vector<double> read_us, write_us, trim_us;
  uint64_t failed_reads = 0, failed_writes = 0;  // SLO misses
  std::vector<Chunk> chunks;
  double host_s = 0;
};

/// One submitter's request source: a stream over [0, span) shifted to
/// [offset, offset + span).
struct Tenant {
  gecko::RequestStream stream;
  Lpn offset = 0;
  gecko::IoRequest Next();
};

/// Open loop over an unsharded FTL; single-threaded.
class OpenLoop {
 public:
  OpenLoop(gecko::Ftl* ftl, gecko::FlashDevice* device, Shadow* shadow,
           Verdicts* verdicts)
      : ftl_(ftl), device_(device), shadow_(shadow), verdicts_(verdicts) {}

  RungResult Run(const RungSpec& spec, Tenant& tenant, bool trace_chunks);

  uint64_t polls() const { return polls_; }

 private:
  struct Deferred {
    gecko::IoRequest request;
    double arrival_us = 0;
    uint64_t id = 0;
  };

  void PollOnce();
  /// Admits `request` (or parks it behind earlier refusals); false when
  /// the queue refused it.
  bool TrySubmit(gecko::IoRequest& request, double arrival_us, uint64_t id);
  void DrainDeferred();

  gecko::Ftl* ftl_;
  gecko::FlashDevice* device_;
  Shadow* shadow_;
  Verdicts* verdicts_;
  std::deque<Deferred> deferred_;
  RungSink* sink_ = nullptr;  // completion accumulator of the rung
  uint64_t next_request_id_ = 1;
  uint64_t polls_ = 0;
};

/// Open loop over the sharded front end: one submitter thread per
/// tenant (the calling thread is tenant 0), arrival-stamped through
/// ShardedFtl::SubmitAsyncAt. Tenants submit in arrival-time order across
/// threads, so each shard's queue receives its subs in time order.
RungResult RunShardedRung(gecko::ShardedFtl* ftl, const RungSpec& spec,
                          std::vector<Tenant>& tenants, Shadow* shadow,
                          Verdicts* verdicts, bool trace_chunks);

/// Closed-loop pump for set-up phases: keeps the submission queue full
/// with `requests` requests from `tenant`, then drains. `device` is the
/// clock to advance while the queue is full (null for the sharded front
/// end, whose workers own their clocks).
void Pump(gecko::Ftl* ftl, gecko::FlashDevice* device, Tenant& tenant,
          uint64_t requests, Shadow* shadow, Verdicts* verdicts);

/// Reads every lpn back in batches and verifies it against the shadow.
void ReadBack(gecko::Ftl* ftl, gecko::FlashDevice* device, Shadow* shadow,
              Verdicts* verdicts);

/// Nearest-rank percentile of `samples` with `misses` extra samples at
/// +infinity (failed requests miss every latency limit). Sorts in place.
double Percentile(std::vector<double>& samples, uint64_t misses, double q);

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_H_
