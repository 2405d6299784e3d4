#include "driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <thread>
#include <utility>

#include "trace.h"
#include "util/check.h"

namespace perfbench {

using gecko::AsyncCompletion;
using gecko::CompletionCb;
using gecko::IoOp;
using gecko::IoRequest;
using gecko::IoResult;
using gecko::Status;
using gecko::StatusCode;

namespace {

/// How long a submitter to the sharded front end sleeps after a refusal
/// at the in-flight cap. The cap only binds when the shard workers are
/// behind by dozens of requests, so the sleep never idles them.
constexpr std::chrono::microseconds kQueueFullBackoff{20};

/// Expectations for a request: what each read must return, or the state
/// each write/trim leaves behind once admitted.
std::vector<Expectation> Expectations(const IoRequest& request,
                                      const Shadow& shadow) {
  std::vector<Expectation> out;
  out.reserve(request.extents.size());
  for (const gecko::IoExtent& e : request.extents) {
    switch (request.op) {
      case IoOp::kRead: out.push_back(shadow.Expect(e.lpn)); break;
      case IoOp::kWrite: out.push_back({e.lpn, true, e.payload}); break;
      default: out.push_back({e.lpn, false, 0}); break;
    }
  }
  return out;
}

}  // namespace

/// Completion-side accumulator of one rung (shared with shard workers).
struct RungSink {
  RungResult* rung = nullptr;
  Verdicts* verdicts = nullptr;
  std::mutex mu;  // guards *rung's sample vectors and counters
  std::atomic<uint64_t> completed_extents{0};

  void Record(IoOp op, double arrival_us,
              const std::vector<Expectation>& expected, const IoResult& result,
              const AsyncCompletion& done) {
    const bool ok = verdicts->Check(op, expected, result);
    std::lock_guard<std::mutex> lock(mu);
    const double latency = done.complete_us - arrival_us;
    if (op == IoOp::kRead) {
      if (ok) rung->read_us.push_back(latency); else ++rung->failed_reads;
    } else if (!ok) {
      ++rung->failed_writes;
    } else {
      (op == IoOp::kWrite ? rung->write_us : rung->trim_us).push_back(latency);
    }
    rung->extents_completed += expected.size();
    rung->last_complete_us = std::max(rung->last_complete_us, done.complete_us);
    completed_extents.fetch_add(expected.size(), std::memory_order_relaxed);
  }

  CompletionCb Callback(IoOp op, double arrival_us, uint64_t id,
                        std::vector<Expectation> expected) {
    return [this, op, arrival_us, id, expected = std::move(expected)](
               const IoResult& result, const AsyncCompletion& done) {
      Tracer::Scope span(SpanName::kCallback, id);
      Record(op, arrival_us, expected, result, done);
    };
  }
};

namespace {

/// Host-time slicing of a rung into chunks; alternates tracing in the
/// traced run (even chunks traced).
class ChunkClock {
 public:
  ChunkClock(RungResult* rung, const std::atomic<uint64_t>* completed,
             bool trace_chunks)
      : rung_(rung), completed_(completed), trace_chunks_(trace_chunks) {
    Open(0);
  }

  /// Called before arrival `i`; closes/opens chunks at boundaries.
  void Before(uint64_t i) {
    uint32_t c = static_cast<uint32_t>(i * rung_->spec.chunks /
                                       rung_->spec.requests);
    if (c != current_) {
      Close();
      Open(c);
    }
  }

  void Finish() {
    Close();
    if (trace_chunks_) Tracer::Get().set_enabled(true);
  }

 private:
  void Open(uint32_t c) {
    current_ = c;
    traced_ = trace_chunks_ && c % 2 == 0;
    if (trace_chunks_) Tracer::Get().set_enabled(traced_);
    start_ns_ = HostNowNs();
    start_extents_ = completed_->load(std::memory_order_relaxed);
  }
  void Close() {
    int64_t now = HostNowNs();
    Chunk chunk;
    chunk.host_s = static_cast<double>(now - start_ns_) * 1e-9;
    chunk.extents =
        completed_->load(std::memory_order_relaxed) - start_extents_;
    chunk.traced = traced_;
    chunk.ref_speed = ReferenceSpeed();  // outside the chunk's window
    rung_->chunks.push_back(chunk);
    rung_->host_s += chunk.host_s;
  }

  RungResult* rung_;
  const std::atomic<uint64_t>* completed_;
  bool trace_chunks_;
  uint32_t current_ = 0;
  bool traced_ = false;
  int64_t start_ns_ = 0;
  uint64_t start_extents_ = 0;
};

/// Submits one request closed loop (set-up and read-back), advancing the
/// device clock — or yielding to the shard workers — while the queue is
/// full.
void SubmitClosed(gecko::Ftl* ftl, gecko::FlashDevice* device,
                  IoRequest request, Shadow* shadow, Verdicts* verdicts) {
  std::vector<Expectation> expected = Expectations(request, *shadow);
  const IoOp op = request.op;
  for (;;) {
    // The callback copies the expectations: on kQueueFull it is dropped
    // with the refused submission and rebuilt on the retry.
    CompletionCb cb = [verdicts, op, expected](const IoResult& result,
                                               const AsyncCompletion&) {
      verdicts->Check(op, expected, result);
    };
    Status s = ftl->SubmitAsync(std::move(request), std::move(cb));
    if (s.ok()) break;
    GECKO_CHECK(s.code() == StatusCode::kQueueFull) << s.ToString();
    if (device != nullptr) {
      device->AdvanceTo(ftl->NextCompletionUs());
      ftl->Poll();
    } else {
      std::this_thread::sleep_for(kQueueFullBackoff);
    }
  }
  if (op != IoOp::kRead) {
    for (const Expectation& e : expected) shadow->Set(e);
  }
}

}  // namespace

double ReferenceSpeed() {
  constexpr size_t kIterations = size_t{1} << 18;
  static std::vector<uint64_t> table(size_t{1} << 21);  // 16 MiB
  const size_t mask = table.size() - 1;
  uint64_t x = 0x9E3779B97F4A7C15ull, sum = 0;
  const int64_t start = HostNowNs();
  for (size_t i = 0; i < kIterations; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    table[(x >> 20) & mask] += x;
    sum += table[i & mask];
  }
  const int64_t elapsed = HostNowNs() - start;
  table[0] ^= sum & 1;  // keeps the loop's result observable
  return static_cast<double>(kIterations) * 1e3 /
         static_cast<double>(elapsed);
}

void Shadow::Set(const Expectation& e) {
  payload_[e.lpn] = e.payload;
  present_[e.lpn] = e.present ? 1 : 0;
}

bool Verdicts::Check(IoOp op, const std::vector<Expectation>& expected,
                     const IoResult& result) {
  attempted_.fetch_add(expected.size(), std::memory_order_relaxed);
  bool all_ok = true;
  for (size_t i = 0; i < expected.size(); ++i) {
    const Expectation& e = expected[i];
    Status s = result.status;
    if (s.ok()) {
      s = i < result.extent_status.size()
              ? result.extent_status[i]
              : Status::Corruption("missing extent status");
    }
    bool wrong = false;
    if (op != IoOp::kRead) {
      if (s.ok()) continue;
      std::lock_guard<std::mutex> lock(mu_);
      uncertain_.insert(e.lpn);
    } else if (e.present && s.ok()) {
      const uint64_t got =
          i < result.payloads.size() ? result.payloads[i] : ~e.payload;
      if (got == e.payload) continue;
      wrong = true;
    } else if (s.code() == StatusCode::kNotFound || s.ok()) {
      // Present but NotFound (lost) or trimmed but OK (resurrected).
      if (!e.present && s.code() == StatusCode::kNotFound) continue;
      wrong = true;
    }
    if (wrong) {
      std::lock_guard<std::mutex> lock(mu_);
      if (uncertain_.count(e.lpn) != 0) continue;
      if (mismatches_.fetch_add(1) < 8) {
        std::fprintf(stderr, "MISMATCH lpn %llu: expected %s, got %s\n",
                     static_cast<unsigned long long>(e.lpn),
                     e.present ? "data" : "NotFound", s.ToString().c_str());
      }
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    all_ok = false;
  }
  return all_ok;
}

IoRequest Tenant::Next() {
  IoRequest request = stream.Next();
  for (gecko::IoExtent& e : request.extents) e.lpn += offset;
  return request;
}

// --- Single-threaded open loop ------------------------------------------

void OpenLoop::PollOnce() {
  Tracer::Scope span(SpanName::kPoll);
  ftl_->Poll();
  ++polls_;
}

bool OpenLoop::TrySubmit(IoRequest& request, double arrival_us,
                         uint64_t id) {
  std::vector<Expectation> expected = Expectations(request, *shadow_);
  const IoOp op = request.op;
  std::vector<Expectation> admitted;
  if (op != IoOp::kRead) admitted = expected;
  CompletionCb cb = sink_->Callback(op, arrival_us, id, std::move(expected));
  Status s;
  {
    Tracer::Scope span(SpanName::kSubmit, id);
    s = ftl_->SubmitAsync(std::move(request), std::move(cb));
  }
  if (s.code() == StatusCode::kQueueFull) return false;
  GECKO_CHECK(s.ok()) << s.ToString();
  for (const Expectation& e : admitted) shadow_->Set(e);
  return true;
}

void OpenLoop::DrainDeferred() {
  while (!deferred_.empty()) {
    Deferred& d = deferred_.front();
    if (!TrySubmit(d.request, d.arrival_us, d.id)) return;
    deferred_.pop_front();
  }
}

RungResult OpenLoop::Run(const RungSpec& spec, Tenant& tenant,
                         bool trace_chunks) {
  RungResult result;
  result.spec = spec;
  RungSink sink;
  sink.rung = &result;
  sink.verdicts = verdicts_;
  sink_ = &sink;
  Tracer::Scope rung_span(SpanName::kRung);
  ChunkClock clock(&result, &sink.completed_extents, trace_chunks);

  const double start_us = device_->now_us();
  result.first_arrival_us = start_us;
  for (uint64_t i = 0; i < spec.requests; ++i) {
    clock.Before(i);
    const double arrival_us =
        start_us + static_cast<double>(i) * spec.period_us;
    // Device time passes until this arrival; completions fire at their
    // own device times, freeing queue slots for the overflow FIFO.
    while (ftl_->NextCompletionUs() <= arrival_us) {
      device_->AdvanceTo(ftl_->NextCompletionUs());
      PollOnce();
      DrainDeferred();
    }
    if (arrival_us > device_->now_us()) device_->AdvanceTo(arrival_us);
    PollOnce();
    DrainDeferred();

    const uint64_t id = next_request_id_++;
    IoRequest request;
    {
      Tracer::Scope span(SpanName::kNext, id);
      request = tenant.Next();
    }
    result.last_arrival_us = arrival_us;
    // FIFO: an arrival never overtakes an earlier refused request.
    if (!deferred_.empty() || !TrySubmit(request, arrival_us, id)) {
      deferred_.push_back(Deferred{std::move(request), arrival_us, id});
    }
  }
  while (true) {
    DrainDeferred();
    if (ftl_->InFlightRequests() == 0 && deferred_.empty()) break;
    const double next_us = ftl_->NextCompletionUs();
    GECKO_CHECK(!std::isinf(next_us)) << "requests in flight, none pending";
    device_->AdvanceTo(next_us);
    PollOnce();
  }
  clock.Finish();
  sink_ = nullptr;
  return result;
}

// --- Sharded open loop -----------------------------------------------------

RungResult RunShardedRung(gecko::ShardedFtl* ftl, const RungSpec& spec,
                          std::vector<Tenant>& tenants, Shadow* shadow,
                          Verdicts* verdicts, bool trace_chunks) {
  const uint32_t num_tenants = static_cast<uint32_t>(tenants.size());
  RungResult result;
  result.spec = spec;
  RungSink sink;
  sink.rung = &result;
  sink.verdicts = verdicts;
  Tracer::Scope rung_span(SpanName::kRung);

  // Arrivals start at the latest shard clock, so no stamp lies in any
  // shard's past.
  double base_us = 0;
  for (uint32_t s = 0; s < ftl->num_shards(); ++s) {
    base_us = std::max(base_us, ftl->shard_device(s).now_us());
  }
  result.first_arrival_us = base_us;
  const double tenant_period_us = spec.period_us * num_tenants;
  const uint64_t per_tenant = spec.requests / num_tenants;
  // Tenants take turns in arrival order: arrival g (tenant g % T) is
  // submitted only after arrival g - 1. Each shard queue then receives
  // its subs in time order, so every shard's simulated timeline depends
  // on the seed alone, not on how the threads interleave. Requests are
  // generated and checked outside the turn.
  std::atomic<uint64_t> turn{0};
  RungSpec tenant0 = spec;
  tenant0.requests = per_tenant;
  RungResult clock_view;  // chunk clock over tenant 0's arrivals
  clock_view.spec = tenant0;

  ChunkClock tenant0_clock(&clock_view, &sink.completed_extents,
                           trace_chunks);
  auto submitter = [&](uint32_t t) {
    Tenant& tenant = tenants[t];
    ChunkClock* clock = t == 0 ? &tenant0_clock : nullptr;
    for (uint64_t i = 0; i < per_tenant; ++i) {
      if (clock) clock->Before(i);
      const double arrival_us = base_us + t * spec.period_us +
                                static_cast<double>(i) * tenant_period_us;
      const uint64_t g = i * num_tenants + t;
      const uint64_t id = g + 1;
      IoRequest request;
      {
        Tracer::Scope span(SpanName::kNext, id);
        request = tenant.Next();
      }
      std::vector<Expectation> expected = Expectations(request, *shadow);
      // Waiting threads block rather than spin: the shard workers, the
      // bottleneck, need the cores.
      for (uint64_t cur = turn.load(std::memory_order_acquire); cur != g;
           cur = turn.load(std::memory_order_acquire)) {
        turn.wait(cur, std::memory_order_acquire);
      }
      const IoOp op = request.op;
      for (;;) {
        CompletionCb cb = sink.Callback(op, arrival_us, id, expected);
        Status s;
        {
          Tracer::Scope span(SpanName::kSubmit, id);
          s = ftl->SubmitAsyncAt(std::move(request), arrival_us,
                                 std::move(cb));
        }
        if (s.ok()) break;
        GECKO_CHECK(s.code() == StatusCode::kQueueFull) << s.ToString();
        std::this_thread::sleep_for(kQueueFullBackoff);
      }
      if (op != IoOp::kRead) {
        for (const Expectation& e : expected) shadow->Set(e);
      }
      turn.store(g + 1, std::memory_order_release);
      turn.notify_all();
    }
  };

  {
    // jthreads join on every path out of this scope.
    std::vector<std::jthread> threads;
    for (uint32_t t = 1; t < num_tenants; ++t) {
      threads.emplace_back(submitter, t);
    }
    submitter(0);
  }
  {
    Tracer::Scope span(SpanName::kDrain);
    ftl->DrainAsync();
  }
  tenant0_clock.Finish();

  result.last_arrival_us =
      base_us + (num_tenants - 1) * spec.period_us +
      static_cast<double>(per_tenant - 1) * tenant_period_us;
  result.chunks = std::move(clock_view.chunks);
  result.host_s = clock_view.host_s;
  return result;
}

// --- Set-up and read-back ----------------------------------------------

void Pump(gecko::Ftl* ftl, gecko::FlashDevice* device, Tenant& tenant,
          uint64_t requests, Shadow* shadow, Verdicts* verdicts) {
  for (uint64_t i = 0; i < requests; ++i) {
    SubmitClosed(ftl, device, tenant.Next(), shadow, verdicts);
  }
  ftl->DrainAsync();
}

void ReadBack(gecko::Ftl* ftl, gecko::FlashDevice* device, Shadow* shadow,
              Verdicts* verdicts) {
  constexpr uint64_t kBatch = 64;
  for (Lpn lo = 0; lo < shadow->num_lpns(); lo += kBatch) {
    IoRequest request(IoOp::kRead);
    const Lpn hi = std::min<Lpn>(lo + kBatch, shadow->num_lpns());
    for (Lpn lpn = lo; lpn < hi; ++lpn) request.Add(lpn);
    SubmitClosed(ftl, device, std::move(request), shadow, verdicts);
  }
  ftl->DrainAsync();
}

double Percentile(std::vector<double>& samples, uint64_t misses, double q) {
  const uint64_t n = samples.size() + misses;
  if (n == 0) return 0;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(n)));
  if (rank < 1) rank = 1;
  if (rank > samples.size()) return std::numeric_limits<double>::infinity();
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
