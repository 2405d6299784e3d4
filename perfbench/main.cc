// perfbench: the repository benchmark. Runs GeckoFTL (its default
// configuration) through one of three open-loop workloads, verifies every
// read, crashes and recovers, reads everything back, and prints every
// end-to-end and per-layer metric by name and unit. The last line of
// stdout is one JSON object (end-to-end metrics with --trace 0, per-layer
// metrics with --trace 1). See README.md for why each workload and metric
// exists.
//
//   perfbench --workload update_uniform --seed 1 --seconds 10 --trace 0
//             [--out DIR]

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "driver.h"
#include "flash/flash_device.h"
#include "ftl/gecko_ftl.h"
#include "ftl/sharded_ftl.h"
#include "trace.h"
#include "workload/request_stream.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using gecko::FlashDevice;
using gecko::GeckoFtl;
using gecko::Geometry;
using gecko::IoPurpose;
using gecko::RequestStream;
using gecko::ShardedFtl;
using gecko::WorkloadSpec;

// --- Workloads -------------------------------------------------------------

/// 4096 blocks x 64 pages x 4 KiB, R = 0.7, 8 channels: 183,500 lpns.
Geometry DeviceGeometry() {
  Geometry g;
  g.num_blocks = 4096;
  g.pages_per_block = 64;
  g.page_bytes = 4096;
  g.logical_ratio = 0.7;
  g.num_channels = 8;
  return g;
}

struct WorkloadDef {
  const char* name;
  uint32_t shards;          // 0: one unsharded GeckoFTL
  uint32_t cache_entries;   // mapping-cache capacity per FTL
  /// Address distribution; num_lpns is filled in per tenant.
  WorkloadSpec shape;
  uint32_t batch;           // extents per read/write request
  double read_fraction;
  double trim_fraction;
  double age_overwrites;    // random overwrite passes during set-up
  uint64_t warm_requests;   // read-only requests during set-up
  int setups;               // set-ups per run (setup_s is their median)
  /// Offered load ladder (extents per simulated ms), fixed once from the
  /// capacity measured when this benchmark was added; the last rung
  /// saturates.
  std::vector<double> rungs_kiops;
  size_t nominal;           // rung whose latencies are reported
  double slo_p999_us;       // latency limit of slo_kiops
  uint64_t rung_requests;   // requests per rung at --seconds 10
  uint32_t nominal_factor;  // the nominal rung is this many rungs long
  uint64_t burst_requests;  // measured-mix requests between two crashes

  WorkloadSpec Spec(uint64_t num_lpns) const {
    WorkloadSpec spec = shape;
    spec.num_lpns = num_lpns;
    return spec;
  }
};

const std::vector<WorkloadDef>& Workloads() {
  static const std::vector<WorkloadDef> defs = {
      {.name = "update_uniform",
       .shards = 0,
       .cache_entries = 2048,
       .shape = WorkloadSpec::Uniform(0),
       .batch = 1,
       .read_fraction = 0.20,
       .trim_fraction = 0.0,
       .age_overwrites = 2.0,
       .warm_requests = 20000,
       .setups = 3,
       .rungs_kiops = {0.5, 1.0, 1.5, 2.0, 4.0},
       .nominal = 1,
       .slo_p999_us = 300000.0,
       .rung_requests = 60000,
       .nominal_factor = 16,
       .burst_requests = 5000},
      // Few enough writes (ladder plus crash bursts) that they fit in the
      // free space the fill leaves: GC stays idle.
      {.name = "read_zipf",
       .shards = 0,
       .cache_entries = 45875,
       .shape = WorkloadSpec::Zipf(0, 0.99),
       .batch = 1,
       .read_fraction = 0.95,
       .trim_fraction = 0.0,
       .age_overwrites = 0.0,
       .warm_requests = 100000,
       .setups = 7,
       .rungs_kiops = {20.0, 30.0, 60.0},
       .nominal = 0,
       .slo_p999_us = 20000.0,
       .rung_requests = 220000,
       .nominal_factor = 4,
       .burst_requests = 5000},
      {.name = "sharded_mixed",
       .shards = 2,
       .cache_entries = 1024,
       .shape = WorkloadSpec::HotCold(0, 0.2, 0.8),
       .batch = 4,
       .read_fraction = 0.50,
       .trim_fraction = 0.02,
       .age_overwrites = 3.0,
       .warm_requests = 20000,
       .setups = 5,
       .rungs_kiops = {0.5, 1.0, 1.5, 3.0},
       .nominal = 1,
       .slo_p999_us = 500000.0,
       .rung_requests = 40000,
       .nominal_factor = 16,
       .burst_requests = 5000},
  };
  return defs;
}

Tenant MakeTenant(WorkloadSpec spec, uint32_t batch, double read_fraction,
                  double trim_fraction, uint64_t seed, uint64_t version_base,
                  Lpn offset) {
  RequestStream::Options o;
  o.batch_size = batch;
  o.read_fraction = read_fraction;
  o.trim_fraction = trim_fraction;
  o.seed = seed;
  o.version_base = version_base;
  o.workload = spec;
  return Tenant{RequestStream(o), offset};
}

// --- The system under test and its set-up ----------------------------------

struct System {
  std::unique_ptr<FlashDevice> device;  // unsharded only
  std::unique_ptr<gecko::Ftl> ftl;
  ShardedFtl* sharded = nullptr;
  /// Each GeckoFTL instance with its device (one per shard).
  std::vector<std::pair<GeckoFtl*, FlashDevice*>> parts;
  std::unique_ptr<Shadow> shadow;
  std::vector<Tenant> tenants;  // measured streams, one per submitter
  double fill_s = 0, age_s = 0, total_s = 0;  // host seconds
};

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(HostNowNs() - start_ns) * 1e-9;
}

std::unique_ptr<System> SetUp(const WorkloadDef& w, uint64_t seed,
                              Verdicts* verdicts) {
  Tracer::Scope setup_span(SpanName::kSetup);
  const int64_t t0 = HostNowNs();
  auto sys = std::make_unique<System>();
  const Geometry geometry = DeviceGeometry();
  const uint32_t tenants = w.shards == 0 ? 1 : w.shards;
  if (w.shards == 0) {
    sys->device = std::make_unique<FlashDevice>(geometry);
    auto ftl = std::make_unique<GeckoFtl>(
        sys->device.get(), GeckoFtl::DefaultConfig(w.cache_entries));
    sys->parts.push_back({ftl.get(), sys->device.get()});
    sys->ftl = std::move(ftl);
  } else {
    gecko::ShardedFtlOptions options;
    options.geometry = geometry;
    options.num_shards = w.shards;
    options.config = GeckoFtl::DefaultConfig(w.cache_entries);
    auto sharded = std::make_unique<ShardedFtl>(
        options, [](FlashDevice* d, const gecko::FtlConfig& c) {
          return std::unique_ptr<gecko::Ftl>(new GeckoFtl(d, c));
        });
    for (uint32_t s = 0; s < w.shards; ++s) {
      sys->parts.push_back({&dynamic_cast<GeckoFtl&>(sharded->shard_ftl(s)),
                            &sharded->shard_device(s)});
    }
    sys->sharded = sharded.get();
    sys->ftl = std::move(sharded);
  }
  // The sharded front end exposes whole striping chunks per shard only,
  // slightly fewer lpns than the device.
  const uint64_t num_lpns = sys->sharded != nullptr
                                ? sys->sharded->shard_map().TotalLpns()
                                : geometry.NumLogicalPages();
  const uint64_t span = num_lpns / tenants;
  sys->shadow = std::make_unique<Shadow>(span * tenants);
  FlashDevice* clock = sys->device.get();  // null when sharded

  int64_t phase = HostNowNs();
  {
    // Sequential fill of every tenant's range in 64-extent write batches
    // (the last batch wraps around to the start of the range).
    Tracer::Scope span_fill(SpanName::kFill);
    for (uint32_t t = 0; t < tenants; ++t) {
      Tenant fill = MakeTenant(WorkloadSpec::Sequential(span), 64, 0, 0,
                               seed, uint64_t{1} << 60, t * span);
      Pump(sys->ftl.get(), clock, fill, (span + 63) / 64, sys->shadow.get(),
           verdicts);
    }
  }
  sys->fill_s = SecondsSince(phase);

  phase = HostNowNs();
  if (w.age_overwrites > 0) {
    // Random overwrites with the workload's address skew until WAF has
    // levelled off (README.md, "Workloads").
    Tracer::Scope span_age(SpanName::kAge);
    for (uint32_t t = 0; t < tenants; ++t) {
      Tenant age = MakeTenant(w.Spec(span), w.batch, 0, 0,
                              RequestStream::ForkSeed(seed, 100 + t),
                              uint64_t{2} << 60, t * span);
      const uint64_t requests = static_cast<uint64_t>(
          w.age_overwrites * static_cast<double>(span) / w.batch);
      Pump(sys->ftl.get(), clock, age, requests, sys->shadow.get(), verdicts);
    }
  }
  sys->age_s = SecondsSince(phase);

  for (uint32_t t = 0; t < tenants; ++t) {
    sys->tenants.push_back(MakeTenant(w.Spec(span), w.batch,
                                      w.read_fraction, w.trim_fraction,
                                      RequestStream::ForkSeed(seed, t), 0,
                                      t * span));
  }
  {
    // Read-only warm-up with the workload's address skew: the mapping
    // cache fills without consuming free space.
    Tracer::Scope span_warm(SpanName::kWarm);
    for (uint32_t t = 0; t < tenants; ++t) {
      Tenant warm = MakeTenant(w.Spec(span), w.batch, 1.0, 0,
                               RequestStream::ForkSeed(seed, 200 + t), 0,
                               t * span);
      Pump(sys->ftl.get(), clock, warm, w.warm_requests / tenants,
           sys->shadow.get(), verdicts);
    }
  }
  sys->total_s = SecondsSince(t0);
  return sys;
}

// --- Layer counters --------------------------------------------------------

/// Cumulative counters of every GeckoFTL instance and device, summed.
struct Snapshot {
  uint64_t reads = 0, writes = 0, trims = 0;
  uint64_t sync_ops = 0, checkpoints = 0;
  uint64_t gc_collections = 0, gc_migrations = 0;
  uint64_t cache_hits = 0, cache_misses = 0, miss_fetches = 0, miss_joins = 0;
  gecko::IoCounters io;
  uint64_t admitted = 0, parked = 0, queue_full = 0;
  uint64_t throttled_steps = 0, emergency_stalls = 0;
  std::vector<double> channel_busy_us;  // every channel of every device
  std::vector<double> now_us;           // per device
  uint32_t queue_depth_max = 0, inflight_max = 0;
  double miss_stall_p99_us = 0;
  gecko::ShardedFtlStats front;
};

Snapshot Take(const System& sys) {
  Snapshot s;
  for (const auto& [ftl, device] : sys.parts) {
    const gecko::FtlCounters& c = ftl->counters();
    s.reads += c.reads;
    s.writes += c.writes;
    s.trims += c.trims;
    s.sync_ops += c.sync_ops;
    s.checkpoints += c.checkpoints;
    s.gc_collections += c.gc_collections;
    s.gc_migrations += c.gc_migrations;
    s.cache_hits += c.cache_hits;
    s.cache_misses += c.cache_misses;
    s.miss_fetches += c.miss_fetches;
    s.miss_joins += c.miss_joins;
    const gecko::IoStats& io = device->stats();
    s.io += io.counters();
    const gecko::AsyncEngineStats& e = ftl->async_engine().stats();
    s.admitted += e.admitted;
    s.parked += e.parked;
    s.queue_full += e.queue_full;
    const gecko::MaintenanceStats& m = ftl->maintenance().stats();
    s.throttled_steps += m.throttled_steps;
    s.emergency_stalls += m.emergency_stalls;
    for (uint32_t ch = 0; ch < io.num_channels(); ++ch) {
      s.channel_busy_us.push_back(io.ChannelBusyUs(ch));
    }
    s.now_us.push_back(device->now_us());
    s.queue_depth_max = std::max(s.queue_depth_max, io.max_queue_depth());
    s.inflight_max = std::max(s.inflight_max, io.host_inflight_watermark());
    s.miss_stall_p99_us =
        std::max(s.miss_stall_p99_us, io.MissStall().Percentile(0.99));
  }
  if (sys.sharded != nullptr) s.front = sys.sharded->stats();
  return s;
}

/// Counters accumulated from `before` to `after`. Gauges (watermarks, the
/// miss-stall percentile) are `after`'s: device stats restart with the
/// ladder.
Snapshot Delta(const Snapshot& before, Snapshot after) {
  after.reads -= before.reads;
  after.writes -= before.writes;
  after.trims -= before.trims;
  after.sync_ops -= before.sync_ops;
  after.checkpoints -= before.checkpoints;
  after.gc_collections -= before.gc_collections;
  after.gc_migrations -= before.gc_migrations;
  after.cache_hits -= before.cache_hits;
  after.cache_misses -= before.cache_misses;
  after.miss_fetches -= before.miss_fetches;
  after.miss_joins -= before.miss_joins;
  after.io = after.io - before.io;
  after.admitted -= before.admitted;
  after.parked -= before.parked;
  after.queue_full -= before.queue_full;
  after.throttled_steps -= before.throttled_steps;
  after.emergency_stalls -= before.emergency_stalls;
  for (size_t c = 0; c < after.channel_busy_us.size(); ++c) {
    after.channel_busy_us[c] -= before.channel_busy_us[c];
  }
  for (size_t d = 0; d < after.now_us.size(); ++d) {
    after.now_us[d] -= before.now_us[d];
  }
  after.front.requests -= before.front.requests;
  after.front.sub_requests -= before.front.sub_requests;
  after.front.queue_full_rejections -= before.front.queue_full_rejections;
  return after;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// ReferenceSpeed() on the machine this benchmark was tuned on (a 4-vCPU
/// x86-64 VM; its median over runs). Host-time metrics are scaled to it.
constexpr double kReferenceSpeed = 90.0;

/// Host throughput of the ladder in extents per host ms (kop/s), over the
/// traced or the untraced chunks. A shared machine slows down for seconds
/// at a time and never speeds up, so each rung runs at the 90th
/// percentile of its chunks' rates. With `normalize`, each rung's rate is
/// also scaled by kReferenceSpeed over the median reference speed taken
/// between its chunks, which removes the machine's drift over minutes.
double HostKops(const std::vector<RungResult>& rungs, bool traced,
                bool normalize) {
  double extents = 0, seconds = 0;
  for (const RungResult& r : rungs) {
    std::vector<double> rates, ref_speeds;
    double rung_extents = 0;
    for (const Chunk& c : r.chunks) {
      if (c.traced != traced || c.host_s <= 0) continue;
      rates.push_back(static_cast<double>(c.extents) / c.host_s);
      ref_speeds.push_back(c.ref_speed);
      rung_extents += static_cast<double>(c.extents);
    }
    if (rates.empty()) continue;
    std::sort(rates.begin(), rates.end());
    const size_t rank = static_cast<size_t>(
        std::ceil(0.9 * static_cast<double>(rates.size())));
    double rate = rates[rank - 1];
    if (normalize) rate *= kReferenceSpeed / Median(ref_speeds);
    extents += rung_extents;
    seconds += rung_extents / rate;
  }
  return Ratio(extents, seconds) / 1000.0;
}


// --- Metric table ----------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
  const char* clock;  // "sim", "host" or "count"
  std::string note;   // sample count, or what the metric should move
};

void Print(const char* kind, const Metric& m) {
  std::printf("%-6s %-36s %14.6g %-9s %-5s %s\n", kind, m.name.c_str(),
              m.value, m.unit, m.clock, m.note.c_str());
}

std::string JsonMetrics(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", metrics[i].name.c_str(),
                  metrics[i].value, metrics[i].unit);
    out += buf;
  }
  return out + "}";
}

/// Recovery steps of GeckoRec, by the names RecoveryReport gives them.
const std::map<std::string, std::string>& RecoverySteps() {
  static const std::map<std::string, std::string> steps = {
      {"block scan (BID)", "recovery.bid_ms"},
      {"GMD (translation-page spare scan)", "recovery.gmd_ms"},
      {"Gecko run directories", "recovery.gecko_runs_ms"},
      {"Gecko buffer (erased blocks)", "recovery.buffer_erases_ms"},
      {"Gecko buffer (translation diff)", "recovery.buffer_diff_ms"},
      {"BVC (scan Logarithmic Gecko)", "recovery.bvc_ms"},
      {"dirty mapping entries (backward scan)", "recovery.dirty_entries_ms"},
      {"flush re-derived Gecko buffer", "recovery.buffer_flush_ms"},
  };
  return steps;
}

/// Everything one run measured.
struct Measurement {
  std::vector<double> setup_s, fill_s, age_s;
  std::vector<RungResult> rungs;
  Snapshot delta;  // layer counters over the ladder
  uint64_t requests = 0;  // ladder requests
  uint64_t polls = 0;
  uint32_t chunks = 0;    // chunks per (non-nominal) rung
  uint64_t ram_bytes = 0, cache_bytes = 0, gmd_bytes = 0, pvm_bytes = 0;
  gecko::RecoveryReport recovery;  // the median of the crash points
  uint64_t attempted = 0, failed = 0;
};

std::vector<double> WritesAndTrims(const RungResult& r) {
  std::vector<double> writes = r.write_us;
  writes.insert(writes.end(), r.trim_us.begin(), r.trim_us.end());
  return writes;
}

std::vector<Metric> EndToEndMetrics(const WorkloadDef& w, Measurement& m) {
  const gecko::LatencyModel latency;
  double slo_kiops = 0;
  for (RungResult& r : m.rungs) {
    std::vector<double> writes = WritesAndTrims(r);
    const bool met =
        Percentile(r.read_us, r.failed_reads, 0.999) <= w.slo_p999_us &&
        Percentile(writes, r.failed_writes, 0.999) <= w.slo_p999_us &&
        r.last_complete_us - r.last_arrival_us <= w.slo_p999_us;
    if (met) slo_kiops = std::max(slo_kiops, r.spec.offered_kiops);
  }
  RungResult& nominal = m.rungs[w.nominal];
  const RungResult& saturating = m.rungs.back();
  const std::string reads_n = "n=" + std::to_string(nominal.read_us.size());
  const std::string writes_n = "n=" + std::to_string(nominal.write_us.size());
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return {
      {"max_kiops",
       Ratio(static_cast<double>(saturating.extents_completed),
             saturating.last_complete_us - saturating.first_arrival_us) *
           1000.0,
       "sim_kIOPS", "sim", "saturating rung"},
      {"slo_kiops", slo_kiops, "sim_kIOPS", "sim",
       "p99.9 limit " + std::to_string(static_cast<int>(w.slo_p999_us)) +
           " us"},
      {"read_p50_us", Percentile(nominal.read_us, nominal.failed_reads, 0.5),
       "sim_us", "sim", reads_n},
      {"read_p999_us",
       Percentile(nominal.read_us, nominal.failed_reads, 0.999), "sim_us", "sim",
       reads_n},
      {"write_p50_us",
       Percentile(nominal.write_us, nominal.failed_writes, 0.5), "sim_us", "sim",
       writes_n},
      {"write_p999_us",
       Percentile(nominal.write_us, nominal.failed_writes, 0.999), "sim_us",
       "sim", writes_n},
      {"waf", m.delta.io.WriteAmplification(latency.Delta()), "x", "sim", ""},
      {"ram_kib", static_cast<double>(m.ram_bytes) / 1024.0, "KiB", "sim", ""},
      {"recovery_ms", m.recovery.TotalMicros(latency) / 1000.0, "sim_ms", "sim",
       "median of the crash points"},
      {"host_kops", HostKops(m.rungs, false, true), "kop/s", "host",
       "p90 of each rung's chunks, reference-scaled"},
      {"setup_s", Median(m.setup_s), "s", "host",
       "median of " + std::to_string(m.setup_s.size()) +
           ", reference-scaled"},
      {"host_rss_mib", static_cast<double>(usage.ru_maxrss) / 1024.0, "MiB",
       "host", ""},
      {"ok_frac",
       1.0 - Ratio(static_cast<double>(m.failed),
                   static_cast<double>(m.attempted)),
       "frac", "count", std::to_string(m.failed) + " failed"},
  };
}

std::vector<Metric> LayerMetrics(const Measurement& m, const SelfTimes& self) {
  const gecko::LatencyModel latency;
  const Snapshot& d = m.delta;
  const double reads = static_cast<double>(d.reads);
  const double writes = static_cast<double>(d.writes + d.trims);
  auto busy_ms = [&](IoPurpose p) {
    int i = static_cast<int>(p);
    return (d.io.page_reads[i] * latency.page_read_us +
            d.io.page_writes[i] * latency.page_write_us +
            d.io.spare_reads[i] * latency.spare_read_us +
            d.io.erases[i] * latency.erase_us) /
           1000.0;
  };
  // Channel utilization: busy time over the ladder's simulated span of
  // the channel's device.
  const size_t per_device = d.channel_busy_us.size() / d.now_us.size();
  double util_sum = 0, util_min = 1;
  for (size_t c = 0; c < d.channel_busy_us.size(); ++c) {
    double u = Ratio(d.channel_busy_us[c], d.now_us[c / per_device]);
    util_sum += u;
    util_min = std::min(util_min, u);
  }
  const double span_max =
      *std::max_element(d.now_us.begin(), d.now_us.end());
  double span_sum = 0;
  for (double e : d.now_us) span_sum += e;
  const double traced = HostKops(m.rungs, true, true);
  const double untraced = HostKops(m.rungs, false, true);
  std::vector<double> ref_speeds;
  for (const RungResult& r : m.rungs) {
    for (const Chunk& c : r.chunks) ref_speeds.push_back(c.ref_speed);
  }
  const double front_requests = static_cast<double>(d.front.requests);
  const double front_refused =
      static_cast<double>(d.front.queue_full_rejections);

  const std::string gc_note =
      "-> waf, write_p999_us on update_uniform, sharded_mixed";
  const std::string engine_note =
      "-> write_p999_us, slo_kiops on update_uniform, sharded_mixed";
  std::vector<Metric> out = {
      {"workload.next_ns", self.MeanNs(SpanName::kNext), "ns", "host",
       "-> host_kops on all workloads"},
      {"ftl.submit_ns", self.MeanNs(SpanName::kSubmit), "ns", "host",
       "-> host_kops on read_zipf, sharded_mixed"},
      {"ftl.poll_ns", self.MeanNs(SpanName::kPoll), "ns", "host",
       "-> host_kops on read_zipf"},
      {"ftl.polls_per_req",
       Ratio(static_cast<double>(m.polls), static_cast<double>(m.requests)),
       "count", "count", "-> host_kops on read_zipf"},
      {"bench.callback_ns", self.MeanNs(SpanName::kCallback), "ns", "host",
       "-> host_kops on all workloads"},
      {"ftl.crash_recover_s", self.MeanNs(SpanName::kCrashRecover) * 1e-9,
       "s", "host", "-> host cost of recovery_ms"},
      {"host.raw_kops", HostKops(m.rungs, false, false), "kop/s", "host",
       "host_kops before reference scaling"},
      {"host.ref_speed", Median(ref_speeds), "Mit/s", "host",
       "machine speed during the ladder (kReferenceSpeed = 90)"},
      {"trace.host_kops", traced, "kop/s", "host", "traced chunks"},
      {"trace.overhead_frac", traced > 0 ? 1.0 - traced / untraced : 0.0,
       "frac", "host", "host_kops lost to tracing"},
      {"setup.fill_s", Median(m.fill_s), "s", "host", "-> setup_s"},
      {"setup.age_s", Median(m.age_s), "s", "host", "-> setup_s"},
      {"async_engine.parked_frac",
       Ratio(static_cast<double>(d.parked), static_cast<double>(d.admitted)),
       "frac", "count", engine_note},
      {"async_engine.queue_full_frac",
       Ratio(static_cast<double>(d.queue_full),
             static_cast<double>(d.admitted + d.queue_full)),
       "frac", "count", engine_note},
      {"async_engine.inflight_max", static_cast<double>(d.inflight_max),
       "count", "count", engine_note},
      {"mapping_cache.hit_ratio",
       Ratio(static_cast<double>(d.cache_hits),
             static_cast<double>(d.cache_hits + d.cache_misses)),
       "frac", "count", "-> read_p50_us, read_p999_us, max_kiops on read_zipf"},
      {"mapping_cache.miss_fetches_per_read",
       Ratio(static_cast<double>(d.miss_fetches), reads), "count", "count",
       "-> read_p50_us, read_p999_us, max_kiops on read_zipf"},
      {"mapping_cache.join_ratio",
       Ratio(static_cast<double>(d.miss_joins),
             static_cast<double>(d.miss_fetches + d.miss_joins)),
       "frac", "count", "-> read_p999_us, max_kiops on read_zipf"},
      {"mapping_cache.miss_stall_p99_us", d.miss_stall_p99_us, "sim_us", "sim",
       "-> read_p999_us on read_zipf, update_uniform"},
      {"translation.reads_per_op",
       Ratio(static_cast<double>(d.io.ReadsFor(IoPurpose::kTranslation)),
             reads + writes),
       "count", "count", "-> waf, write_p999_us on update_uniform"},
      {"translation.writes_per_write",
       Ratio(static_cast<double>(d.io.WritesFor(IoPurpose::kTranslation)),
             writes),
       "count", "count", "-> waf, write_p999_us on update_uniform"},
      {"translation.sync_ops", static_cast<double>(d.sync_ops), "count",
       "count", "-> waf, write_p999_us on update_uniform"},
      {"translation.checkpoints", static_cast<double>(d.checkpoints), "count",
       "count", "-> waf on update_uniform; recovery_ms"},
      {"pvm.reads_per_write",
       Ratio(static_cast<double>(d.io.ReadsFor(IoPurpose::kPvm)), writes),
       "count", "count", "-> waf on update_uniform"},
      {"pvm.writes_per_write",
       Ratio(static_cast<double>(d.io.WritesFor(IoPurpose::kPvm)), writes),
       "count", "count", "-> waf on update_uniform"},
      {"gc.migrations_per_write",
       Ratio(static_cast<double>(d.gc_migrations), writes), "count", "count",
       gc_note},
      {"gc.collections", static_cast<double>(d.gc_collections), "count",
       "count", gc_note},
      {"gc.erases", static_cast<double>(d.io.TotalErases()), "count", "count",
       gc_note},
      {"gc.throttled_steps", static_cast<double>(d.throttled_steps), "count",
       "count", gc_note},
      {"gc.emergency_stalls", static_cast<double>(d.emergency_stalls),
       "count", "count", gc_note},
      {"flash.busy_ms.user_write", busy_ms(IoPurpose::kUserWrite), "sim_ms",
       "sim", "-> max_kiops on update_uniform, sharded_mixed"},
      {"flash.busy_ms.user_read", busy_ms(IoPurpose::kUserRead), "sim_ms", "sim",
       "-> max_kiops, read_p999_us on read_zipf"},
      {"flash.busy_ms.gc", busy_ms(IoPurpose::kGcMigration), "sim_ms", "sim",
       "-> max_kiops, read_p999_us on update_uniform, sharded_mixed"},
      {"flash.busy_ms.translation", busy_ms(IoPurpose::kTranslation), "sim_ms",
       "sim", "-> max_kiops, read_p999_us on update_uniform"},
      {"flash.busy_ms.pvm", busy_ms(IoPurpose::kPvm), "sim_ms", "sim",
       "-> max_kiops on update_uniform"},
      {"flash.channel_util_mean",
       util_sum / static_cast<double>(d.channel_busy_us.size()), "frac", "sim",
       "-> max_kiops on all workloads"},
      {"flash.channel_util_min", util_min, "frac", "sim",
       "-> max_kiops on all workloads"},
      {"flash.queue_depth_max", static_cast<double>(d.queue_depth_max),
       "count", "count", "-> read_p999_us on all workloads"},
  };
  std::map<std::string, double> recovery_ms;
  for (const auto& [step, metric] : RecoverySteps()) recovery_ms[metric] = 0;
  recovery_ms["recovery.other_ms"] = 0;
  for (const gecko::RecoveryStep& step : m.recovery.steps) {
    auto it = RecoverySteps().find(step.name);
    const std::string& metric =
        it == RecoverySteps().end() ? "recovery.other_ms" : it->second;
    recovery_ms[metric] += step.Micros(latency) / 1000.0;
  }
  for (const auto& [metric, ms] : recovery_ms) {
    out.push_back({metric, ms, "sim_ms", "sim", "-> recovery_ms"});
  }
  const double other_bytes = static_cast<double>(
      m.ram_bytes - m.cache_bytes - m.gmd_bytes - m.pvm_bytes);
  out.insert(
      out.end(),
      {
          {"ram.cache_kib", m.cache_bytes / 1024.0, "KiB", "sim", "-> ram_kib"},
          {"ram.gmd_kib", m.gmd_bytes / 1024.0, "KiB", "sim", "-> ram_kib"},
          {"ram.pvm_kib", m.pvm_bytes / 1024.0, "KiB", "sim", "-> ram_kib"},
          {"ram.other_kib", other_bytes / 1024.0, "KiB", "sim", "-> ram_kib"},
          {"sharded_ftl.subs_per_req",
           Ratio(static_cast<double>(d.front.sub_requests), front_requests),
           "count", "count", "-> host_kops, max_kiops on sharded_mixed"},
          {"sharded_ftl.queue_full_frac",
           Ratio(front_refused, front_requests + front_refused), "frac",
           "host", "-> host_kops on sharded_mixed"},
          {"sharded_ftl.shard_skew",
           Ratio(span_max, span_sum / static_cast<double>(d.now_us.size())),
           "x", "sim", "-> max_kiops, slo_kiops on sharded_mixed"},
      });
  return out;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string out = ".";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a->workload = v;
    else if (k == "--seed") a->seed = std::strtoull(v.c_str(), nullptr, 10);
    else if (k == "--seconds") a->seconds = std::strtod(v.c_str(), nullptr);
    else if (k == "--trace") a->trace = v == "1";
    else if (k == "--out") a->out = v;
    else return false;
  }
  return argc % 2 == 1 && !a->workload.empty() && a->seconds > 0;
}

/// Steps up the workload's ladder on a set-up system.
void RunLadder(const WorkloadDef& w, const Args& args, System* sys,
               Verdicts* verdicts, Measurement* m) {
  // Rung size: scaled by --seconds, but never below what puts ten
  // samples of every reported op type beyond p99.9.
  const double min_share =
      std::min(w.read_fraction,
               (1 - w.read_fraction) * (1 - 2 * w.trim_fraction));
  const uint64_t min_requests =
      static_cast<uint64_t>(std::ceil(10000 / min_share * 1.1));
  m->chunks = 16;
  const uint64_t granule = m->chunks * (w.shards == 0 ? 1 : w.shards);
  auto rung_size = [&](uint64_t base) {
    uint64_t n = std::max<uint64_t>(
        min_requests, static_cast<uint64_t>(static_cast<double>(base) *
                                            args.seconds / 10.0));
    return (n + granule - 1) / granule * granule;
  };

  // Device stats restart with the ladder (per-ladder watermarks); FTL
  // counters are cumulative and enter as deltas.
  for (const auto& part : sys->parts) part.second->stats().Reset();
  const Snapshot before = Take(*sys);
  OpenLoop loop(sys->ftl.get(), sys->device.get(), sys->shadow.get(),
                verdicts);
  for (double kiops : w.rungs_kiops) {
    const uint32_t factor = m->rungs.size() == w.nominal ? w.nominal_factor : 1;
    RungSpec spec;
    spec.offered_kiops = kiops;
    spec.period_us = 1000.0 * w.batch / kiops;
    spec.requests = rung_size(w.rung_requests * factor);
    spec.chunks = m->chunks * factor;
    if (sys->sharded != nullptr) {
      m->rungs.push_back(RunShardedRung(sys->sharded, spec, sys->tenants,
                                        sys->shadow.get(), verdicts,
                                        args.trace));
    } else {
      m->rungs.push_back(loop.Run(spec, sys->tenants[0], args.trace));
    }
    m->requests += spec.requests;
  }
  m->delta = Delta(before, Take(*sys));
  m->polls = loop.polls();
  m->ram_bytes = sys->ftl->RamBytes();
  for (const auto& part : sys->parts) {
    m->cache_bytes += uint64_t{part.first->cache().capacity()} * 8;
    m->gmd_bytes += part.first->translation().GmdRamBytes();
    m->pvm_bytes += part.first->gecko().RamBytes();
  }
}

/// Power failures with no host flush anywhere in the run. Recovery time
/// depends on where a crash falls in the checkpoint and Logarithmic Gecko
/// merge cycles, so it is taken at several crash points spaced by short
/// bursts of the measured mix, and the median kept. After the last crash
/// every lpn must read back as acknowledged.
void CrashAndReadBack(const WorkloadDef& w, System* sys, Verdicts* verdicts,
                      Measurement* m) {
  constexpr int kCrashes = 5;
  const gecko::LatencyModel latency;
  std::vector<gecko::RecoveryReport> reports;
  for (int k = 0; k < kCrashes; ++k) {
    if (k > 0) {
      Tracer::Scope span(SpanName::kBurst);
      for (Tenant& tenant : sys->tenants) {
        Pump(sys->ftl.get(), sys->device.get(), tenant,
             w.burst_requests / sys->tenants.size(), sys->shadow.get(),
             verdicts);
      }
    }
    Tracer::Scope span(SpanName::kCrashRecover);
    reports.push_back(sys->ftl->CrashAndRecover());
  }
  std::sort(reports.begin(), reports.end(),
            [&](const gecko::RecoveryReport& a,
                const gecko::RecoveryReport& b) {
              return a.TotalMicros(latency) < b.TotalMicros(latency);
            });
  m->recovery = reports[kCrashes / 2];
  Tracer::Scope span(SpanName::kReadback);
  ReadBack(sys->ftl.get(), sys->device.get(), sys->shadow.get(), verdicts);
}

void PrintRungs(const WorkloadDef& w, std::vector<RungResult>& rungs) {
  std::printf("%-6s %-9s %9s %9s %10s %10s %10s %10s %9s %7s\n", "rung",
              "offered", "requests", "achieved", "rd_p50", "rd_p999",
              "wr_p50", "wr_p999", "backlog", "host_s");
  for (size_t i = 0; i < rungs.size(); ++i) {
    RungResult& r = rungs[i];
    std::vector<double> writes = WritesAndTrims(r);
    std::printf(
        "%-6s %-9.3f %9llu %9.3f %10.1f %10.1f %10.1f %10.1f %9.1f %7.2f\n",
        i == w.nominal ? "nom" : "", r.spec.offered_kiops,
        static_cast<unsigned long long>(r.spec.requests),
        Ratio(static_cast<double>(r.extents_completed),
              r.last_complete_us - r.first_arrival_us) * 1000.0,
        Percentile(r.read_us, r.failed_reads, 0.5),
        Percentile(r.read_us, r.failed_reads, 0.999),
        Percentile(writes, r.failed_writes, 0.5),
        Percentile(writes, r.failed_writes, 0.999),
        (r.last_complete_us - r.last_arrival_us) / 1000.0, r.host_s);
  }
}

int Run(const Args& args) {
  const WorkloadDef* w = nullptr;
  for (const WorkloadDef& d : Workloads()) {
    if (args.workload == d.name) w = &d;
  }
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  Tracer& tracer = Tracer::Get();
  tracer.set_enabled(args.trace);
  Measurement m;

  // Set up several times from the same seed (identical states); report
  // the median time and measure on the last one.
  Verdicts setup_verdicts;
  std::unique_ptr<System> sys;
  for (int i = 0; i < w->setups; ++i) {
    sys.reset();
    const double ref_before = ReferenceSpeed();
    sys = SetUp(*w, args.seed, &setup_verdicts);
    // Set-up times in seconds of the reference machine (see HostKops).
    const double scale =
        (ref_before + ReferenceSpeed()) / 2 / kReferenceSpeed;
    m.setup_s.push_back(sys->total_s * scale);
    m.fill_s.push_back(sys->fill_s * scale);
    m.age_s.push_back(sys->age_s * scale);
  }
  Verdicts verdicts;
  RunLadder(*w, args, sys.get(), &verdicts, &m);
  CrashAndReadBack(*w, sys.get(), &verdicts, &m);
  tracer.set_enabled(false);

  m.attempted = verdicts.attempted();
  m.failed = verdicts.failed();
  const uint64_t mismatches =
      setup_verdicts.mismatches() + verdicts.mismatches();
  const bool correct = mismatches == 0 && setup_verdicts.failed() == 0;
  const SelfTimes self = tracer.ComputeSelfTimes();
  const std::vector<Metric> e2e = EndToEndMetrics(*w, m);
  const std::vector<Metric> layers = LayerMetrics(m, self);

  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              w->name, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  PrintRungs(*w, m.rungs);
  for (const Metric& metric : e2e) Print("e2e", metric);
  for (const Metric& metric : layers) Print("layer", metric);
  std::printf("correct=%d attempted=%llu failed=%llu mismatches=%llu "
              "spans=%llu\n",
              correct ? 1 : 0, static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              static_cast<unsigned long long>(mismatches),
              static_cast<unsigned long long>(self.spans));
  if (args.trace) {
    const std::string path = args.out + "/spans-" + w->name + ".csv";
    if (!tracer.WriteCsv(path)) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 2;
    }
    std::printf("spans written to %s\n", path.c_str());
  }
  const std::vector<Metric>& reported = args.trace ? layers : e2e;
  for (const Metric& metric : reported) {
    if (!std::isfinite(metric.value)) {
      // A p99.9 is infinite when over 0.1% of requests failed.
      std::fprintf(stderr, "metric %s is not finite\n", metric.name.c_str());
      return 3;
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(m.attempted),
              static_cast<unsigned long long>(m.failed),
              JsonMetrics(reported).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out DIR]\n");
    return 2;
  }
  return perfbench::Run(args);
}
