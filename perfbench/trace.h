// In-memory span recorder for the traced run.
//
// A span wraps one call the benchmark makes into the system (or one phase
// of its own): name, host start/end, the enclosing span on the same
// thread, and the request it serves. Spans go into per-thread buffers, so
// submitter and shard-worker threads never contend, and are written out
// once the run ends. Recording can be switched on and off while the run
// is going; the driver alternates traced and untraced chunks of every
// rung to measure what tracing itself costs.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : uint8_t {
  kSetup = 0,     // one full set-up (build, fill, age, warm)
  kFill,          // sequential fill of the logical space
  kAge,           // random overwrites until WAF levels off
  kWarm,          // cache warm-up
  kRung,          // one rung of the offered-load ladder
  kNext,          // RequestStream::Next
  kSubmit,        // Ftl::SubmitAsync / ShardedFtl::SubmitAsyncAt
  kPoll,          // Ftl::Poll
  kCallback,      // the benchmark's completion callback (verification)
  kDrain,         // Ftl::DrainAsync
  kCrashRecover,  // Ftl::CrashAndRecover
  kReadback,      // post-crash read-back of every lpn
  kBurst,         // measured-mix requests between two crashes
};
inline constexpr int kNumSpanNames = 13;

const char* SpanNameString(SpanName name);

inline int64_t HostNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t request = 0;  // 0 when the span serves no single request
  int32_t parent = -1;   // index of the enclosing span in the same buffer
  SpanName name = SpanName::kSetup;
};

/// Host self time per span name: a span's duration minus the part of it
/// its child spans cover.
struct SelfTimes {
  std::array<double, kNumSpanNames> self_ns{};
  std::array<uint64_t, kNumSpanNames> count{};
  uint64_t spans = 0;

  double MeanNs(SpanName n) const {
    int i = static_cast<int>(n);
    return count[i] > 0 ? self_ns[i] / static_cast<double>(count[i]) : 0.0;
  }
};

/// One thread's spans, owned by the Tracer.
struct Buffer {
  uint32_t thread = 0;
  std::vector<Span> spans;
  std::vector<int32_t> open;  // stack of open span indices
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread while recording is enabled;
  /// closes it when the scope ends.
  class Scope {
   public:
    explicit Scope(SpanName name, uint64_t request = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Buffer* buffer_ = nullptr;
    int32_t index_ = -1;
  };

  /// Self time per span name over every span recorded so far. Call only
  /// when no other thread is recording.
  SelfTimes ComputeSelfTimes() const;

  /// Per-call spans (Next, Submit, Poll, callback) written per thread;
  /// a full run records millions, all of which feed ComputeSelfTimes.
  static constexpr uint64_t kMaxCallSpansWritten = 60000;

  /// Writes the spans as CSV (id,parent,thread,request,name,start_ns,
  /// end_ns; times relative to the first span): every phase span, and
  /// each thread's first kMaxCallSpansWritten per-call spans. Returns
  /// false on an I/O error. Call only when no other thread is recording.
  bool WriteCsv(const std::string& path) const;

 private:
  friend class Scope;
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  std::mutex mu_;  // guards buffers_ (registration only)
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
