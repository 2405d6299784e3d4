#include "trace.h"

#include <cstdio>

namespace perfbench {

const char* SpanNameString(SpanName name) {
  switch (name) {
    case SpanName::kSetup: return "setup";
    case SpanName::kFill: return "setup.fill";
    case SpanName::kAge: return "setup.age";
    case SpanName::kWarm: return "setup.warm";
    case SpanName::kRung: return "rung";
    case SpanName::kNext: return "RequestStream::Next";
    case SpanName::kSubmit: return "Ftl::SubmitAsync";
    case SpanName::kPoll: return "Ftl::Poll";
    case SpanName::kCallback: return "completion_callback";
    case SpanName::kDrain: return "Ftl::DrainAsync";
    case SpanName::kCrashRecover: return "Ftl::CrashAndRecover";
    case SpanName::kReadback: return "readback";
    case SpanName::kBurst: return "crash_burst";
  }
  return "?";
}

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

Buffer* Tracer::ThreadBuffer() {
  thread_local Buffer* buffer = nullptr;
  if (buffer == nullptr) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<Buffer>());
    buffer = buffers_.back().get();
    buffer->thread = static_cast<uint32_t>(buffers_.size() - 1);
    buffer->spans.reserve(1 << 16);
  }
  return buffer;
}

Tracer::Scope::Scope(SpanName name, uint64_t request) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  buffer_ = tracer.ThreadBuffer();
  Span span;
  span.name = name;
  span.request = request;
  span.parent = buffer_->open.empty() ? -1 : buffer_->open.back();
  index_ = static_cast<int32_t>(buffer_->spans.size());
  buffer_->open.push_back(index_);
  span.start_ns = HostNowNs();
  buffer_->spans.push_back(span);
}

Tracer::Scope::~Scope() {
  if (buffer_ == nullptr) return;
  buffer_->spans[index_].end_ns = HostNowNs();
  buffer_->open.pop_back();
}

SelfTimes Tracer::ComputeSelfTimes() const {
  SelfTimes out;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans;
    std::vector<double> self(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      self[i] = static_cast<double>(spans[i].end_ns - spans[i].start_ns);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        self[spans[i].parent] -=
            static_cast<double>(spans[i].end_ns - spans[i].start_ns);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      int n = static_cast<int>(spans[i].name);
      out.self_ns[n] += self[i];
      ++out.count[n];
    }
    out.spans += spans.size();
  }
  return out;
}

bool Tracer::WriteCsv(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  int64_t origin = 0;
  for (const auto& buffer : buffers_) {
    if (!buffer->spans.empty() &&
        (origin == 0 || buffer->spans.front().start_ns < origin)) {
      origin = buffer->spans.front().start_ns;
    }
  }
  std::fprintf(f, "id,parent,thread,request,name,start_ns,end_ns\n");
  for (const auto& buffer : buffers_) {
    const uint64_t base = uint64_t{buffer->thread} << 32;
    uint64_t calls = 0;
    for (size_t i = 0; i < buffer->spans.size(); ++i) {
      const Span& s = buffer->spans[i];
      if (s.request != 0 || s.name == SpanName::kPoll) {
        if (++calls > kMaxCallSpansWritten) continue;
      }
      long long parent =
          s.parent < 0 ? -1 : static_cast<long long>(base + s.parent);
      std::fprintf(f, "%llu,%lld,%u,%llu,%s,%lld,%lld\n",
                   static_cast<unsigned long long>(base + i), parent,
                   buffer->thread, static_cast<unsigned long long>(s.request),
                   SpanNameString(s.name),
                   static_cast<long long>(s.start_ns - origin),
                   static_cast<long long>(s.end_ns - origin));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
