// In-memory span recorder for the traced run. Spans are recorded only from
// the benchmark's own threads, around its calls into the library's public
// functions; nothing inside the library is instrumented. They stay in
// memory and are written once, as JSON, when the run ends.

#ifndef DGT_PERFBENCH_TRACE_H_
#define DGT_PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "workload.h"

namespace perfbench {

struct Span {
  const char* name = "";  // a string literal
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;  // index in the same buffer, -1 for a root span
  uint64_t id = 0;      // round, call or request id
};

// Spans of one recording thread.
class SpanBuffer {
 public:
  // Opens a span that ends with Close(); returns its index.
  int32_t Open(const char* name, uint64_t id, int32_t parent = -1);
  void Close(int32_t index);
  // Records an already finished span; returns its index.
  int32_t Add(const char* name, int64_t start_ns, int64_t end_ns, uint64_t id,
              int32_t parent = -1);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

struct SelfTime {
  uint64_t count = 0;
  double total_ms = 0.0;
  double median_ms = 0.0;
};

class Trace {
 public:
  // One buffer per recording thread; the trace owns it.
  SpanBuffer* NewBuffer();

  // Per span name: a span's self time is its duration minus the part of
  // it that its child spans cover.
  std::map<std::string, SelfTime> SelfTimes() const;

  // Writes the spans (the first kSpansWrittenPerName of each name, with
  // the totals), the self times and the per-layer metrics to `path`.
  bool WriteJson(const std::string& path, const std::string& header_json,
                 const std::vector<Metric>& metrics) const;

  // serve_rpc records spans by the hundred thousand; the file keeps a
  // readable sample of each name.
  static constexpr size_t kSpansWrittenPerName = 20000;

 private:
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanBuffer>> buffers_;
};

// Opens a span on construction and closes it on destruction; a no-op with
// a null buffer.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buffer, const char* name, uint64_t id,
             int32_t parent = -1)
      : buffer_(buffer),
        index_(buffer != nullptr ? buffer->Open(name, id, parent) : -1) {}
  ~ScopedSpan() {
    if (buffer_ != nullptr) buffer_->Close(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int32_t index() const { return index_; }

 private:
  SpanBuffer* buffer_;
  int32_t index_;
};

}  // namespace perfbench

#endif  // DGT_PERFBENCH_TRACE_H_
