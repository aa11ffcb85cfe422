#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

#include "stats.h"

namespace perfbench {

int32_t SpanBuffer::Open(const char* name, uint64_t id, int32_t parent) {
  const int64_t now = NowNs();
  return Add(name, now, now, id, parent);
}

void SpanBuffer::Close(int32_t index) { spans_[index].end_ns = NowNs(); }

int32_t SpanBuffer::Add(const char* name, int64_t start_ns, int64_t end_ns,
                        uint64_t id, int32_t parent) {
  spans_.push_back(Span{name, start_ns, end_ns, parent, id});
  return static_cast<int32_t>(spans_.size() - 1);
}

SpanBuffer* Trace::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.push_back(std::make_unique<SpanBuffer>());
  return buffers_.back().get();
}

namespace {

// Nanoseconds of [start, end) covered by the union of `children`, each
// clipped to the parent interval.
int64_t CoveredNs(int64_t start, int64_t end,
                  std::vector<std::pair<int64_t, int64_t>>* children) {
  std::sort(children->begin(), children->end());
  int64_t covered = 0;
  int64_t cursor = start;
  for (const auto& [child_start, child_end] : *children) {
    const int64_t lo = std::max(child_start, cursor);
    const int64_t hi = std::min(child_end, end);
    if (hi > lo) {
      covered += hi - lo;
      cursor = hi;
    }
  }
  return covered;
}

}  // namespace

std::map<std::string, SelfTime> Trace::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> self_ms;
  for (const auto& buffer : buffers_) {
    const std::vector<Span>& spans = buffer->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& s : spans) {
      if (s.parent >= 0) children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      const int64_t self =
          (s.end_ns - s.start_ns) - CoveredNs(s.start_ns, s.end_ns, &children[i]);
      self_ms[s.name].push_back(static_cast<double>(self) / 1e6);
    }
  }
  std::map<std::string, SelfTime> out;
  for (auto& [name, values] : self_ms) {
    SelfTime t;
    t.count = values.size();
    for (double v : values) t.total_ms += v;
    t.median_ms = Samples<double>(std::move(values)).Median();
    out[name] = t;
  }
  return out;
}

bool Trace::WriteJson(const std::string& path, const std::string& header_json,
                      const std::vector<Metric>& metrics) const {
  const std::map<std::string, SelfTime> self_times = SelfTimes();
  std::ofstream out(path);
  if (!out) return false;
  char buf[256];
  out << "{\n\"run\": " << header_json << ",\n\"per_layer\": [\n";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    std::snprintf(buf, sizeof(buf),
                  "  {\"name\": \"%s\", \"value\": %.17g, \"unit\": \"%s\", "
                  "\"samples\": %llu, \"derived\": %s}%s\n",
                  m.name.c_str(), m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples),
                  m.derived ? "true" : "false",
                  i + 1 < metrics.size() ? "," : "");
    out << buf;
  }
  out << "],\n\"self_time_ms\": {\n";
  size_t k = 0;
  for (const auto& [name, t] : self_times) {
    std::snprintf(buf, sizeof(buf),
                  "  \"%s\": {\"count\": %llu, \"total\": %.6f, "
                  "\"median\": %.6f}%s\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.total_ms, t.median_ms,
                  ++k < self_times.size() ? "," : "");
    out << buf;
  }
  out << "},\n\"spans\": [\n";
  // Columns: name, start_ns, end_ns, parent (index within the buffer),
  // id, buffer. Start times are relative to the earliest span.
  std::lock_guard<std::mutex> lock(mu_);
  int64_t origin = INT64_MAX;
  for (const auto& buffer : buffers_) {
    for (const Span& s : buffer->spans()) origin = std::min(origin, s.start_ns);
  }
  std::map<std::string, size_t> written;
  std::map<std::string, size_t> total;
  bool first = true;
  for (size_t b = 0; b < buffers_.size(); ++b) {
    for (const Span& s : buffers_[b]->spans()) {
      ++total[s.name];
      if (written[s.name]++ >= kSpansWrittenPerName) continue;
      std::snprintf(buf, sizeof(buf), "%s  [\"%s\", %lld, %lld, %d, %llu, %zu]",
                    first ? "" : ",\n", s.name,
                    static_cast<long long>(s.start_ns - origin),
                    static_cast<long long>(s.end_ns - origin), s.parent,
                    static_cast<unsigned long long>(s.id), b);
      out << buf;
      first = false;
    }
  }
  out << "\n],\n\"spans_recorded\": {";
  k = 0;
  for (const auto& [name, n] : total) {
    out << (k++ == 0 ? "" : ", ") << "\"" << name << "\": " << n;
  }
  out << "},\n\"spans_written_per_name_max\": " << kSpansWrittenPerName
      << "\n}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
