#include "spans.h"

#include <algorithm>
#include <fstream>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {
namespace {

uint32_t ThreadTag() {
  return static_cast<uint32_t>(
      std::hash<std::thread::id>{}(std::this_thread::get_id()) % 100000);
}

}  // namespace

uint64_t SpanLog::NowNs() const {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

int64_t SpanLog::Begin(const std::string& name, int64_t parent) {
  if (!enabled_) return -1;
  Span span{name, parent, NowNs(), 0, ThreadTag()};
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
  return static_cast<int64_t>(spans_.size() - 1);
}

void SpanLog::End(int64_t id) {
  if (id < 0) return;
  const uint64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[static_cast<size_t>(id)].end_ns = now;
}

double SpanLog::TotalSeconds(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double total = 0.0;
  for (const Span& span : spans_) {
    if (span.name == name) total += (span.end_ns - span.start_ns) * 1e-9;
  }
  return total;
}

double SpanLog::SelfSecondsLocked(size_t index) const {
  const Span& span = spans_[index];
  std::vector<std::pair<uint64_t, uint64_t>> children;
  for (const Span& child : spans_) {
    if (child.parent == static_cast<int64_t>(index)) {
      children.emplace_back(std::max(child.start_ns, span.start_ns),
                            std::min(child.end_ns, span.end_ns));
    }
  }
  std::sort(children.begin(), children.end());
  uint64_t covered = 0;
  uint64_t reach = span.start_ns;
  for (const auto& [start, end] : children) {
    const uint64_t from = std::max(start, reach);
    if (end > from) {
      covered += end - from;
      reach = end;
    }
  }
  return (span.end_ns - span.start_ns - covered) * 1e-9;
}

double SpanLog::AttributedFraction(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  double wall = 0.0;
  double attributed = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name != name) continue;
    const double duration = (spans_[i].end_ns - spans_[i].start_ns) * 1e-9;
    wall += duration;
    attributed += duration - SelfSecondsLocked(i);
  }
  return wall > 0.0 ? attributed / wall : 0.0;
}

void SpanLog::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (i > 0) out << ",";
    out << "\n{\"name\":\"" << span.name << "\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":" << span.tid << ",\"ts\":" << span.start_ns / 1000.0
        << ",\"dur\":" << (span.end_ns - span.start_ns) / 1000.0
        << ",\"args\":{\"id\":" << i << ",\"parent\":" << span.parent << "}}";
  }
  out << "\n]}\n";
}

}  // namespace perfbench
