#include "util/trace_recorder.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>

#include "util/atomic_file.h"
#include "util/metrics.h"

namespace tabsketch::util {

namespace {

/// Process-wide recording-generation counter. Generations must be unique
/// across *instances*, not just within one: the thread-local ring cache is
/// keyed on (owner pointer, generation), and a test's stack-allocated
/// recorder can be destroyed and a new one constructed at the same address —
/// per-instance numbering would let the stale cache entry match and dangle.
std::atomic<uint64_t> next_generation{0};

int64_t SteadyNowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void CopyName(const char* name, char (&dst)[TraceRecorder::kMaxNameLength + 1]) {
  size_t i = 0;
  for (; i < TraceRecorder::kMaxNameLength && name[i] != '\0'; ++i) {
    dst[i] = name[i];
  }
  dst[i] = '\0';
}

/// Microseconds with ns resolution — the trace-event format's `ts`/`dur`
/// unit is µs, but fractional values are allowed and Perfetto honors them.
void WriteMicros(std::ostream& os, uint64_t ns) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu.%03u",
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  os << buf;
}

}  // namespace

TraceRecorder& TraceRecorder::Global() {
  static TraceRecorder* const recorder = new TraceRecorder();  // leaked, like
  // MetricsRegistry::Global(): cached thread-local ring pointers must never
  // dangle during static destruction.
  return *recorder;
}

void TraceRecorder::Start(size_t capacity_per_thread) {
  std::lock_guard<std::mutex> lock(mutex_);
  rings_.clear();
  capacity_ = std::max(capacity_per_thread, kMinCapacity);
  epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  generation_.store(next_generation.fetch_add(1, std::memory_order_relaxed) + 1,
                    std::memory_order_relaxed);
  started_.store(true, std::memory_order_release);
  if (this == &Global()) MetricsRegistry::SetTraceActive(true);
}

void TraceRecorder::Stop() {
  uint64_t lost = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!started_.load(std::memory_order_relaxed)) return;
    started_.store(false, std::memory_order_release);
    if (this == &Global()) MetricsRegistry::SetTraceActive(false);
    for (const auto& ring : rings_) {
      const uint64_t written = ring->next.load(std::memory_order_acquire);
      if (written > ring->events.size()) lost += written - ring->events.size();
    }
  }
  // Mirror the loss into the metrics registry (outside our lock) so a
  // combined --trace-json/--metrics-json run reports it in both artifacts.
  if (lost > 0 && MetricsRegistry::Enabled()) {
    MetricsRegistry::Global().GetCounter("trace.dropped")->Increment(lost);
  }
}

uint64_t TraceRecorder::NowNs() const {
  const int64_t delta =
      SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
  return delta > 0 ? static_cast<uint64_t>(delta) : 0;
}

TraceRecorder::ThreadRing* TraceRecorder::RingForThisThread() {
  struct Cached {
    const TraceRecorder* owner = nullptr;
    uint64_t generation = 0;
    ThreadRing* ring = nullptr;
  };
  static thread_local Cached cached;
  const uint64_t generation = generation_.load(std::memory_order_relaxed);
  if (cached.owner == this && cached.generation == generation) {
    return cached.ring;
  }
  std::lock_guard<std::mutex> lock(mutex_);
  if (!started_.load(std::memory_order_relaxed)) return nullptr;
  auto ring = std::make_unique<ThreadRing>();
  ring->tid = static_cast<uint32_t>(rings_.size() + 1);
  ring->events.resize(capacity_);
  ThreadRing* raw = ring.get();
  rings_.push_back(std::move(ring));
  cached = {this, generation_.load(std::memory_order_relaxed), raw};
  return raw;
}

void TraceRecorder::RecordComplete(const char* name, uint64_t ts_ns,
                                   uint64_t dur_ns) {
  if (!started_.load(std::memory_order_acquire)) return;
  ThreadRing* ring = RingForThisThread();
  if (ring == nullptr) return;
  const uint64_t index = ring->next.load(std::memory_order_relaxed);
  Event& event = ring->events[index % ring->events.size()];
  CopyName(name, event.name);
  event.phase = 'X';
  event.has_arg = false;
  event.arg = 0.0;
  event.ts_ns = ts_ns;
  event.dur_ns = dur_ns;
  ring->next.store(index + 1, std::memory_order_release);
}

void TraceRecorder::RecordInstant(const char* name, bool has_value,
                                  double value) {
  if (!started_.load(std::memory_order_acquire)) return;
  ThreadRing* ring = RingForThisThread();
  if (ring == nullptr) return;
  const uint64_t index = ring->next.load(std::memory_order_relaxed);
  Event& event = ring->events[index % ring->events.size()];
  CopyName(name, event.name);
  event.phase = 'i';
  event.has_arg = has_value;
  event.arg = value;
  event.ts_ns = NowNs();
  event.dur_ns = 0;
  ring->next.store(index + 1, std::memory_order_release);
}

uint64_t TraceRecorder::dropped() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t lost = 0;
  for (const auto& ring : rings_) {
    const uint64_t written = ring->next.load(std::memory_order_acquire);
    if (written > ring->events.size()) lost += written - ring->events.size();
  }
  return lost;
}

uint64_t TraceRecorder::recorded() const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t kept = 0;
  for (const auto& ring : rings_) {
    kept += std::min<uint64_t>(ring->next.load(std::memory_order_acquire),
                               ring->events.size());
  }
  return kept;
}

std::vector<std::pair<uint32_t, TraceRecorder::Event>> TraceRecorder::Snapshot()
    const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::pair<uint32_t, Event>> out;
  for (const auto& ring : rings_) {
    const uint64_t written = ring->next.load(std::memory_order_acquire);
    const uint64_t capacity = ring->events.size();
    const uint64_t first = written > capacity ? written - capacity : 0;
    for (uint64_t i = first; i < written; ++i) {
      out.emplace_back(ring->tid, ring->events[i % capacity]);
    }
  }
  return out;
}

void TraceRecorder::WriteChromeJson(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mutex_);
  uint64_t lost = 0;
  for (const auto& ring : rings_) {
    const uint64_t written = ring->next.load(std::memory_order_acquire);
    if (written > ring->events.size()) lost += written - ring->events.size();
  }

  os << "{\n  \"schema\": \"tabsketch-trace-v1\",\n"
     << "  \"displayTimeUnit\": \"ms\",\n"
     << "  \"dropped\": " << lost << ",\n"
     << "  \"traceEvents\": [";
  bool first = true;
  const auto separator = [&os, &first]() {
    os << (first ? "\n    " : ",\n    ");
    first = false;
  };

  separator();
  os << "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
        "\"args\": {\"name\": \"tabsketch\"}}";
  for (const auto& ring : rings_) {
    separator();
    os << "{\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": "
       << ring->tid << ", \"args\": {\"name\": \"worker-" << ring->tid
       << "\"}}";
  }

  for (const auto& ring : rings_) {
    const uint64_t written = ring->next.load(std::memory_order_acquire);
    const uint64_t capacity = ring->events.size();
    const uint64_t begin = written > capacity ? written - capacity : 0;
    for (uint64_t i = begin; i < written; ++i) {
      const Event& event = ring->events[i % capacity];
      separator();
      os << "{\"name\": ";
      WriteJsonString(os, event.name);
      os << ", \"cat\": \"tabsketch\", \"ph\": \"" << event.phase
         << "\", \"pid\": 1, \"tid\": " << ring->tid << ", \"ts\": ";
      WriteMicros(os, event.ts_ns);
      if (event.phase == 'X') {
        os << ", \"dur\": ";
        WriteMicros(os, event.dur_ns);
      } else {
        os << ", \"s\": \"t\"";  // thread-scoped instant
      }
      if (event.has_arg) {
        os << ", \"args\": {\"value\": ";
        WriteJsonNumber(os, event.arg);
        os << "}";
      }
      os << "}";
    }
  }
  os << (first ? "]\n" : "\n  ]\n") << "}\n";
}

Status TraceRecorder::WriteChromeJsonFile(const std::string& path) const {
  return WriteFileAtomic(path, [this](std::ostream& os) {
    WriteChromeJson(os);
  });
}

}  // namespace tabsketch::util
