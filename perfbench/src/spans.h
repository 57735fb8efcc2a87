#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// The benchmark's own span log for the traced run: one span per call the
/// benchmark makes into a library module, with the enclosing span as parent.
/// Spans live in memory and are written once, as Chrome trace-event JSON,
/// when the run ends. Disabled recorders cost one branch per span.
class SpanLog {
 public:
  struct Span {
    std::string name;
    int64_t parent = -1;
    uint64_t start_ns = 0;
    uint64_t end_ns = 0;
    uint32_t tid = 0;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  bool enabled() const { return enabled_; }

  /// Opens a span and returns its id (-1 when disabled).
  int64_t Begin(const std::string& name, int64_t parent);
  void End(int64_t id);

  /// Summed duration of every span called `name`, in seconds.
  double TotalSeconds(const std::string& name) const;
  /// The share of the summed duration of every span called `name` that
  /// its child spans cover: the part of a stage's wall time the layers
  /// under it account for (the stage's self time is the rest).
  double AttributedFraction(const std::string& name) const;

  void WriteChromeJson(const std::string& path) const;

 private:
  uint64_t NowNs() const;
  /// Self time of span `index`: its duration minus the part of its
  /// interval covered by its direct children. Caller holds mutex_.
  double SelfSecondsLocked(size_t index) const;

  const bool enabled_;
  const std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mutex_;
  std::vector<Span> spans_;  // guarded by mutex_
};

/// RAII span on a SpanLog; children pass id() as their parent.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, const std::string& name, int64_t parent = -1)
      : log_(log), id_(log->Begin(name, parent)) {}
  ~ScopedSpan() { log_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int64_t id() const { return id_; }

 private:
  SpanLog* log_;
  int64_t id_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
