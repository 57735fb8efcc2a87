#ifndef TABSKETCH_UTIL_METRICS_H_
#define TABSKETCH_UTIL_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>

#include "util/status.h"

namespace tabsketch::util {

struct MetricsSnapshot;

/// Monotonically increasing event count. All operations are relaxed atomics:
/// counters are tallies, not synchronization points, so concurrent
/// Increment() calls from the parallel k-means assignment loop never race and
/// never order other memory.
class Counter {
 public:
  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins scalar (iteration counts, sizes, 0/1 switches).
class Gauge {
 public:
  void Set(double value) { value_.store(value, std::memory_order_relaxed); }
  void Add(double delta);
  /// Raises the gauge to `value` if it is larger than the current value
  /// (running-maximum semantics, e.g. worst observed audit error).
  void Max(double value);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Thread-safe log-bucketed histogram for positive values (durations in
/// seconds, mostly). Exact count/sum/min/max; percentiles are approximate,
/// resolved to the upper edge of the containing power-of-two bucket (factor-2
/// resolution, which is plenty for "where did the time go").
///
/// Buckets: bucket 0 holds values < kBucketBase (1 ns); bucket i holds
/// [kBucketBase * 2^(i-1), kBucketBase * 2^i); the last bucket holds the
/// overflow. Every member is a relaxed atomic, so concurrent Observe() calls
/// are race-free and reads give a consistent-enough snapshot for reporting.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;
  static constexpr double kBucketBase = 1e-9;

  void Observe(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// 0 when empty.
  double min() const;
  double max() const;

  /// Observations in bucket `i` (i < kBuckets). Percentiles are computed on
  /// a capture (HistogramSnapshot, util/metrics_snapshot.h), which reads the
  /// buckets here.
  uint64_t bucket_count(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Inclusive upper edge of bucket `i`: kBucketBase * 2^i for i >= 1,
  /// kBucketBase for bucket 0. Bucket i holds (BucketUpperEdge(i-1),
  /// BucketUpperEdge(i)], which is exactly Prometheus `le` semantics.
  static double BucketUpperEdge(size_t i);

  void Reset();

 private:
  static size_t BucketFor(double value);

  std::array<std::atomic<uint64_t>, kBuckets> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  // valid only when count_ > 0
  std::atomic<double> max_{0.0};
};

/// Named registry of counters, gauges and histograms. One process-wide
/// singleton (Global()) backs the TABSKETCH_METRIC_* macros and the CLI's
/// --metrics-json dump; independent instances can be constructed for tests.
///
/// Metric objects are created on first lookup and never destroyed or moved
/// for the registry's lifetime, so call sites may cache the returned pointers
/// (the macros do, in a function-local static) and increment them lock-free.
/// ResetValues() zeroes every metric in place without invalidating pointers.
///
/// The runtime enable flag gates the hot paths: when disabled (the default),
/// every macro reduces to one relaxed atomic load and instrumented code is
/// numerically bit-identical to uninstrumented code (instrumentation only
/// ever reads clocks and bumps tallies — it never touches data values).
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry used by the macros and the CLI.
  static MetricsRegistry& Global();

  /// Bits of the combined observability gate. Metrics (counter/gauge/
  /// histogram macros) and the trace recorder are toggled independently, but
  /// both live in a single atomic word so an instrumented call site that
  /// feeds both (ScopedSpan) still pays exactly one relaxed load when
  /// everything is off.
  static constexpr uint32_t kMetricsBit = 1u << 0;
  static constexpr uint32_t kTraceBit = 1u << 1;

  /// The raw gate word; 0 means "all observability off".
  static uint32_t ObservabilityBits() {
    return bits_.load(std::memory_order_relaxed);
  }

  /// Runtime on/off switch for the global registry's hot-path macros.
  static bool Enabled() { return (ObservabilityBits() & kMetricsBit) != 0; }
  static void SetEnabled(bool enabled) { SetBit(kMetricsBit, enabled); }

  /// Runtime switch for event emission into TraceRecorder::Global().
  /// Flipped by TraceRecorder::Start()/Stop(); call sites should not toggle
  /// it directly.
  static bool TraceActive() { return (ObservabilityBits() & kTraceBit) != 0; }
  static void SetTraceActive(bool active) { SetBit(kTraceBit, active); }

  /// Finds or creates the named metric. The returned pointer stays valid for
  /// the registry's lifetime.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Zeroes every registered metric; registered names (and cached pointers)
  /// survive.
  void ResetValues();

 private:
  /// The registry's only reader (util/metrics_snapshot.h): it walks the
  /// maps under the mutex and copies each value with relaxed loads.
  friend MetricsSnapshot CaptureSnapshot(const MetricsRegistry& registry);

  static void SetBit(uint32_t bit, bool on) {
    if (on) {
      bits_.fetch_or(bit, std::memory_order_relaxed);
    } else {
      bits_.fetch_and(~bit, std::memory_order_relaxed);
    }
  }

  mutable std::mutex mutex_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;

  static std::atomic<uint32_t> bits_;
};

/// Registers every metric name documented in docs/FORMATS.md (values zero),
/// so a dump always carries the full documented key set even when a run
/// never touched some subsystem (e.g. `cluster` runs that never build a
/// pool still report span.pool.build.seconds with count 0).
void PreregisterCoreMetrics(MetricsRegistry* registry);

/// Captures `registry` and writes the capture to `path` as the
/// "tabsketch-metrics-v1" document (WriteMetricsJson in
/// util/metrics_snapshot.h), atomically (temp + rename).
Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path);

/// The number and string writers every observability document shares.
/// A number is written as %.17g (round-trips binary64) and a non-finite
/// value as 0. A string is quoted, with `"` and `\` backslash-escaped, \n
/// and \t as their short escapes and other control bytes as \u00XX.
void WriteJsonNumber(std::ostream& os, double value);
void WriteJsonString(std::ostream& os, std::string_view text);

// The bench-binary setup/flush helpers (--metrics-json plus the PR 4
// --trace-json / --audit-rate flags) live in util/observability.h.

}  // namespace tabsketch::util

/// Hot-path instrumentation macros. Cost when the registry is disabled: one
/// relaxed atomic load. `name` must be a string constant (it seeds a
/// function-local static pointer cache).
#define TABSKETCH_METRIC_COUNT_N(name, n)                                 \
  do {                                                                    \
    if (::tabsketch::util::MetricsRegistry::Enabled()) {                  \
      static ::tabsketch::util::Counter* const _tabsketch_counter =       \
          ::tabsketch::util::MetricsRegistry::Global().GetCounter(name);  \
      _tabsketch_counter->Increment(                                      \
          static_cast<uint64_t>(n));                                      \
    }                                                                     \
  } while (false)

#define TABSKETCH_METRIC_GAUGE_SET(name, value)                           \
  do {                                                                    \
    if (::tabsketch::util::MetricsRegistry::Enabled()) {                  \
      static ::tabsketch::util::Gauge* const _tabsketch_gauge =           \
          ::tabsketch::util::MetricsRegistry::Global().GetGauge(name);    \
      _tabsketch_gauge->Set(static_cast<double>(value));                  \
    }                                                                     \
  } while (false)

#define TABSKETCH_METRIC_OBSERVE(name, value)                              \
  do {                                                                     \
    if (::tabsketch::util::MetricsRegistry::Enabled()) {                   \
      static ::tabsketch::util::Histogram* const _tabsketch_histogram =    \
          ::tabsketch::util::MetricsRegistry::Global().GetHistogram(name); \
      _tabsketch_histogram->Observe(static_cast<double>(value));           \
    }                                                                      \
  } while (false)

#define TABSKETCH_METRIC_GAUGE_ADD(name, delta)                            \
  do {                                                                     \
    if (::tabsketch::util::MetricsRegistry::Enabled()) {                   \
      static ::tabsketch::util::Gauge* const _tabsketch_gauge =            \
          ::tabsketch::util::MetricsRegistry::Global().GetGauge(name);     \
      _tabsketch_gauge->Add(static_cast<double>(delta));                   \
    }                                                                      \
  } while (false)

#define TABSKETCH_METRIC_COUNT(name) TABSKETCH_METRIC_COUNT_N(name, 1)

#endif  // TABSKETCH_UTIL_METRICS_H_
