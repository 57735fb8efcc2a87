#ifndef TABSKETCH_UTIL_METRICS_SNAPSHOT_H_
#define TABSKETCH_UTIL_METRICS_SNAPSHOT_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <thread>

#include "util/metrics.h"

namespace tabsketch::util {

/// Point-in-time copy of one histogram: the raw log2 buckets plus the
/// count/sum/min/max scalars. Values are read with relaxed loads, so the
/// copy is "consistent enough" for reporting (a concurrent Observe() may be
/// half-visible) but never torn within a field.
struct HistogramSnapshot {
  std::array<uint64_t, Histogram::kBuckets> buckets{};
  uint64_t count = 0;
  double sum = 0.0;
  double min = 0.0;
  double max = 0.0;
  /// True when min/max were captured from a live histogram (count > 0 at
  /// capture time); false for diffed interval histograms, whose extremes are
  /// unknowable from buckets alone.
  bool has_extremes = false;

  /// Approximate q-quantile (q in [0, 1]) over the snapshot's buckets,
  /// resolved to the containing bucket's upper edge (factor-2 resolution),
  /// clamped to [min, max] when extremes were captured so a single-sample
  /// histogram reports the sample itself. 0 when empty.
  double Percentile(double q) const;

  /// Total observations according to the buckets themselves. Preferred over
  /// `count` for cumulative-bucket math (Prometheus `_bucket` lines): the
  /// count scalar and the bucket array are captured at slightly different
  /// instants under concurrent mutation.
  uint64_t BucketTotal() const;
};

/// Captures one live histogram (min/max kept when it is non-empty).
HistogramSnapshot CaptureHistogram(const Histogram& histogram);

/// A cheap consistent read of a whole MetricsRegistry: every counter, gauge
/// and histogram by name, stamped with a monotonic capture time. Snapshots
/// of the same registry can be diffed for windowed rates (Diff below) and
/// rendered as metrics-v1 JSON (WriteMetricsJson) or as a Prometheus
/// exposition (WritePrometheusText).
struct MetricsSnapshot {
  /// Monotonic capture time (steady-clock seconds; comparable only to other
  /// wall_seconds values in this process).
  double wall_seconds = 0.0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, double> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// Value lookups that treat missing names as empty metrics, so callers
  /// can read documented keys without carrying registration state around.
  uint64_t counter(const std::string& name) const;
  double gauge(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
};

/// Captures a snapshot of `registry`; the registry's only read path. Safe
/// to call from any thread at any time: the registry mutex is held only to
/// walk the name maps; metric values are relaxed-atomic reads that never
/// block mutators.
MetricsSnapshot CaptureSnapshot(const MetricsRegistry& registry);

/// The window between two snapshots of the same registry: counter deltas
/// and interval histograms (bucket-wise subtraction), from which windowed
/// rates and interval percentiles fall out. `prev` must be the older
/// snapshot; concurrent-mutation skew that would make a monotonic counter
/// appear to decrease is clamped to 0.
struct MetricsDelta {
  double seconds = 0.0;
  std::map<std::string, uint64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  uint64_t counter(const std::string& name) const;
  const HistogramSnapshot* histogram(const std::string& name) const;
  /// counter(name) / seconds; 0 when the window is empty or instantaneous.
  double Rate(const std::string& name) const;
};

MetricsDelta Diff(const MetricsSnapshot& prev, const MetricsSnapshot& cur);

/// Renders `snapshot` as the stable "tabsketch-metrics-v1" JSON document
/// described in docs/FORMATS.md: three sections (counters, gauges,
/// histograms), keys sorted lexicographically within each, every histogram
/// summarized as count/sum/min/max/p50/p90/p99.
void WriteMetricsJson(const MetricsSnapshot& snapshot, std::ostream& os);

/// Renders `snapshot` in the Prometheus text exposition format v0.0.4:
/// every name is prefixed `tabsketch_` and sanitized ([^a-zA-Z0-9_] -> '_'),
/// counters and gauges are one sample each, histograms expand to cumulative
/// `_bucket{le="..."}` samples on the log2 bucket edges (empty buckets are
/// skipped; `+Inf` always present) plus `_sum` and `_count`. A final
/// `# EOF` comment line marks the end so line-protocol clients know the
/// multi-line response is complete (see docs/FORMATS.md).
void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& os);

/// The `le` label text used for bucket `i` in the exposition (also the
/// boundary table documented in docs/FORMATS.md).
std::string PrometheusBucketEdge(size_t i);

/// Background rolling-snapshot thread for the serve daemon: every
/// `interval_seconds` it captures the registry, keeping the newest capture
/// and the one before it, and, when `metrics_json_path` is set, atomically
/// rewrites that file (temp + rename) so a crash or SIGKILL never loses more
/// than one interval of metrics. One snapshot is taken synchronously at
/// construction, so a baseline for "since the last window" rates always
/// exists.
class MetricsTicker {
 public:
  struct Options {
    double interval_seconds = 1.0;
    /// When non-empty, rewritten atomically on every tick.
    std::string metrics_json_path;
    /// Defaults to MetricsRegistry::Global() when null.
    MetricsRegistry* registry = nullptr;
  };

  explicit MetricsTicker(const Options& options);
  ~MetricsTicker();
  MetricsTicker(const MetricsTicker&) = delete;
  MetricsTicker& operator=(const MetricsTicker&) = delete;

  /// Stops the thread (idempotent; also run by the destructor). No final
  /// tick: the file keeps the last interval's capture, and the exit-time
  /// file is util::FlushObservability's one write.
  void Stop();

  /// Ticks completed so far (including the constructor's baseline tick).
  uint64_t ticks() const { return ticks_.load(std::memory_order_relaxed); }

  /// The baseline to diff a fresh capture against for "last window" rates:
  /// the newest capture when it is at least half an interval older than
  /// `now_wall_seconds` (so the window is never degenerately short), else
  /// the one before it. Ticks are at least one interval apart, so no older
  /// capture could ever qualify.
  MetricsSnapshot WindowBaseline(double now_wall_seconds) const;

 private:
  void Run();
  void TickOnce();

  const Options options_;
  MetricsRegistry* const registry_;
  mutable std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  /// The newest capture, and from the second tick on the one before it;
  /// guarded by mutex_.
  MetricsSnapshot latest_;
  std::optional<MetricsSnapshot> previous_;
  std::atomic<uint64_t> ticks_{0};
  std::thread thread_;
};

}  // namespace tabsketch::util

#endif  // TABSKETCH_UTIL_METRICS_SNAPSHOT_H_
