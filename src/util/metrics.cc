#include "util/metrics.h"

#include <cmath>
#include <cstdio>

#include "util/atomic_file.h"
#include "util/metrics_snapshot.h"

namespace tabsketch::util {

std::atomic<uint32_t> MetricsRegistry::bits_{0};

void Gauge::Add(double delta) {
  double current = value_.load(std::memory_order_relaxed);
  while (!value_.compare_exchange_weak(current, current + delta,
                                       std::memory_order_relaxed)) {
  }
}

void Gauge::Max(double value) {
  double seen = value_.load(std::memory_order_relaxed);
  while (value > seen && !value_.compare_exchange_weak(
                             seen, value, std::memory_order_relaxed)) {
  }
}

size_t Histogram::BucketFor(double value) {
  if (!(value >= kBucketBase)) return 0;  // also catches NaN
  const int exponent =
      static_cast<int>(std::ceil(std::log2(value / kBucketBase)));
  if (exponent < 1) return 1;
  if (exponent >= static_cast<int>(kBuckets)) return kBuckets - 1;
  return static_cast<size_t>(exponent);
}

void Histogram::Observe(double value) {
  if (std::isnan(value)) return;
  buckets_[BucketFor(value)].fetch_add(1, std::memory_order_relaxed);

  // sum/min/max via CAS loops: atomic<double> has no fetch_add pre-C++20 on
  // all targets, and min/max need it regardless.
  double sum = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(sum, sum + value,
                                     std::memory_order_relaxed)) {
  }
  // First observation initializes min/max; count_ going 0->1 publishes them
  // only for reporting purposes, which tolerates a transient where another
  // thread reads count()==1 before min/max settle.
  if (count_.fetch_add(1, std::memory_order_relaxed) == 0) {
    min_.store(value, std::memory_order_relaxed);
    max_.store(value, std::memory_order_relaxed);
  } else {
    double seen = min_.load(std::memory_order_relaxed);
    while (value < seen && !min_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
    seen = max_.load(std::memory_order_relaxed);
    while (value > seen && !max_.compare_exchange_weak(
                               seen, value, std::memory_order_relaxed)) {
    }
  }
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
}

double Histogram::BucketUpperEdge(size_t i) {
  return i == 0 ? kBucketBase
                : kBucketBase * std::ldexp(1.0, static_cast<int>(i));
}

void Histogram::Reset() {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();  // leaked:
  // outlives every static-destruction-order hazard from cached pointers.
  return *registry;
}

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return slot.get();
}

void MetricsRegistry::ResetValues() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

void WriteJsonString(std::ostream& os, std::string_view text) {
  os << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        os << "\\\"";
        break;
      case '\\':
        os << "\\\\";
        break;
      case '\n':
        os << "\\n";
        break;
      case '\t':
        os << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          os << buf;
        } else {
          os << c;
        }
    }
  }
  os << '"';
}

void WriteJsonNumber(std::ostream& os, double value) {
  if (!std::isfinite(value)) {
    os << "0";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  os << buf;
}

void PreregisterCoreMetrics(MetricsRegistry* registry) {
  static const char* const kCounters[] = {
      "fft.plan.constructions",
      "fft.correlate.calls",
      "fft.correlate_pair.calls",
      "sketcher.sketch_of.calls",
      "estimator.estimate.calls",
      "lru.cache.hits",
      "lru.cache.misses",
      "lru.cache.evictions",
      "query.requests.distance",
      "query.requests.knn",
      "serve.connections.accepted",
      "serve.requests.distance",
      "serve.requests.knn",
      "serve.requests.reload",
      "serve.requests.append",
      "serve.requests.retire",
      "serve.requests.errors",
      "serve.requests.shed",
      "serve.requests.deadline_expired",
      "serve.requests.stats",
      "serve.requests.slow",
      "serve.snapshot.swaps",
      "serve.ticker.ticks",
      "cluster.distance_evals.exact",
      "cluster.distance_evals.sketch",
      "quant.scan.tiles",
      "quant.scan.bytes",
      "quant.candidates.kept",
      "ingest.appends",
      "ingest.retires",
      "ingest.errors",
      "ingest.columns.appended",
      "ingest.tiles.sketched",
      "ingest.tiles.reused",
      "ingest.codes.rebuilt",
      "trace.dropped",
      "audit.samples",
      "audit.violations",
  };
  static const char* const kGauges[] = {
      "pool.build.canonical_sizes",
      "cluster.kmeans.iterations",
      "cluster.kmeans.converged",
      "lru.cache.capacity_bytes",
      "lru.cache.peak_bytes",
      "quant.pool.bytes",
      "serve.queue.depth",
      "serve.connections.active",
      "serve.inflight.distance",
      "serve.inflight.knn",
      "ingest.window.tile_cols",
      "ingest.window.start_col",
      "ingest.window.pending_cols",
  };
  static const char* const kHistograms[] = {
      "span.fft.plan.seconds",
      "span.fft.correlate.seconds",
      "span.pool.build.seconds",
      "span.sketcher.all_positions.seconds",
      "span.sketcher.sketch_tiles.seconds",
      "span.cluster.assign.seconds",
      "span.cluster.update.seconds",
      "span.cluster.exact_update.seconds",
      "span.lru.cache.compute.seconds",
      "span.query.batch.seconds",
      "span.quant.scan.seconds",
      "serve.request.latency.seconds",
      "serve.request.queue_wait.seconds",
      "ingest.append.latency.seconds",
  };
  for (const char* name : kCounters) registry->GetCounter(name);
  for (const char* name : kGauges) registry->GetGauge(name);
  for (const char* name : kHistograms) registry->GetHistogram(name);
}

Status WriteMetricsJsonFile(const MetricsRegistry& registry,
                            const std::string& path) {
  const MetricsSnapshot snapshot = CaptureSnapshot(registry);
  return WriteFileAtomic(
      path, [&](std::ostream& os) { WriteMetricsJson(snapshot, os); });
}

}  // namespace tabsketch::util
