#include "util/metrics_snapshot.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "util/atomic_file.h"

namespace tabsketch::util {
namespace {

double MonotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// `tabsketch_` + name with every non-[a-zA-Z0-9_] byte replaced by '_'
/// (Prometheus metric-name charset; our dotted names become underscored).
std::string PrometheusName(const std::string& name) {
  std::string out = "tabsketch_";
  out.reserve(out.size() + name.size());
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_';
    out.push_back(ok ? c : '_');
  }
  return out;
}

}  // namespace

uint64_t HistogramSnapshot::BucketTotal() const {
  uint64_t total = 0;
  for (const uint64_t b : buckets) total += b;
  return total;
}

double HistogramSnapshot::Percentile(double q) const {
  const uint64_t total = BucketTotal();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank =
      std::min<uint64_t>(total, static_cast<uint64_t>(std::ceil(q * total)));
  uint64_t cumulative = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    cumulative += buckets[i];
    if (cumulative >= rank && cumulative > 0) {
      const double edge = Histogram::BucketUpperEdge(i);
      return has_extremes ? std::clamp(edge, min, max) : edge;
    }
  }
  return has_extremes ? max : Histogram::BucketUpperEdge(Histogram::kBuckets - 1);
}

uint64_t MetricsSnapshot::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

double MetricsSnapshot::gauge(const std::string& name) const {
  const auto it = gauges.find(name);
  return it == gauges.end() ? 0.0 : it->second;
}

const HistogramSnapshot* MetricsSnapshot::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

HistogramSnapshot CaptureHistogram(const Histogram& histogram) {
  HistogramSnapshot h;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    h.buckets[i] = histogram.bucket_count(i);
  }
  h.count = histogram.count();
  h.sum = histogram.sum();
  h.min = histogram.min();
  h.max = histogram.max();
  h.has_extremes = h.count > 0;
  return h;
}

MetricsSnapshot CaptureSnapshot(const MetricsRegistry& registry) {
  MetricsSnapshot snapshot;
  snapshot.wall_seconds = MonotonicSeconds();
  std::lock_guard<std::mutex> lock(registry.mutex_);
  for (const auto& [name, counter] : registry.counters_) {
    snapshot.counters.emplace(name, counter->value());
  }
  for (const auto& [name, gauge] : registry.gauges_) {
    snapshot.gauges.emplace(name, gauge->value());
  }
  for (const auto& [name, histogram] : registry.histograms_) {
    snapshot.histograms.emplace(name, CaptureHistogram(*histogram));
  }
  return snapshot;
}

uint64_t MetricsDelta::counter(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0 : it->second;
}

const HistogramSnapshot* MetricsDelta::histogram(
    const std::string& name) const {
  const auto it = histograms.find(name);
  return it == histograms.end() ? nullptr : &it->second;
}

double MetricsDelta::Rate(const std::string& name) const {
  if (!(seconds > 0.0)) return 0.0;
  return static_cast<double>(counter(name)) / seconds;
}

MetricsDelta Diff(const MetricsSnapshot& prev, const MetricsSnapshot& cur) {
  MetricsDelta delta;
  delta.seconds = cur.wall_seconds - prev.wall_seconds;
  for (const auto& [name, value] : cur.counters) {
    const uint64_t before = prev.counter(name);
    delta.counters.emplace(name, value >= before ? value - before : 0);
  }
  for (const auto& [name, histogram] : cur.histograms) {
    HistogramSnapshot interval;
    const HistogramSnapshot* before = prev.histogram(name);
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      const uint64_t b = before == nullptr ? 0 : before->buckets[i];
      interval.buckets[i] =
          histogram.buckets[i] >= b ? histogram.buckets[i] - b : 0;
    }
    const uint64_t count_before = before == nullptr ? 0 : before->count;
    interval.count =
        histogram.count >= count_before ? histogram.count - count_before : 0;
    const double sum_before = before == nullptr ? 0.0 : before->sum;
    interval.sum = histogram.sum - sum_before;
    interval.has_extremes = false;  // interval extremes are unknowable
    delta.histograms.emplace(name, interval);
  }
  return delta;
}

void WriteMetricsJson(const MetricsSnapshot& snapshot, std::ostream& os) {
  os << "{\n  \"schema\": \"tabsketch-metrics-v1\",\n";

  os << "  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : snapshot.counters) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(os, name);
    os << ": " << value;
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : snapshot.gauges) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(os, name);
    os << ": ";
    WriteJsonNumber(os, value);
  }
  os << (first ? "},\n" : "\n  },\n");

  os << "  \"histograms\": {";
  first = true;
  for (const auto& [name, histogram] : snapshot.histograms) {
    os << (first ? "\n    " : ",\n    ");
    first = false;
    WriteJsonString(os, name);
    os << ": {\"count\": " << histogram.count << ", \"sum\": ";
    WriteJsonNumber(os, histogram.sum);
    os << ", \"min\": ";
    WriteJsonNumber(os, histogram.min);
    os << ", \"max\": ";
    WriteJsonNumber(os, histogram.max);
    os << ", \"p50\": ";
    WriteJsonNumber(os, histogram.Percentile(0.5));
    os << ", \"p90\": ";
    WriteJsonNumber(os, histogram.Percentile(0.9));
    os << ", \"p99\": ";
    WriteJsonNumber(os, histogram.Percentile(0.99));
    os << "}";
  }
  os << (first ? "}\n" : "\n  }\n");
  os << "}\n";
}

std::string PrometheusBucketEdge(size_t i) {
  // %.9g: the edges are 1e-9 * 2^i, a factor of 2 apart, so 9 significant
  // digits are collision-free and stable across scrapes.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.9g", Histogram::BucketUpperEdge(i));
  return buf;
}

void WritePrometheusText(const MetricsSnapshot& snapshot, std::ostream& os) {
  for (const auto& [name, value] : snapshot.counters) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " counter\n" << prom << " " << value << "\n";
  }
  for (const auto& [name, value] : snapshot.gauges) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " gauge\n" << prom << " ";
    WriteJsonNumber(os, value);
    os << "\n";
  }
  for (const auto& [name, histogram] : snapshot.histograms) {
    const std::string prom = PrometheusName(name);
    os << "# TYPE " << prom << " histogram\n";
    // Cumulative counts on the log2 edges. Bucket i holds observations in
    // (edge(i-1), edge(i)], which is exactly `le` semantics; empty buckets
    // are skipped (the cumulative value is unchanged there), +Inf always
    // closes the series. BucketTotal() backs both +Inf and _count so the
    // exposition is internally consistent even under concurrent Observe().
    const uint64_t total = histogram.BucketTotal();
    uint64_t cumulative = 0;
    for (size_t i = 0; i < Histogram::kBuckets; ++i) {
      if (histogram.buckets[i] == 0) continue;
      cumulative += histogram.buckets[i];
      os << prom << "_bucket{le=\"" << PrometheusBucketEdge(i) << "\"} "
         << cumulative << "\n";
    }
    os << prom << "_bucket{le=\"+Inf\"} " << total << "\n";
    os << prom << "_sum ";
    WriteJsonNumber(os, histogram.sum);
    os << "\n" << prom << "_count " << total << "\n";
  }
  os << "# EOF\n";
}

MetricsTicker::MetricsTicker(const Options& options)
    : options_(options),
      registry_(options.registry != nullptr ? options.registry
                                            : &MetricsRegistry::Global()) {
  TickOnce();  // baseline, so WindowBaseline() always has something to offer
  thread_ = std::thread(&MetricsTicker::Run, this);
}

MetricsTicker::~MetricsTicker() { Stop(); }

void MetricsTicker::Stop() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (stop_) return;
    stop_ = true;
  }
  wake_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void MetricsTicker::Run() {
  const auto interval = std::chrono::duration<double>(
      options_.interval_seconds > 0.0 ? options_.interval_seconds : 1.0);
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stop_) {
    if (wake_.wait_for(lock, interval, [this] { return stop_; })) break;
    lock.unlock();
    TickOnce();
    lock.lock();
  }
}

void MetricsTicker::TickOnce() {
  // Counted before the capture, so the kept capture and the file it renders
  // both include the tick that took them.
  registry_->GetCounter("serve.ticker.ticks")->Increment();
  MetricsSnapshot snapshot = CaptureSnapshot(*registry_);
  if (!options_.metrics_json_path.empty()) {
    // Best-effort: a transient IO failure (disk full) must not take the
    // ticker down; the next interval retries.
    const Status status = WriteFileAtomic(
        options_.metrics_json_path,
        [&](std::ostream& os) { WriteMetricsJson(snapshot, os); });
    (void)status;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    // Ticks never overlap, so after the first one latest_ holds a capture.
    if (ticks_.load(std::memory_order_relaxed) > 0) {
      previous_ = std::move(latest_);
    }
    latest_ = std::move(snapshot);
  }
  ticks_.fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricsTicker::WindowBaseline(double now_wall_seconds) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const double min_age = options_.interval_seconds * 0.5;
  if (now_wall_seconds - latest_.wall_seconds >= min_age ||
      !previous_.has_value()) {
    return latest_;
  }
  return *previous_;
}

}  // namespace tabsketch::util
