#include "util/metrics_snapshot.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_checker.h"
#include "util/metrics.h"

namespace tabsketch::util {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MetricsSnapshotTest, CapturesEveryFamilyAndDefaultsMissingNames) {
  MetricsRegistry registry;
  registry.GetCounter("a.count")->Increment(7);
  registry.GetGauge("a.gauge")->Set(2.5);
  registry.GetHistogram("a.hist")->Observe(1e-3);

  const MetricsSnapshot snapshot = CaptureSnapshot(registry);
  EXPECT_GT(snapshot.wall_seconds, 0.0);
  EXPECT_EQ(snapshot.counter("a.count"), 7u);
  EXPECT_EQ(snapshot.gauge("a.gauge"), 2.5);
  ASSERT_NE(snapshot.histogram("a.hist"), nullptr);
  EXPECT_EQ(snapshot.histogram("a.hist")->count, 1u);
  EXPECT_TRUE(snapshot.histogram("a.hist")->has_extremes);

  // Missing names read as empty metrics, not errors.
  EXPECT_EQ(snapshot.counter("no.such"), 0u);
  EXPECT_EQ(snapshot.gauge("no.such"), 0.0);
  EXPECT_EQ(snapshot.histogram("no.such"), nullptr);
}

TEST(MetricsSnapshotTest, DiffYieldsWindowedCountersAndRates) {
  MetricsRegistry registry;
  Counter* requests = registry.GetCounter("serve.requests.distance");
  requests->Increment(10);
  MetricsSnapshot prev = CaptureSnapshot(registry);
  prev.wall_seconds = 100.0;  // pin the window for exact rate arithmetic
  requests->Increment(30);
  MetricsSnapshot cur = CaptureSnapshot(registry);
  cur.wall_seconds = 102.0;

  const MetricsDelta delta = Diff(prev, cur);
  EXPECT_EQ(delta.seconds, 2.0);
  EXPECT_EQ(delta.counter("serve.requests.distance"), 30u);
  EXPECT_EQ(delta.Rate("serve.requests.distance"), 15.0);
  EXPECT_EQ(delta.Rate("no.such"), 0.0);
}

TEST(MetricsSnapshotTest, DiffClampsApparentCounterDecreaseToZero) {
  // Relaxed-atomic capture skew can make a monotonic counter look like it
  // went backwards between two snapshots; the delta must clamp, not wrap.
  MetricsSnapshot prev;
  prev.wall_seconds = 0.0;
  prev.counters["skewed"] = 10;
  MetricsSnapshot cur;
  cur.wall_seconds = 1.0;
  cur.counters["skewed"] = 4;
  EXPECT_EQ(Diff(prev, cur).counter("skewed"), 0u);
}

TEST(MetricsSnapshotTest, IntervalHistogramPercentilesSeeOnlyTheWindow) {
  MetricsRegistry registry;
  Histogram* latency = registry.GetHistogram("serve.request.latency.seconds");
  for (int i = 0; i < 100; ++i) latency->Observe(1e-3);
  const MetricsSnapshot prev = CaptureSnapshot(registry);
  for (int i = 0; i < 100; ++i) latency->Observe(16e-3);
  const MetricsSnapshot cur = CaptureSnapshot(registry);

  // Cumulative p50 (200 observations) still sits in the 1 ms bucket...
  const HistogramSnapshot* total = cur.histogram("serve.request.latency.seconds");
  ASSERT_NE(total, nullptr);
  EXPECT_EQ(total->BucketTotal(), 200u);
  EXPECT_LT(total->Percentile(0.5), 2e-3);

  // ...but the interval histogram contains only the slow window.
  const MetricsDelta delta = Diff(prev, cur);
  const HistogramSnapshot* interval =
      delta.histogram("serve.request.latency.seconds");
  ASSERT_NE(interval, nullptr);
  EXPECT_EQ(interval->BucketTotal(), 100u);
  EXPECT_FALSE(interval->has_extremes);
  EXPECT_GT(interval->Percentile(0.5), 8e-3);
  EXPECT_LT(interval->Percentile(0.5), 32e-3);
  EXPECT_NEAR(interval->sum, 100 * 16e-3, 1e-9);
}

TEST(MetricsSnapshotTest, BucketEdgesMatchHistogramLeSemantics) {
  // An observation exactly at an edge must land in the bucket labeled with
  // that edge (Prometheus `le` is inclusive).
  Histogram histogram;
  histogram.Observe(Histogram::BucketUpperEdge(10));
  EXPECT_EQ(histogram.bucket_count(10), 1u);
  EXPECT_EQ(PrometheusBucketEdge(0), "1e-09");
  EXPECT_EQ(Histogram::BucketUpperEdge(1), 2e-9);
  EXPECT_GT(Histogram::BucketUpperEdge(Histogram::kBuckets - 1),
            Histogram::BucketUpperEdge(Histogram::kBuckets - 2));
}

TEST(MetricsSnapshotTest, PrometheusExpositionShape) {
  MetricsRegistry registry;
  registry.GetCounter("serve.requests.distance")->Increment(3);
  registry.GetGauge("serve.connections.active")->Set(2.0);
  Histogram* latency = registry.GetHistogram("serve.request.latency.seconds");
  latency->Observe(0.5e-3);
  latency->Observe(1e-3);
  latency->Observe(4e-3);

  std::ostringstream os;
  WritePrometheusText(CaptureSnapshot(registry), os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE tabsketch_serve_requests_distance counter\n"
                      "tabsketch_serve_requests_distance 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE tabsketch_serve_connections_active gauge\n"
                      "tabsketch_serve_connections_active 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(
      text.find("# TYPE tabsketch_serve_request_latency_seconds histogram\n"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("tabsketch_serve_request_latency_seconds_bucket"
                      "{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("tabsketch_serve_request_latency_seconds_count 3\n"),
            std::string::npos)
      << text;
  ASSERT_GE(text.size(), 6u);
  EXPECT_EQ(text.compare(text.size() - 6, 6, "# EOF\n"), 0);

  // Cumulative `_bucket` samples must be non-decreasing in `le` order (they
  // are emitted in bucket order, so line order is `le` order).
  uint64_t last = 0;
  size_t pos = 0;
  size_t bucket_lines = 0;
  while ((pos = text.find("_bucket{le=\"", pos)) != std::string::npos) {
    const size_t space = text.find("} ", pos);
    ASSERT_NE(space, std::string::npos);
    const uint64_t value = std::stoull(text.substr(space + 2));
    EXPECT_GE(value, last);
    last = value;
    ++bucket_lines;
    pos = space;
  }
  EXPECT_GE(bucket_lines, 2u);
}

TEST(MetricsSnapshotTest, ConcurrentMutatorsNeverCorruptSnapshots) {
  // The registry-iteration hammer: 8 threads mutate counters, gauges and a
  // shared histogram while one thread captures, diffs and renders snapshots
  // in a loop. Under tsan this is the no-data-races proof; everywhere it
  // checks that windows never exceed totals and totals come out exact.
  MetricsRegistry registry;
  constexpr int kMutators = 8;
  constexpr uint64_t kPerThread = 20000;
  std::atomic<bool> stop{false};

  std::thread reader([&registry, &stop] {
    MetricsSnapshot prev = CaptureSnapshot(registry);
    while (!stop.load(std::memory_order_relaxed)) {
      const MetricsSnapshot cur = CaptureSnapshot(registry);
      const MetricsDelta delta = Diff(prev, cur);
      EXPECT_LE(delta.counter("hammer.count"), cur.counter("hammer.count"));
      const HistogramSnapshot* hist = cur.histogram("hammer.latency");
      if (hist != nullptr) {
        EXPECT_LE(hist->BucketTotal(), kMutators * kPerThread);
        (void)hist->Percentile(0.99);
      }
      std::ostringstream os;
      WritePrometheusText(cur, os);
      EXPECT_NE(os.str().find("# EOF\n"), std::string::npos);
      prev = cur;
    }
  });

  std::vector<std::thread> mutators;
  for (int t = 0; t < kMutators; ++t) {
    mutators.emplace_back([&registry, t] {
      Counter* counter = registry.GetCounter("hammer.count");
      Gauge* gauge =
          registry.GetGauge("hammer.gauge." + std::to_string(t % 2));
      Histogram* histogram = registry.GetHistogram("hammer.latency");
      for (uint64_t i = 0; i < kPerThread; ++i) {
        counter->Increment();
        gauge->Add(1.0);
        histogram->Observe(1e-6 * static_cast<double>(i % 64 + 1));
      }
    });
  }
  for (std::thread& thread : mutators) thread.join();
  stop.store(true, std::memory_order_relaxed);
  reader.join();

  const MetricsSnapshot final_snapshot = CaptureSnapshot(registry);
  EXPECT_EQ(final_snapshot.counter("hammer.count"), kMutators * kPerThread);
  EXPECT_EQ(final_snapshot.gauge("hammer.gauge.0") +
                final_snapshot.gauge("hammer.gauge.1"),
            static_cast<double>(kMutators * kPerThread));
  const HistogramSnapshot* hist = final_snapshot.histogram("hammer.latency");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, kMutators * kPerThread);
  EXPECT_EQ(hist->BucketTotal(), kMutators * kPerThread);
}

TEST(MetricsTickerTest, BaselineTickRingAndAtomicFileRewrites) {
  MetricsRegistry registry;
  const std::string path = TempPath("metrics_snapshot_ticker.json");
  std::remove(path.c_str());

  MetricsTicker::Options options;
  options.interval_seconds = 0.02;
  options.metrics_json_path = path;
  options.registry = &registry;
  const double before = CaptureSnapshot(registry).wall_seconds;
  MetricsTicker ticker(options);

  // The constructor takes a synchronous baseline tick, so a window baseline
  // exists before the first interval elapses.
  EXPECT_GE(ticker.ticks(), 1u);
  EXPECT_GE(ticker.WindowBaseline(before).wall_seconds, before);

  registry.GetCounter("tick.requests")->Increment(5);
  while (ticker.ticks() < 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const MetricsSnapshot now = CaptureSnapshot(registry);
  const MetricsSnapshot baseline = ticker.WindowBaseline(now.wall_seconds);
  EXPECT_LE(baseline.wall_seconds, now.wall_seconds);

  ticker.Stop();
  const uint64_t ticks_after_stop = ticker.ticks();
  ticker.Stop();  // idempotent: no further ticks
  EXPECT_EQ(ticker.ticks(), ticks_after_stop);
  // Each tick also bumps the serve.ticker.ticks counter in its registry.
  EXPECT_EQ(registry.GetCounter("serve.ticker.ticks")->value(),
            ticks_after_stop);

  // The file was rewritten atomically (temp + rename): what is on disk is a
  // complete, valid metrics document including the post-baseline counter.
  std::ifstream file(path);
  ASSERT_TRUE(file.good());
  std::ostringstream contents;
  contents << file.rdbuf();
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(contents.str()))
      << contents.str();
  EXPECT_NE(contents.str().find("tick.requests"), std::string::npos);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(MetricsTickerTest, RingIsBoundedByCapacity) {
  MetricsRegistry registry;
  MetricsTicker::Options options;
  options.interval_seconds = 0.005;
  options.registry = &registry;
  MetricsTicker ticker(options);
  while (ticker.ticks() < 6) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ticker.Stop();
  // The ticker keeps the newest capture and the one before it. A window
  // ending long after the newest starts at the newest; one ending at the
  // newest falls back to the capture before it.
  const MetricsSnapshot newest = ticker.WindowBaseline(1e18);
  const MetricsSnapshot before = ticker.WindowBaseline(newest.wall_seconds);
  EXPECT_LT(before.wall_seconds, newest.wall_seconds);
  EXPECT_EQ(newest.counter("serve.ticker.ticks") -
                before.counter("serve.ticker.ticks"),
            1u);
  EXPECT_EQ(ticker.WindowBaseline(newest.wall_seconds + 1e-9).wall_seconds,
            before.wall_seconds);
}

}  // namespace
}  // namespace tabsketch::util
