// Unit and concurrency tests for the observability layer: counter / gauge /
// histogram semantics, registry pointer stability, the N-thread counter
// hammer the tsan preset leans on, scoped spans, the runtime enable gate,
// and the JSON dump's shape.

#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.h"
#include "util/metrics.h"
#include "util/metrics_snapshot.h"
#include "util/trace.h"

namespace tabsketch {
namespace {

using ::tabsketch::testing::JsonChecker;
using util::Counter;
using util::Gauge;
using util::Histogram;
using util::MetricsRegistry;
using util::ScopedSpan;

/// Percentiles are read from a capture of the live histogram.
double Percentile(const Histogram& histogram, double q) {
  return util::CaptureHistogram(histogram).Percentile(q);
}

/// The metrics-v1 document of `registry`.
std::string MetricsJson(const MetricsRegistry& registry) {
  std::ostringstream os;
  util::WriteMetricsJson(util::CaptureSnapshot(registry), os);
  return os.str();
}

/// Restores the global enable flag and wipes the global registry's values on
/// scope exit, so tests can flip the flag without leaking state into each
/// other (tests in one binary share the process-wide singleton).
class GlobalMetricsGuard {
 public:
  GlobalMetricsGuard() : was_enabled_(MetricsRegistry::Enabled()) {}
  ~GlobalMetricsGuard() {
    MetricsRegistry::SetEnabled(was_enabled_);
    MetricsRegistry::Global().ResetValues();
  }

 private:
  bool was_enabled_;
};

TEST(MetricsCounterTest, IncrementAndReset) {
  Counter counter;
  EXPECT_EQ(counter.value(), 0u);
  counter.Increment();
  counter.Increment(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.Reset();
  EXPECT_EQ(counter.value(), 0u);
}

TEST(MetricsGaugeTest, SetAddReset) {
  Gauge gauge;
  gauge.Set(2.5);
  EXPECT_DOUBLE_EQ(gauge.value(), 2.5);
  gauge.Add(-1.0);
  EXPECT_DOUBLE_EQ(gauge.value(), 1.5);
  gauge.Reset();
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(MetricsHistogramTest, CountSumMinMax) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.0);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.0);
  EXPECT_DOUBLE_EQ(Percentile(histogram, 0.5), 0.0);

  histogram.Observe(0.25);
  histogram.Observe(1.0);
  histogram.Observe(0.03125);
  EXPECT_EQ(histogram.count(), 3u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 1.28125);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.03125);
  EXPECT_DOUBLE_EQ(histogram.max(), 1.0);

  histogram.Reset();
  EXPECT_EQ(histogram.count(), 0u);
  EXPECT_DOUBLE_EQ(histogram.sum(), 0.0);
}

TEST(MetricsHistogramTest, PercentilesBracketTheDistribution) {
  Histogram histogram;
  // 90 fast observations (~1 ms bucket) and 10 slow ones (~1 s bucket).
  for (int i = 0; i < 90; ++i) histogram.Observe(1e-3);
  for (int i = 0; i < 10; ++i) histogram.Observe(1.0);

  // Log2 buckets give factor-2 resolution: the p50 must land within a factor
  // of two of the fast mode and the p99 within a factor of two of the slow
  // mode.
  const double p50 = Percentile(histogram, 0.5);
  const double p99 = Percentile(histogram, 0.99);
  EXPECT_GE(p50, 0.5e-3);
  EXPECT_LE(p50, 2e-3);
  EXPECT_GE(p99, 0.5);
  EXPECT_LE(p99, 2.0);
  EXPECT_LE(Percentile(histogram, 0.1), p50);
  EXPECT_LE(p50, p99);
  // Quantiles never leave the observed range.
  EXPECT_GE(Percentile(histogram, 0.0), histogram.min());
  EXPECT_LE(Percentile(histogram, 1.0), histogram.max());
}

TEST(MetricsHistogramTest, SingleSampleReportsItself) {
  Histogram histogram;
  histogram.Observe(0.007);
  EXPECT_DOUBLE_EQ(histogram.min(), 0.007);
  EXPECT_DOUBLE_EQ(histogram.max(), 0.007);
  // With one sample, clamping to [min, max] makes every quantile exact.
  EXPECT_DOUBLE_EQ(Percentile(histogram, 0.5), 0.007);
  EXPECT_DOUBLE_EQ(Percentile(histogram, 0.99), 0.007);
}

TEST(MetricsHistogramTest, IgnoresNanKeepsNegativeAndZeroInUnderflow) {
  Histogram histogram;
  histogram.Observe(std::nan(""));
  EXPECT_EQ(histogram.count(), 0u);
  histogram.Observe(0.0);
  histogram.Observe(-1.0);  // clock skew defense: still counted, bucket 0
  EXPECT_EQ(histogram.count(), 2u);
  EXPECT_DOUBLE_EQ(histogram.min(), -1.0);
}

TEST(MetricsRegistryTest, LookupsReturnStablePointers) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("a.counter");
  Gauge* gauge = registry.GetGauge("a.gauge");
  Histogram* histogram = registry.GetHistogram("a.histogram");
  // Same name -> same object; the macros rely on this to cache pointers.
  EXPECT_EQ(registry.GetCounter("a.counter"), counter);
  EXPECT_EQ(registry.GetGauge("a.gauge"), gauge);
  EXPECT_EQ(registry.GetHistogram("a.histogram"), histogram);
  // Names are namespaced per metric kind.
  EXPECT_NE(registry.GetCounter("other"), counter);

  counter->Increment(7);
  gauge->Set(3.0);
  histogram->Observe(0.5);
  registry.ResetValues();
  // Values are gone, the objects (and cached pointers) are not.
  EXPECT_EQ(counter->value(), 0u);
  EXPECT_DOUBLE_EQ(gauge->value(), 0.0);
  EXPECT_EQ(histogram->count(), 0u);
  EXPECT_EQ(registry.GetCounter("a.counter"), counter);
}

TEST(MetricsRegistryTest, ConcurrentCounterHammerIsExact) {
  MetricsRegistry registry;
  constexpr size_t kThreads = 8;
  constexpr size_t kIncrementsPerThread = 20000;
  Counter* shared = registry.GetCounter("hammer.shared");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, shared, t] {
      // Half the traffic goes through fresh lookups to also hammer the
      // registry's map+mutex path concurrently with pure increments.
      Counter* mine = registry.GetCounter("hammer.per_thread." +
                                          std::to_string(t % 2));
      for (size_t i = 0; i < kIncrementsPerThread; ++i) {
        shared->Increment();
        mine->Increment();
        registry.GetHistogram("hammer.histogram")->Observe(1e-6);
      }
    });
  }
  for (auto& worker : workers) worker.join();

  EXPECT_EQ(shared->value(), kThreads * kIncrementsPerThread);
  const uint64_t per_thread_total =
      registry.GetCounter("hammer.per_thread.0")->value() +
      registry.GetCounter("hammer.per_thread.1")->value();
  EXPECT_EQ(per_thread_total, kThreads * kIncrementsPerThread);
  EXPECT_EQ(registry.GetHistogram("hammer.histogram")->count(),
            kThreads * kIncrementsPerThread);
}

TEST(MetricsRegistryTest, EnableFlagGatesTheMacros) {
  GlobalMetricsGuard guard;
  MetricsRegistry::SetEnabled(false);
  TABSKETCH_METRIC_COUNT("gate.test.counter");
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("gate.test.counter")->value(),
            0u);

  MetricsRegistry::SetEnabled(true);
  TABSKETCH_METRIC_COUNT("gate.test.counter");
  TABSKETCH_METRIC_COUNT_N("gate.test.counter", 2);
  TABSKETCH_METRIC_GAUGE_SET("gate.test.gauge", 5);
  TABSKETCH_METRIC_OBSERVE("gate.test.histogram", 0.125);
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("gate.test.counter")->value(),
            3u);
  EXPECT_DOUBLE_EQ(
      MetricsRegistry::Global().GetGauge("gate.test.gauge")->value(), 5.0);
  EXPECT_EQ(
      MetricsRegistry::Global().GetHistogram("gate.test.histogram")->count(),
      1u);
}

TEST(MetricsTraceTest, SpanAgainstGlobalRespectsEnableFlag) {
  GlobalMetricsGuard guard;
  MetricsRegistry::Global().GetHistogram("span.global_gate.seconds")->Reset();
  MetricsRegistry::SetEnabled(false);
  {
    TABSKETCH_TRACE_SPAN("global_gate");
  }
  EXPECT_EQ(MetricsRegistry::Global()
                .GetHistogram("span.global_gate.seconds")
                ->count(),
            0u);
  MetricsRegistry::SetEnabled(true);
  {
    TABSKETCH_TRACE_SPAN("global_gate");
  }
  Histogram* histogram =
      MetricsRegistry::Global().GetHistogram("span.global_gate.seconds");
  EXPECT_EQ(histogram->count(), 1u);
  EXPECT_GE(histogram->sum(), 0.0);

  // Stop() is explicit and idempotent.
  ScopedSpan span("global_gate");
  EXPECT_GE(span.Stop(), 0.0);
  EXPECT_DOUBLE_EQ(span.Stop(), 0.0);
  EXPECT_EQ(histogram->count(), 2u);
}

TEST(MetricsJsonTest, DumpIsValidJsonWithDocumentedShape) {
  MetricsRegistry registry;
  util::PreregisterCoreMetrics(&registry);
  registry.GetCounter("cluster.distance_evals.sketch")->Increment(123);
  registry.GetGauge("cluster.kmeans.iterations")->Set(7);
  registry.GetHistogram("span.cluster.assign.seconds")->Observe(0.004);
  registry.GetHistogram("span.cluster.assign.seconds")->Observe(0.008);

  const std::string json = MetricsJson(registry);

  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-metrics-v1\""),
            std::string::npos);
  // The documented key set survives into the dump even at value zero.
  for (const char* key :
       {"fft.plan.constructions", "fft.correlate.calls",
        "sketcher.sketch_of.calls", "estimator.estimate.calls",
        "lru.cache.hits", "lru.cache.misses",
        "lru.cache.evictions", "cluster.distance_evals.exact",
        "cluster.distance_evals.sketch", "pool.build.canonical_sizes",
        "span.fft.correlate.seconds", "span.pool.build.seconds",
        "span.cluster.assign.seconds", "span.cluster.update.seconds"}) {
    EXPECT_NE(json.find(std::string("\"") + key + "\""), std::string::npos)
        << "missing documented key " << key;
  }
  EXPECT_NE(json.find("\"cluster.distance_evals.sketch\": 123"),
            std::string::npos);
  // Histogram entries carry the documented summary fields.
  for (const char* field :
       {"\"count\"", "\"sum\"", "\"min\"", "\"max\"", "\"p50\"", "\"p90\"",
        "\"p99\""}) {
    EXPECT_NE(json.find(field), std::string::npos);
  }
}

TEST(MetricsJsonTest, EmptyRegistryStillValid) {
  MetricsRegistry registry;
  const std::string json = MetricsJson(registry);
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

TEST(MetricsJsonTest, EscapesAwkwardMetricNames) {
  MetricsRegistry registry;
  registry.GetCounter("weird\"name\\with\ncontrol")->Increment();
  const std::string json = MetricsJson(registry);
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
}

}  // namespace
}  // namespace tabsketch
