// Byte pins for every document the observability layer writes: metrics-v1
// JSON, the Prometheus exposition, `stats json`, `health`, `stats slow` (and
// its JSONL mirror) and trace-v1. Each test renders fixed inputs and
// compares whole strings, so a refactor of the writers cannot move a byte
// unnoticed. The two long registry documents live in tests/golden/.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "serve/stats.h"
#include "util/metrics.h"
#include "util/metrics_snapshot.h"
#include "util/trace_recorder.h"

namespace tabsketch {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

std::string Golden(const std::string& name) {
  return ReadFile(std::string(TABSKETCH_TEST_GOLDEN_DIR) + "/" + name);
}

/// The core key set plus one counter, two gauges (one non-finite), a
/// three-sample histogram and a name that needs escaping.
void FillRegistry(util::MetricsRegistry* registry) {
  util::PreregisterCoreMetrics(registry);
  registry->GetCounter("serve.requests.distance")->Increment(42);
  registry->GetGauge("lru.cache.capacity_bytes")->Set(0.1);
  registry->GetGauge("quant.pool.bytes")
      ->Set(std::numeric_limits<double>::infinity());
  util::Histogram* latency =
      registry->GetHistogram("serve.request.latency.seconds");
  latency->Observe(0.003);
  latency->Observe(0.0005);
  latency->Observe(0.012);
  registry->GetCounter("odd\"name\\with\x01" "control")->Increment(3);
}

TEST(MetricsDocumentsTest, MetricsJsonAndPrometheusTextBytes) {
  util::MetricsRegistry registry;
  FillRegistry(&registry);

  const std::string path = TempPath("tabsketch_documents_metrics.json");
  ASSERT_TRUE(util::WriteMetricsJsonFile(registry, path).ok());
  EXPECT_EQ(ReadFile(path), Golden("metrics_v1.json"));
  std::remove(path.c_str());

  std::ostringstream prom;
  util::WritePrometheusText(util::CaptureSnapshot(registry), prom);
  EXPECT_EQ(prom.str(), Golden("metrics_v1.prom"));
}

util::HistogramSnapshot LatencySnapshot(uint64_t fast, uint64_t slow,
                                        double sum) {
  util::HistogramSnapshot histogram;
  histogram.buckets[20] = fast;  // (2^19 ns, 2^20 ns]
  histogram.buckets[24] = slow;  // (2^23 ns, 2^24 ns]
  histogram.count = fast + slow;
  histogram.sum = sum;
  histogram.min = 0.0006;
  histogram.max = 0.0151;
  histogram.has_extremes = true;
  return histogram;
}

TEST(MetricsDocumentsTest, StatsJsonAndHealthBytes) {
  serve::StatsInfo info;
  info.uptime_seconds = 12.5;
  info.generation = 3;
  info.tiles = 64;
  info.connections_accepted = 7;
  info.queue_depth = 1;
  info.slow_total = 2;
  info.has_window = true;
  info.window_start_col = 4;
  info.window_tile_cols = 8;
  info.window_pending_cols = 5;

  util::MetricsSnapshot prev;
  prev.wall_seconds = 100.0;
  prev.counters = {{"serve.requests.distance", 10},
                   {"serve.requests.knn", 4},
                   {"serve.requests.shed", 1},
                   {"lru.cache.hits", 30},
                   {"lru.cache.misses", 10},
                   {"quant.scan.tiles", 200},
                   {"quant.candidates.kept", 40}};
  prev.histograms["serve.request.latency.seconds"] =
      LatencySnapshot(12, 2, 0.04);

  util::MetricsSnapshot cur;
  cur.wall_seconds = 102.0;
  cur.counters = {{"serve.requests.distance", 25},
                  {"serve.requests.knn", 9},
                  {"serve.requests.errors", 2},
                  {"serve.requests.shed", 4},
                  {"serve.requests.deadline_expired", 1},
                  {"serve.ticker.ticks", 6},
                  {"lru.cache.hits", 75},
                  {"lru.cache.misses", 25},
                  {"quant.scan.tiles", 500},
                  {"quant.candidates.kept", 90}};
  cur.gauges = {{"serve.connections.active", 2},
                {"serve.inflight.distance", 1},
                {"serve.inflight.knn", std::nan("")}};
  cur.histograms["serve.request.latency.seconds"] =
      LatencySnapshot(30, 4, 0.09);

  EXPECT_EQ(
      serve::RenderStatsJson(info, cur, &prev),
      "{\"schema\":\"tabsketch-stats-v1\",\"uptime_seconds\":12.5,"
      "\"generation\":3,\"tiles\":64,\"connections_accepted\":7,"
      "\"connections_active\":2,\"inflight_distance\":1,\"inflight_knn\":0,"
      "\"queue_depth\":1,\"requests_distance\":25,\"requests_knn\":9,"
      "\"requests_total\":34,\"errors_total\":2,\"shed_total\":4,"
      "\"deadline_total\":1,\"slow_total\":2,\"ticker_ticks\":6,"
      "\"latency_p50_ms\":1.0485760000000002,"
      "\"latency_p99_ms\":15.100000000000001,"
      "\"cache_hits\":75,\"cache_misses\":25,\"cache_hit_ratio\":0.75,"
      "\"quant_scanned\":500,\"quant_kept\":90,"
      "\"quant_keep_ratio\":0.17999999999999999,"
      "\"window_start_col\":4,\"window_tile_cols\":8,"
      "\"window_pending_cols\":5,\"window_seconds\":2,\"window_rps\":10,"
      "\"window_p50_ms\":1.0485760000000002,"
      "\"window_p99_ms\":16.777216000000003,"
      "\"window_shed\":3,\"window_deadline\":1,"
      "\"window_cache_hit_ratio\":0.75,"
      "\"window_quant_keep_ratio\":0.16666666666666666}");

  // Without a baseline every window_* key reads 0.
  const std::string cumulative = serve::RenderStatsJson(info, cur, nullptr);
  EXPECT_NE(cumulative.find(
                "\"window_seconds\":0,\"window_rps\":0,\"window_p50_ms\":0,"
                "\"window_p99_ms\":0,\"window_shed\":0,\"window_deadline\":0,"
                "\"window_cache_hit_ratio\":0,\"window_quant_keep_ratio\":0}"),
            std::string::npos)
      << cumulative;

  EXPECT_EQ(serve::RenderHealthJson(info),
            "{\"schema\":\"tabsketch-health-v1\",\"status\":\"ok\","
            "\"uptime_seconds\":12.5,\"generation\":3,\"tiles\":64}");
}

TEST(MetricsDocumentsTest, SlowLogAndMirrorBytes) {
  const std::string mirror = TempPath("tabsketch_documents_slow.jsonl");
  std::remove(mirror.c_str());
  serve::SlowQueryLog::Options options;
  options.slow_ms = 5.0;
  options.jsonl_path = mirror;
  {
    serve::SlowQueryLog log(options);
    serve::SlowQueryEntry entry;
    entry.id = 1;
    entry.verb = "distance";
    entry.bytes = 13;
    entry.queue_wait_seconds = 0.001;
    entry.handle_seconds = 0.004;  // under the threshold: not recorded
    EXPECT_FALSE(log.MaybeRecord(entry));

    entry.id = 2;
    entry.handle_seconds = 0.0125;
    entry.generation = 3;
    entry.stats.cache_hits = 2;
    entry.stats.cache_misses = 1;
    EXPECT_TRUE(log.MaybeRecord(entry));

    entry.id = 5;
    entry.verb = "knn";
    entry.bytes = 8;
    entry.queue_wait_seconds = 0.0;
    entry.handle_seconds = std::numeric_limits<double>::infinity();
    entry.stats.quant_scanned = 63;
    entry.stats.quant_kept = 9;
    EXPECT_TRUE(log.MaybeRecord(entry));

    const std::string second =
        "{\"id\":2,\"verb\":\"distance\",\"bytes\":13,"
        "\"queue_wait_seconds\":0.001,\"handle_seconds\":0.012500000000000001,"
        "\"generation\":3,\"cache_hits\":2,\"cache_misses\":1,"
        "\"quant_scanned\":0,\"quant_kept\":0}";
    const std::string third =
        "{\"id\":5,\"verb\":\"knn\",\"bytes\":8,\"queue_wait_seconds\":0,"
        "\"handle_seconds\":0,\"generation\":3,\"cache_hits\":2,"
        "\"cache_misses\":1,\"quant_scanned\":63,\"quant_kept\":9}";
    EXPECT_EQ(log.ToJson(),
              "{\"schema\":\"tabsketch-slow-v1\",\"slow_ms\":5,\"total\":2,"
              "\"entries\":[" + second + "," + third + "]}");
    EXPECT_EQ(ReadFile(mirror), second + "\n" + third + "\n");
  }
  std::remove(mirror.c_str());
}

/// An instant event is stamped with the recorder's clock: replaces the
/// value of its "ts" field with T, so every other byte can be pinned.
std::string MaskInstantTimestamps(const std::string& json) {
  const std::string key = "\"ts\": ";
  const std::string instant = ", \"s\": \"t\"";
  std::string masked;
  size_t copied = 0;
  for (size_t pos = json.find(key); pos != std::string::npos;
       pos = json.find(key, pos + 1)) {
    const size_t value = pos + key.size();
    const size_t end = json.find_first_not_of("0123456789.", value);
    if (json.compare(end, instant.size(), instant) != 0) continue;
    masked.append(json, copied, value - copied);
    masked.push_back('T');
    copied = end;
  }
  masked.append(json, copied, std::string::npos);
  return masked;
}

TEST(MetricsDocumentsTest, TraceJsonBytes) {
  util::TraceRecorder recorder;
  recorder.Start();
  recorder.RecordComplete("fft.correlate", 1500, 2250);
  recorder.RecordComplete("odd\"span\\\x01", 5000, 1000000);
  recorder.RecordInstant("cluster.kmeans.changed", /*has_value=*/true, 17.0);
  recorder.RecordInstant("marker");
  recorder.RecordInstant("inf.value", /*has_value=*/true,
                         std::numeric_limits<double>::infinity());
  recorder.Stop();
  std::ostringstream os;
  recorder.WriteChromeJson(os);
  EXPECT_EQ(
      MaskInstantTimestamps(os.str()),
      "{\n"
      "  \"schema\": \"tabsketch-trace-v1\",\n"
      "  \"displayTimeUnit\": \"ms\",\n"
      "  \"dropped\": 0,\n"
      "  \"traceEvents\": [\n"
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"tabsketch\"}},\n"
      "    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": 1, "
      "\"args\": {\"name\": \"worker-1\"}},\n"
      "    {\"name\": \"fft.correlate\", \"cat\": \"tabsketch\", \"ph\": "
      "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": 1.500, \"dur\": 2.250},\n"
      "    {\"name\": \"odd\\\"span\\\\\\u0001\", \"cat\": \"tabsketch\", "
      "\"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": 5.000, "
      "\"dur\": 1000.000},\n"
      "    {\"name\": \"cluster.kmeans.changed\", \"cat\": \"tabsketch\", "
      "\"ph\": \"i\", \"pid\": 1, \"tid\": 1, \"ts\": T, \"s\": \"t\", "
      "\"args\": {\"value\": 17}},\n"
      "    {\"name\": \"marker\", \"cat\": \"tabsketch\", \"ph\": \"i\", "
      "\"pid\": 1, \"tid\": 1, \"ts\": T, \"s\": \"t\"},\n"
      "    {\"name\": \"inf.value\", \"cat\": \"tabsketch\", \"ph\": \"i\", "
      "\"pid\": 1, \"tid\": 1, \"ts\": T, \"s\": \"t\", "
      "\"args\": {\"value\": 0}}\n"
      "  ]\n"
      "}\n");
}

}  // namespace
}  // namespace tabsketch
