#include "serve/stats.h"

#include <sstream>

namespace tabsketch::serve {
namespace {

void WriteKey(std::ostream& os, const char* key, bool* first) {
  os << (*first ? "" : ",") << "\"" << key << "\":";
  *first = false;
}

void WriteUint(std::ostream& os, const char* key, uint64_t value,
               bool* first) {
  WriteKey(os, key, first);
  os << value;
}

void WriteDouble(std::ostream& os, const char* key, double value,
                 bool* first) {
  WriteKey(os, key, first);
  util::WriteJsonNumber(os, value);
}

double Ratio(uint64_t numerator, uint64_t denominator) {
  return denominator == 0
             ? 0.0
             : static_cast<double>(numerator) /
                   static_cast<double>(denominator);
}

}  // namespace

std::string SlowQueryEntry::ToJson() const {
  std::ostringstream os;
  bool first = true;
  os << "{";
  WriteUint(os, "id", id, &first);
  WriteKey(os, "verb", &first);
  util::WriteJsonString(os, verb);
  WriteUint(os, "bytes", bytes, &first);
  WriteDouble(os, "queue_wait_seconds", queue_wait_seconds, &first);
  WriteDouble(os, "handle_seconds", handle_seconds, &first);
  WriteUint(os, "generation", generation, &first);
  WriteUint(os, "cache_hits", stats.cache_hits, &first);
  WriteUint(os, "cache_misses", stats.cache_misses, &first);
  WriteUint(os, "quant_scanned", stats.quant_scanned, &first);
  WriteUint(os, "quant_kept", stats.quant_kept, &first);
  os << "}";
  return os.str();
}

SlowQueryLog::SlowQueryLog(const Options& options) : options_(options) {
  if (enabled() && !options_.jsonl_path.empty()) {
    mirror_.open(options_.jsonl_path, std::ios::app);
  }
}

bool SlowQueryLog::MaybeRecord(const SlowQueryEntry& entry) {
  if (!enabled()) return false;
  if (entry.handle_seconds * 1000.0 < options_.slow_ms) return false;
  std::lock_guard<std::mutex> lock(mutex_);
  ++total_;
  ring_.push_back(entry);
  if (ring_.size() > kRingCapacity) ring_.pop_front();
  if (mirror_.is_open()) {
    mirror_ << entry.ToJson() << "\n";
    mirror_.flush();  // slow entries are rare; durability over buffering
  }
  return true;
}

std::vector<SlowQueryEntry> SlowQueryLog::Entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return std::vector<SlowQueryEntry>(ring_.begin(), ring_.end());
}

uint64_t SlowQueryLog::total() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return total_;
}

std::string SlowQueryLog::ToJson() const {
  std::ostringstream os;
  os << "{\"schema\":\"tabsketch-slow-v1\",\"slow_ms\":";
  util::WriteJsonNumber(os, options_.slow_ms);
  std::vector<SlowQueryEntry> entries = Entries();
  os << ",\"total\":" << total() << ",\"entries\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    os << (i == 0 ? "" : ",") << entries[i].ToJson();
  }
  os << "]}";
  return os.str();
}

std::string RenderStatsJson(const StatsInfo& info,
                            const util::MetricsSnapshot& current,
                            const util::MetricsSnapshot* baseline) {
  std::ostringstream os;
  bool first = true;
  os << "{\"schema\":\"tabsketch-stats-v1\"";
  first = false;

  WriteDouble(os, "uptime_seconds", info.uptime_seconds, &first);
  WriteUint(os, "generation", info.generation, &first);
  WriteUint(os, "tiles", info.tiles, &first);
  WriteUint(os, "connections_accepted", info.connections_accepted, &first);
  WriteDouble(os, "connections_active",
              current.gauge("serve.connections.active"), &first);
  WriteDouble(os, "inflight_distance", current.gauge("serve.inflight.distance"),
              &first);
  WriteDouble(os, "inflight_knn", current.gauge("serve.inflight.knn"), &first);
  WriteUint(os, "queue_depth", info.queue_depth, &first);

  const uint64_t distance = current.counter("serve.requests.distance");
  const uint64_t knn = current.counter("serve.requests.knn");
  WriteUint(os, "requests_distance", distance, &first);
  WriteUint(os, "requests_knn", knn, &first);
  WriteUint(os, "requests_total", distance + knn, &first);
  WriteUint(os, "errors_total", current.counter("serve.requests.errors"),
            &first);
  WriteUint(os, "shed_total", current.counter("serve.requests.shed"), &first);
  WriteUint(os, "deadline_total",
            current.counter("serve.requests.deadline_expired"), &first);
  WriteUint(os, "slow_total", info.slow_total, &first);
  WriteUint(os, "ticker_ticks", current.counter("serve.ticker.ticks"),
            &first);

  const util::HistogramSnapshot* latency =
      current.histogram("serve.request.latency.seconds");
  WriteDouble(os, "latency_p50_ms",
              latency == nullptr ? 0.0 : latency->Percentile(0.5) * 1e3,
              &first);
  WriteDouble(os, "latency_p99_ms",
              latency == nullptr ? 0.0 : latency->Percentile(0.99) * 1e3,
              &first);

  const uint64_t cache_hits = current.counter("lru.cache.hits");
  const uint64_t cache_misses = current.counter("lru.cache.misses");
  WriteUint(os, "cache_hits", cache_hits, &first);
  WriteUint(os, "cache_misses", cache_misses, &first);
  WriteDouble(os, "cache_hit_ratio",
              Ratio(cache_hits, cache_hits + cache_misses), &first);

  const uint64_t quant_scanned = current.counter("quant.scan.tiles");
  const uint64_t quant_kept = current.counter("quant.candidates.kept");
  WriteUint(os, "quant_scanned", quant_scanned, &first);
  WriteUint(os, "quant_kept", quant_kept, &first);
  WriteDouble(os, "quant_keep_ratio", Ratio(quant_kept, quant_scanned),
              &first);

  WriteUint(os, "window_start_col", info.window_start_col, &first);
  WriteUint(os, "window_tile_cols", info.window_tile_cols, &first);
  WriteUint(os, "window_pending_cols", info.window_pending_cols, &first);

  // Last-window view: everything below diffs the freshest capture against
  // the ticker's rolling baseline. Without a ticker the window is empty and
  // every window_* key reads 0 — cumulative keys above are always live.
  double window_seconds = 0.0;
  double window_rps = 0.0;
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  uint64_t window_shed = 0;
  uint64_t window_deadline = 0;
  double window_cache_hit_ratio = 0.0;
  double window_quant_keep_ratio = 0.0;
  if (baseline != nullptr) {
    const util::MetricsDelta delta = util::Diff(*baseline, current);
    window_seconds = delta.seconds;
    window_rps = delta.Rate("serve.requests.distance") +
                 delta.Rate("serve.requests.knn");
    const util::HistogramSnapshot* interval =
        delta.histogram("serve.request.latency.seconds");
    if (interval != nullptr) {
      window_p50_ms = interval->Percentile(0.5) * 1e3;
      window_p99_ms = interval->Percentile(0.99) * 1e3;
    }
    window_shed = delta.counter("serve.requests.shed");
    window_deadline = delta.counter("serve.requests.deadline_expired");
    const uint64_t hits = delta.counter("lru.cache.hits");
    const uint64_t misses = delta.counter("lru.cache.misses");
    window_cache_hit_ratio = Ratio(hits, hits + misses);
    window_quant_keep_ratio = Ratio(delta.counter("quant.candidates.kept"),
                                    delta.counter("quant.scan.tiles"));
  }
  WriteDouble(os, "window_seconds", window_seconds, &first);
  WriteDouble(os, "window_rps", window_rps, &first);
  WriteDouble(os, "window_p50_ms", window_p50_ms, &first);
  WriteDouble(os, "window_p99_ms", window_p99_ms, &first);
  WriteUint(os, "window_shed", window_shed, &first);
  WriteUint(os, "window_deadline", window_deadline, &first);
  WriteDouble(os, "window_cache_hit_ratio", window_cache_hit_ratio, &first);
  WriteDouble(os, "window_quant_keep_ratio", window_quant_keep_ratio, &first);

  os << "}";
  return os.str();
}

std::string RenderHealthJson(const StatsInfo& info) {
  std::ostringstream os;
  os << "{\"schema\":\"tabsketch-health-v1\",\"status\":\"ok\"";
  bool first = false;
  WriteDouble(os, "uptime_seconds", info.uptime_seconds, &first);
  WriteUint(os, "generation", info.generation, &first);
  WriteUint(os, "tiles", info.tiles, &first);
  os << "}";
  return os.str();
}

}  // namespace tabsketch::serve
