#ifndef TABSKETCH_SERVE_STATS_H_
#define TABSKETCH_SERVE_STATS_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <fstream>
#include <mutex>
#include <string>
#include <vector>

#include "serve/query_engine.h"
#include "util/metrics_snapshot.h"

namespace tabsketch::serve {

/// One slow request, as retained in the in-memory ring and mirrored to the
/// --slow-log JSONL file (docs/FORMATS.md, "Slow-query log").
struct SlowQueryEntry {
  /// Monotonic per-daemon request id (1-based, assigned at arrival).
  uint64_t id = 0;
  /// Request verb: "distance" or "knn".
  std::string verb;
  /// Bytes of the request line as received.
  uint64_t bytes = 0;
  /// Time spent waiting for an admission slot.
  double queue_wait_seconds = 0.0;
  /// Total handle time (queue wait + execution), the --slow-ms criterion.
  double handle_seconds = 0.0;
  /// SnapshotHolder::swaps() when the request pinned its snapshot.
  uint64_t generation = 0;
  /// Cache and quant-prefilter attribution for this request.
  RequestStats stats;

  /// The entry as a one-line JSON object (the JSONL mirror line and the
  /// element shape inside `stats slow`).
  std::string ToJson() const;
};

/// Bounded ring of the slowest-by-threshold requests: requests whose handle
/// time exceeds `slow_ms` are appended (oldest dropped beyond
/// kRingCapacity) and optionally mirrored to a JSONL file, one object per
/// line, flushed per record — slow requests are rare, so durability beats
/// buffering. Thread-safe; recording is off the fast path (only requests
/// already measured slow pay the mutex).
class SlowQueryLog {
 public:
  /// Entries kept in memory for `stats slow`.
  static constexpr size_t kRingCapacity = 128;

  struct Options {
    /// Threshold in milliseconds; <= 0 disables recording (the `stats slow`
    /// verb still answers, with an empty entry list).
    double slow_ms = 0.0;
    /// When non-empty, every recorded entry is appended here as JSONL.
    std::string jsonl_path;
  };

  explicit SlowQueryLog(const Options& options);

  bool enabled() const { return options_.slow_ms > 0.0; }
  double slow_ms() const { return options_.slow_ms; }

  /// Records `entry` if the log is enabled and entry.handle_seconds exceeds
  /// the threshold. Returns whether it was recorded.
  bool MaybeRecord(const SlowQueryEntry& entry);

  /// Ring contents, oldest first.
  std::vector<SlowQueryEntry> Entries() const;

  /// Slow requests recorded so far (the ring may have dropped older ones).
  uint64_t total() const;

  /// The `stats slow` response: a one-line "tabsketch-slow-v1" JSON document
  /// with the threshold, the running total and the ring's entries.
  std::string ToJson() const;

 private:
  const Options options_;
  mutable std::mutex mutex_;
  std::deque<SlowQueryEntry> ring_;  // guarded by mutex_, newest last
  uint64_t total_ = 0;               // guarded by mutex_
  std::ofstream mirror_;             // guarded by mutex_
};

/// Server-side facts that live outside the metrics registry, assembled by
/// the serve daemon per `stats` / `health` call.
struct StatsInfo {
  double uptime_seconds = 0.0;
  /// SnapshotHolder::swaps(): how many generations this daemon has served.
  uint64_t generation = 0;
  /// Tiles in the currently-served snapshot.
  uint64_t tiles = 0;
  uint64_t connections_accepted = 0;
  uint64_t queue_depth = 0;
  uint64_t slow_total = 0;
  /// Window extent when serving with --ingest; all zero otherwise.
  bool has_window = false;
  uint64_t window_start_col = 0;
  uint64_t window_tile_cols = 0;
  uint64_t window_pending_cols = 0;
};

/// The `stats json` response: the one-line "tabsketch-stats-v1" document —
/// cumulative totals from `current` plus last-window rates and interval
/// percentiles from Diff(*baseline, current). A null `baseline` (no ticker)
/// leaves every window_* key at 0. See docs/FORMATS.md for the key set.
std::string RenderStatsJson(const StatsInfo& info,
                            const util::MetricsSnapshot& current,
                            const util::MetricsSnapshot* baseline);

/// The `health` response: a one-line "tabsketch-health-v1" document.
std::string RenderHealthJson(const StatsInfo& info);

}  // namespace tabsketch::serve

#endif  // TABSKETCH_SERVE_STATS_H_
