#ifndef TABSKETCH_SERVE_INGEST_H_
#define TABSKETCH_SERVE_INGEST_H_

#include <cstddef>
#include <memory>
#include <mutex>
#include <string>

#include "core/growing.h"
#include "core/quantized_sketch.h"
#include "serve/snapshot.h"
#include "util/result.h"

namespace tabsketch::serve {

/// Sliding-window streaming ingest behind the `append`/`retire`/`window`
/// wire verbs and the `tabsketch ingest` CLI path: a GrowingTableSketcher
/// holds the window, and every append/retire builds the next Snapshot
/// generation *incrementally* from the previous one — all surviving tile
/// sketches are shared (the same heap objects, never recomputed, via
/// FixedSketchSource's aliasing constructor), the window table is the
/// store's own matrix (shared, never copied), quantized code rows are
/// copied (never re-encoded) with the affine map re-derived only when the
/// pool's value range grows, and only the newly completed tiles are
/// sketched. Generations are published through the caller's RCU
/// SnapshotHolder, so in-flight queries finish on the generation they
/// started with, and post-swap answers are byte-identical to a cold
/// Snapshot::Create over the equivalent window table (DESIGN.md §14).
///
/// Append/Retire are serialized by an internal mutex (the publish happens
/// inside it, so generations can never swap in out of order); they may run
/// concurrently with any number of queries against published snapshots.
class StreamingIngest {
 public:
  /// Seeds the window from spec.table_path (which may hold zero or more
  /// tile columns; trailing columns stay pending). The spec must be
  /// table-backed with no preloaded sketch set and no cache budget —
  /// streaming generations pin every window sketch. With spec.engine.refine
  /// the initial table must complete at least one tile column (snapshots
  /// need a grid). The initial generation is available via initial().
  static util::Result<std::unique_ptr<StreamingIngest>> Create(
      const SnapshotSpec& spec);

  /// The generation built at Create time (what the daemon serves first).
  std::shared_ptr<const Snapshot> initial() const { return initial_; }

  struct WindowStats {
    size_t grid_rows = 0;
    size_t grid_cols = 0;
    size_t num_tiles = 0;
    size_t pending_cols = 0;
    /// Absolute index of the window's first tile column in the full stream.
    size_t start_tile_col = 0;
    size_t sketches_computed = 0;
  };

  struct AppendResult {
    std::shared_ptr<const Snapshot> snapshot;
    size_t appended_cols = 0;
    /// Tiles sketched by this append (newly completed tile columns).
    size_t new_tiles = 0;
    /// Surviving tile sketches carried into the new generation unchanged.
    size_t reused_tiles = 0;
    /// True when the quantized map had to be re-derived (range growth);
    /// always false with quant off.
    bool codes_rebuilt = false;
    WindowStats window;
  };

  struct RetireResult {
    std::shared_ptr<const Snapshot> snapshot;
    size_t retired_tile_cols = 0;
    size_t reused_tiles = 0;
    WindowStats window;
  };

  /// Appends the TSKT column piece at `path` (same row count as the
  /// window), sketches any tile columns it completes, builds the successor
  /// snapshot and — when `holder` is non-null — publishes it via Swap.
  /// On error nothing is published and the previous generation keeps
  /// serving. Updates the ingest.* metrics.
  util::Result<AppendResult> Append(const std::string& path,
                                    SnapshotHolder* holder);

  /// Drops the oldest `tile_columns` completed tile columns, builds and
  /// (when `holder` is non-null) publishes the successor. Retiring the
  /// whole window is FailedPrecondition under refine (the snapshot would
  /// lose its grid); otherwise the window may go empty and grow again.
  util::Result<RetireResult> Retire(size_t tile_columns,
                                    SnapshotHolder* holder);

  /// Current window extent (the `window` verb).
  WindowStats stats() const;

 private:
  explicit StreamingIngest(core::GrowingTableSketcher store,
                           SnapshotSpec spec);

  WindowStats StatsLocked() const;
  /// Builds the next generation over the store's current window. `base_of`
  /// maps each window tile to its index in `codes_base_` (kNewTile = no
  /// predecessor); empty means "build the code pool from scratch".
  util::Result<std::shared_ptr<const Snapshot>> BuildSnapshotLocked(
      std::vector<size_t> base_of, bool* codes_rebuilt);

  mutable std::mutex mutex_;
  core::GrowingTableSketcher store_;
  SnapshotSpec spec_;
  std::shared_ptr<const Snapshot> initial_;
  /// The last generation's code pool and its grid columns — the base for
  /// the next incremental build. Null (re-derive from scratch) with quant
  /// off or after a failed build left the pairing stale.
  std::shared_ptr<const core::QuantizedCodePool> codes_base_;
};

}  // namespace tabsketch::serve

#endif  // TABSKETCH_SERVE_INGEST_H_
