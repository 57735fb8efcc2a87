#ifndef TABSKETCH_SERVE_SNAPSHOT_H_
#define TABSKETCH_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <string>

#include "core/estimator.h"
#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "serve/query_engine.h"
#include "table/matrix.h"
#include "table/tiling.h"
#include "util/result.h"

namespace tabsketch::serve {

/// What a Snapshot is built from — the same inputs `tabsketch query`
/// accepts, minus the batch itself. At least one of `table_path` /
/// `sketches_path` must be set; with both, the sketch set must match the
/// table's tile grid. Without a table, serving is sketch-only (refine
/// unavailable).
struct SnapshotSpec {
  std::string table_path;
  size_t tile_rows = 0;
  size_t tile_cols = 0;
  std::string sketches_path;
  /// Sketch family; ignored (taken from the file) when `sketches_path` is
  /// set.
  core::SketchParams params;
  /// Total sketch-memory byte budget of the LruSketchCache; 0 keeps every
  /// computed sketch resident. Ignored when serving a preloaded sketch set.
  /// When `engine.quant` is on, the pinned code tier's exact byte footprint
  /// (QuantizedCodePool::PoolBytes) is taken off the top of a positive
  /// budget and the cache gets the remainder, so the flag stays a true
  /// total bound.
  size_t cache_bytes = 0;
  QueryEngineOptions engine;
};

/// One immutable serving generation: the table/grid (optional), the sketch
/// source, the estimator and a ready QueryEngine, bundled so the whole
/// pipeline can be published and retired atomically via
/// `shared_ptr<const Snapshot>` (see SnapshotHolder). Everything reachable
/// from a Snapshot is either immutable or internally synchronized
/// (LruSketchCache), so any number of requests may run against one snapshot
/// concurrently while another generation is being built or installed.
class Snapshot {
 public:
  /// Heap-pinned table + grid. Shared (not owned) so a successor snapshot
  /// built by WithSketchSet can reuse the same table data when the new
  /// sketch set matches the grid. The matrix is shared too, so a streaming
  /// generation holds the window store's matrix instead of a copy; the grid
  /// points into it, and neither ever moves or changes.
  struct TableData {
    /// A tile_rows x tile_cols grid over `matrix`.
    static util::Result<std::shared_ptr<const TableData>> Over(
        std::shared_ptr<const table::Matrix> matrix, size_t tile_rows,
        size_t tile_cols);

    std::shared_ptr<const table::Matrix> matrix;
    std::unique_ptr<table::TileGrid> grid;
  };

  /// Builds a snapshot from scratch — the `tabsketch query` composition:
  /// read table (optional), read sketches or compute them through an
  /// LruSketchCache budgeted by `spec.cache_bytes`, create the estimator and
  /// engine.
  static util::Result<std::shared_ptr<const Snapshot>> Create(
      const SnapshotSpec& spec);

  /// Builds the reload successor of `base`: same engine options, sketches
  /// replaced by the set at `path`. When `base` has table data and the set
  /// matches its grid (tile shape and count), the table/grid are shared and
  /// refine keeps working; otherwise the successor is sketch-only, which is
  /// FailedPrecondition if `base` serves refined knn.
  static util::Result<std::shared_ptr<const Snapshot>> WithSketchSet(
      const Snapshot& base, const std::string& path);

  const QueryEngine& engine() const { return *engine_; }
  const core::TileSketchCache& cache() const { return *cache_; }
  /// The pinned quantized code tier; null unless the engine options enable
  /// `quant`. Rebuilt (and atomically swapped with everything else) on every
  /// reload, since codes are derived from the generation's sketches.
  const core::QuantizedCodePool* codes() const { return codes_.get(); }
  size_t num_tiles() const { return cache_->num_tiles(); }
  const core::SketchParams& params() const { return params_; }
  /// Human-readable provenance ("table day1.tbl" / "sketches day2.sks"),
  /// for logs and reload acknowledgements.
  const std::string& description() const { return description_; }

  Snapshot(const Snapshot&) = delete;
  Snapshot& operator=(const Snapshot&) = delete;

 private:
  Snapshot() = default;

  /// The one step every generation ends in, once its table, sketch source,
  /// params, engine options and description are set: builds the code tier
  /// over the sketch source with `engine.threads` unless `codes` already
  /// holds one (an ingest successor), sets quant.pool.bytes, and creates the
  /// estimator and the engine. `object_rows` x `object_cols` is the sketched
  /// tile shape.
  static util::Result<std::shared_ptr<const Snapshot>> Finish(
      std::shared_ptr<Snapshot> snapshot, size_t object_rows,
      size_t object_cols,
      std::shared_ptr<const core::QuantizedCodePool> codes = nullptr);

  /// Sets a streaming-ingest generation's table and sketch source
  /// (serve/ingest.cc), reusing surviving sketches and codes across
  /// generations, then calls Finish.
  friend class StreamingIngest;

  std::shared_ptr<const TableData> table_;
  core::SketchParams params_;
  std::unique_ptr<core::Sketcher> sketcher_;
  std::unique_ptr<core::TileSketchCache> cache_;
  /// Shared (not unique) so the streaming-ingest path can keep the previous
  /// generation's pool alive as the base of the next incremental build.
  std::shared_ptr<const core::QuantizedCodePool> codes_;
  std::unique_ptr<core::DistanceEstimator> estimator_;
  QueryEngineOptions engine_options_;
  std::unique_ptr<QueryEngine> engine_;
  std::string description_;
};

/// The RCU-style publication point for the current Snapshot. Readers take a
/// `shared_ptr` copy (Current()) and keep using it for the whole request;
/// Swap() just exchanges the pointer, so in-flight requests finish against
/// the generation they started on while new requests see the new one. No
/// reader is ever invalidated: the old snapshot (and, transitively, any
/// cache entry handed out from it) is freed when its last request drops the
/// reference. A plain mutex guards the pointer — swaps are rare (daily) and
/// the critical section is two shared_ptr ops.
class SnapshotHolder {
 public:
  explicit SnapshotHolder(std::shared_ptr<const Snapshot> initial);

  /// The snapshot new requests should use. Never null.
  std::shared_ptr<const Snapshot> Current() const;

  /// Publishes `next` (must be non-null) and retires the previous
  /// generation. Bumps the serve.snapshot.swaps counter.
  void Swap(std::shared_ptr<const Snapshot> next);

  /// Number of Swap() calls so far.
  size_t swaps() const { return swaps_.load(std::memory_order_relaxed); }

 private:
  mutable std::mutex mutex_;
  std::shared_ptr<const Snapshot> current_;
  std::atomic<size_t> swaps_{0};
};

}  // namespace tabsketch::serve

#endif  // TABSKETCH_SERVE_SNAPSHOT_H_
