#include "serve/snapshot.h"

#include <utility>

#include "core/lru_sketch_cache.h"
#include "core/sketch_io.h"
#include "table/table_io.h"
#include "util/metrics.h"
#include "util/status.h"

namespace tabsketch::serve {
namespace {

/// True when the sketch set's object shape and count line up with the grid,
/// i.e. the set can serve as that grid's precomputed sketches.
bool SetMatchesGrid(const core::SketchSet& set, const table::TileGrid& grid) {
  return set.object_rows == grid.tile_rows() &&
         set.object_cols == grid.tile_cols() &&
         set.sketches.size() == grid.num_tiles();
}

}  // namespace

util::Result<std::shared_ptr<const Snapshot::TableData>>
Snapshot::TableData::Over(std::shared_ptr<const table::Matrix> matrix,
                          size_t tile_rows, size_t tile_cols) {
  auto data = std::make_shared<TableData>();
  data->matrix = std::move(matrix);
  TABSKETCH_ASSIGN_OR_RETURN(
      table::TileGrid grid,
      table::TileGrid::Create(data->matrix.get(), tile_rows, tile_cols));
  data->grid = std::make_unique<table::TileGrid>(std::move(grid));
  return std::shared_ptr<const TableData>(std::move(data));
}

util::Result<std::shared_ptr<const Snapshot>> Snapshot::Create(
    const SnapshotSpec& spec) {
  if (spec.table_path.empty() && spec.sketches_path.empty()) {
    return util::Status::InvalidArgument(
        "snapshot needs a table or a sketch set");
  }
  if (spec.engine.refine && spec.table_path.empty()) {
    return util::Status::InvalidArgument(
        "refined knn needs table data, not just sketches");
  }

  // shared_ptr<Snapshot> first, const-qualified by Finish: the constructor
  // is private, so no make_shared.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->engine_options_ = spec.engine;

  const table::TileGrid* grid = nullptr;
  if (!spec.table_path.empty()) {
    TABSKETCH_ASSIGN_OR_RETURN(table::Matrix matrix,
                               table::ReadBinary(spec.table_path));
    TABSKETCH_ASSIGN_OR_RETURN(
        snapshot->table_,
        TableData::Over(std::make_shared<const table::Matrix>(
                            std::move(matrix)),
                        spec.tile_rows, spec.tile_cols));
    grid = snapshot->table_->grid.get();
  }

  if (!spec.sketches_path.empty()) {
    TABSKETCH_ASSIGN_OR_RETURN(core::SketchSet set,
                               core::ReadSketchSet(spec.sketches_path));
    if (grid != nullptr && !SetMatchesGrid(set, *grid)) {
      return util::Status::InvalidArgument(
          "sketch set in " + spec.sketches_path +
          " does not match the tile grid");
    }
    snapshot->params_ = set.params;
    snapshot->cache_ = std::make_unique<core::FixedSketchSource>(
        std::move(set.sketches));
    snapshot->description_ = "sketches " + spec.sketches_path;
    return Finish(std::move(snapshot), set.object_rows, set.object_cols);
  }

  snapshot->params_ = spec.params;
  TABSKETCH_ASSIGN_OR_RETURN(core::Sketcher sketcher,
                             core::Sketcher::Create(snapshot->params_));
  snapshot->sketcher_ = std::make_unique<core::Sketcher>(std::move(sketcher));
  // The pinned code tier spends part of a positive budget; the sketch cache
  // gets what is left, keeping `cache_bytes` a bound on total sketch memory.
  core::LruSketchCache::Options options;
  options.capacity_bytes = core::QuantizedCodePool::SketchCacheBudget(
      spec.cache_bytes, spec.engine.quant, grid->num_tiles(),
      snapshot->params_.k);
  snapshot->cache_ = std::make_unique<core::LruSketchCache>(
      snapshot->sketcher_.get(), grid, options);
  snapshot->description_ = "table " + spec.table_path;
  return Finish(std::move(snapshot), grid->tile_rows(), grid->tile_cols());
}

util::Result<std::shared_ptr<const Snapshot>> Snapshot::WithSketchSet(
    const Snapshot& base, const std::string& path) {
  TABSKETCH_ASSIGN_OR_RETURN(core::SketchSet set, core::ReadSketchSet(path));

  // Keep the base's table/grid when the new set still fits it (the daily
  // same-shape table swap); otherwise fall back to sketch-only serving.
  const bool reuse_grid =
      base.table_ != nullptr && SetMatchesGrid(set, *base.table_->grid);
  if (base.engine_options_.refine && !reuse_grid) {
    return util::Status::FailedPrecondition(
        "refined serving needs a sketch set matching the table grid; " +
        path + " does not match");
  }

  // The successor's code tier is derived from the *new* sketches, so a
  // reload swaps sketches and codes as one unit — a request never sees
  // day-2 sketches with day-1 codes.
  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->engine_options_ = base.engine_options_;
  if (reuse_grid) snapshot->table_ = base.table_;
  snapshot->params_ = set.params;
  snapshot->cache_ =
      std::make_unique<core::FixedSketchSource>(std::move(set.sketches));
  snapshot->description_ = "sketches " + path;
  return Finish(std::move(snapshot), set.object_rows, set.object_cols);
}

util::Result<std::shared_ptr<const Snapshot>> Snapshot::Finish(
    std::shared_ptr<Snapshot> snapshot, size_t object_rows,
    size_t object_cols, std::shared_ptr<const core::QuantizedCodePool> codes) {
  const QueryEngineOptions& options = snapshot->engine_options_;
  if (codes == nullptr && options.quant != core::QuantKind::kOff) {
    TABSKETCH_ASSIGN_OR_RETURN(
        core::QuantizedCodePool pool,
        core::QuantizedCodePool::Build(snapshot->cache_.get(), options.quant,
                                       snapshot->params_, object_rows,
                                       object_cols, options.threads));
    codes = std::make_shared<const core::QuantizedCodePool>(std::move(pool));
  }
  if (codes != nullptr) {
    TABSKETCH_METRIC_GAUGE_SET("quant.pool.bytes", codes->bytes());
  }
  snapshot->codes_ = std::move(codes);

  TABSKETCH_ASSIGN_OR_RETURN(
      core::DistanceEstimator estimator,
      core::DistanceEstimator::Create(snapshot->params_));
  snapshot->estimator_ =
      std::make_unique<core::DistanceEstimator>(std::move(estimator));
  snapshot->engine_ = std::make_unique<QueryEngine>(
      snapshot->table_ != nullptr ? snapshot->table_->grid.get() : nullptr,
      snapshot->cache_.get(), snapshot->estimator_.get(), options,
      snapshot->codes_.get());
  return std::shared_ptr<const Snapshot>(std::move(snapshot));
}

SnapshotHolder::SnapshotHolder(std::shared_ptr<const Snapshot> initial)
    : current_(std::move(initial)) {}

std::shared_ptr<const Snapshot> SnapshotHolder::Current() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return current_;
}

void SnapshotHolder::Swap(std::shared_ptr<const Snapshot> next) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    current_ = std::move(next);
  }
  swaps_.fetch_add(1, std::memory_order_relaxed);
  TABSKETCH_METRIC_COUNT("serve.snapshot.swaps");
}

}  // namespace tabsketch::serve
