#include "serve/ingest.h"

#include <sstream>
#include <utility>
#include <vector>

#include "core/sketch_cache.h"
#include "table/table_io.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/timer.h"

namespace tabsketch::serve {
namespace {

void UpdateWindowGauges(const StreamingIngest::WindowStats& window) {
  TABSKETCH_METRIC_GAUGE_SET("ingest.window.tile_cols", window.grid_cols);
  TABSKETCH_METRIC_GAUGE_SET("ingest.window.start_col",
                             window.start_tile_col);
  TABSKETCH_METRIC_GAUGE_SET("ingest.window.pending_cols",
                             window.pending_cols);
}

}  // namespace

StreamingIngest::StreamingIngest(core::GrowingTableSketcher store,
                                 SnapshotSpec spec)
    : store_(std::move(store)), spec_(std::move(spec)) {}

util::Result<std::unique_ptr<StreamingIngest>> StreamingIngest::Create(
    const SnapshotSpec& spec) {
  if (spec.table_path.empty()) {
    return util::Status::InvalidArgument(
        "streaming ingest needs a table to seed the window");
  }
  if (!spec.sketches_path.empty()) {
    return util::Status::InvalidArgument(
        "streaming ingest computes its own sketches; drop the sketch set");
  }
  if (spec.cache_bytes != 0) {
    return util::Status::InvalidArgument(
        "streaming ingest pins every window sketch; a cache budget does not "
        "apply");
  }
  TABSKETCH_ASSIGN_OR_RETURN(const table::Matrix seed,
                             table::ReadBinary(spec.table_path));
  TABSKETCH_ASSIGN_OR_RETURN(
      core::GrowingTableSketcher store,
      core::GrowingTableSketcher::Create(spec.params, seed.rows(),
                                         spec.tile_rows, spec.tile_cols));
  std::unique_ptr<StreamingIngest> ingest(
      new StreamingIngest(std::move(store), spec));
  std::lock_guard<std::mutex> lock(ingest->mutex_);
  TABSKETCH_RETURN_IF_ERROR(
      ingest->store_.AppendColumns(seed, spec.engine.threads));
  if (spec.engine.refine && ingest->store_.num_tiles() == 0) {
    return util::Status::FailedPrecondition(
        "refined streaming serving needs at least one completed tile column "
        "in the seed table");
  }
  bool rebuilt = false;
  TABSKETCH_ASSIGN_OR_RETURN(ingest->initial_,
                             ingest->BuildSnapshotLocked({}, &rebuilt));
  UpdateWindowGauges(ingest->StatsLocked());
  return ingest;
}

StreamingIngest::WindowStats StreamingIngest::StatsLocked() const {
  WindowStats stats;
  stats.grid_rows = store_.grid_rows();
  stats.grid_cols = store_.grid_cols();
  stats.num_tiles = store_.num_tiles();
  stats.pending_cols = store_.pending_cols();
  stats.start_tile_col = store_.retired_tile_cols();
  stats.sketches_computed = store_.sketches_computed();
  return stats;
}

StreamingIngest::WindowStats StreamingIngest::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return StatsLocked();
}

util::Result<std::shared_ptr<const Snapshot>>
StreamingIngest::BuildSnapshotLocked(std::vector<size_t> base_of,
                                     bool* codes_rebuilt) {
  *codes_rebuilt = false;
  // Taken, not read: if this build fails, the base/window pairing is unknown
  // and the next build re-derives the codes from scratch rather than risk a
  // stale mapping.
  const std::shared_ptr<const core::QuantizedCodePool> base =
      std::move(codes_base_);
  std::vector<std::shared_ptr<const core::Sketch>> shares =
      store_.SketchSharesInGridOrder();

  std::shared_ptr<Snapshot> snapshot(new Snapshot());
  snapshot->engine_options_ = spec_.engine;
  snapshot->params_ = spec_.params;

  // Refine reads the store's own window matrix, which the store never
  // writes once handed out; the sketches are shared the same way.
  if (store_.table().cols() >= store_.tile_cols()) {
    TABSKETCH_ASSIGN_OR_RETURN(
        snapshot->table_,
        Snapshot::TableData::Over(store_.shared_table(), store_.tile_rows(),
                                  store_.tile_cols()));
    TABSKETCH_CHECK(snapshot->table_->grid->num_tiles() == shares.size())
        << "window grid disagrees with the sketch store";
  } else if (spec_.engine.refine) {
    return util::Status::FailedPrecondition(
        "refined streaming serving needs at least one completed tile "
        "column");
  }

  // A successor copies its surviving code rows; the first generation, and
  // the one after a failed build, get theirs from Finish.
  std::shared_ptr<const core::QuantizedCodePool> codes;
  if (base != nullptr && !base_of.empty()) {
    auto sketch_of = [&shares](size_t i) -> std::span<const double> {
      return shares[i]->values;
    };
    TABSKETCH_ASSIGN_OR_RETURN(
        core::QuantizedCodePool pool,
        core::QuantizedCodePool::BuildSuccessor(*base, sketch_of, base_of,
                                                codes_rebuilt));
    codes = std::make_shared<const core::QuantizedCodePool>(std::move(pool));
  }

  snapshot->cache_ =
      std::make_unique<core::FixedSketchSource>(std::move(shares));
  std::ostringstream description;
  description << "stream " << spec_.table_path << " tile-cols ["
              << store_.retired_tile_cols() << ", "
              << store_.retired_tile_cols() + store_.grid_cols() << ")";
  snapshot->description_ = description.str();
  TABSKETCH_ASSIGN_OR_RETURN(
      std::shared_ptr<const Snapshot> finished,
      Snapshot::Finish(std::move(snapshot), store_.tile_rows(),
                       store_.tile_cols(), std::move(codes)));
  codes_base_ = finished->codes_;
  return finished;
}

util::Result<StreamingIngest::AppendResult> StreamingIngest::Append(
    const std::string& path, SnapshotHolder* holder) {
  util::WallTimer timer;
  std::lock_guard<std::mutex> lock(mutex_);
  TABSKETCH_ASSIGN_OR_RETURN(const table::Matrix piece,
                             table::ReadBinary(path));
  const size_t prev_cols = store_.grid_cols();
  const size_t prev_tiles = store_.num_tiles();
  TABSKETCH_RETURN_IF_ERROR(
      store_.AppendColumns(piece, spec_.engine.threads));

  // Window tile (gr, gc) survives from the previous generation iff its
  // tile column existed before the append; appends never shift surviving
  // columns, but the row-major tile *indices* do shift when grid_cols
  // grows — base_of re-derives them.
  const size_t cols = store_.grid_cols();
  std::vector<size_t> base_of(store_.num_tiles());
  for (size_t i = 0; i < base_of.size(); ++i) {
    const size_t gr = i / cols;
    const size_t gc = i % cols;
    base_of[i] = gc < prev_cols ? gr * prev_cols + gc
                                : core::QuantizedCodePool::kNewTile;
  }

  AppendResult result;
  bool rebuilt = false;
  TABSKETCH_ASSIGN_OR_RETURN(
      result.snapshot, BuildSnapshotLocked(std::move(base_of), &rebuilt));
  if (holder != nullptr) holder->Swap(result.snapshot);
  result.appended_cols = piece.cols();
  result.new_tiles = store_.num_tiles() - prev_tiles;
  result.reused_tiles = prev_tiles;
  result.codes_rebuilt = rebuilt;
  result.window = StatsLocked();

  TABSKETCH_METRIC_COUNT("ingest.appends");
  TABSKETCH_METRIC_COUNT_N("ingest.columns.appended", result.appended_cols);
  TABSKETCH_METRIC_COUNT_N("ingest.tiles.sketched", result.new_tiles);
  TABSKETCH_METRIC_COUNT_N("ingest.tiles.reused", result.reused_tiles);
  if (rebuilt) TABSKETCH_METRIC_COUNT("ingest.codes.rebuilt");
  UpdateWindowGauges(result.window);
  TABSKETCH_METRIC_OBSERVE("ingest.append.latency.seconds",
                           timer.ElapsedSeconds());
  return result;
}

util::Result<StreamingIngest::RetireResult> StreamingIngest::Retire(
    size_t tile_columns, SnapshotHolder* holder) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (spec_.engine.refine && tile_columns == store_.grid_cols()) {
    return util::Status::FailedPrecondition(
        "cannot retire the whole window under refined serving");
  }
  const size_t prev_cols = store_.grid_cols();
  TABSKETCH_RETURN_IF_ERROR(store_.RetireColumns(tile_columns));

  // Every surviving tile had a predecessor, shifted left by the retired
  // tile columns within its (unchanged-width) previous grid row.
  const size_t cols = store_.grid_cols();
  std::vector<size_t> base_of(store_.num_tiles());
  for (size_t i = 0; i < base_of.size(); ++i) {
    const size_t gr = i / cols;
    const size_t gc = i % cols;
    base_of[i] = gr * prev_cols + gc + tile_columns;
  }

  RetireResult result;
  bool rebuilt = false;
  TABSKETCH_ASSIGN_OR_RETURN(
      result.snapshot, BuildSnapshotLocked(std::move(base_of), &rebuilt));
  if (holder != nullptr) holder->Swap(result.snapshot);
  result.retired_tile_cols = tile_columns;
  result.reused_tiles = store_.num_tiles();
  result.window = StatsLocked();

  TABSKETCH_METRIC_COUNT("ingest.retires");
  TABSKETCH_METRIC_COUNT_N("ingest.tiles.reused", result.reused_tiles);
  UpdateWindowGauges(result.window);
  return result;
}

}  // namespace tabsketch::serve
