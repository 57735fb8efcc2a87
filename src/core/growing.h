#ifndef TABSKETCH_CORE_GROWING_H_
#define TABSKETCH_CORE_GROWING_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::core {

/// Maintains tile sketches for a sliding window over a table that grows
/// along the time (column) axis — the paper's "stitching consecutive days"
/// workflow, done incrementally: appending a day's columns sketches only
/// the newly completed tiles, retiring the oldest tile columns drops their
/// sketches, and nothing surviving is ever touched or recomputed. Because
/// sketches are deterministic functions of tile content and the tile grid
/// is anchored at the window's first column (retirement only removes whole
/// tile columns, so surviving tile boundaries never shift), the window's
/// sketches are byte-identical to a batch SketchAllTilesParallel over the
/// same region — the invariant the streaming serve path builds on.
///
/// Tiles are the cells of the fixed tile_rows x tile_cols grid over the
/// current window; columns that do not yet fill a whole tile column stay
/// pending until later appends complete them.
class GrowingTableSketcher {
 public:
  /// `num_rows` is fixed for the lifetime (the station axis); tiles must
  /// divide it... more precisely tile_rows <= num_rows; trailing rows that
  /// do not fill a tile are ignored, as in TileGrid.
  static util::Result<GrowingTableSketcher> Create(const SketchParams& params,
                                                   size_t num_rows,
                                                   size_t tile_rows,
                                                   size_t tile_cols);

  /// Appends `piece` (same row count as the table) to the right; sketches
  /// any tile columns the append completes, fanning the new tiles over
  /// `threads` workers (bit-identical output for any thread count).
  util::Status AppendColumns(const table::Matrix& piece, size_t threads = 1);

  /// Drops the window's oldest `tile_columns` completed tile columns (and
  /// their table columns). InvalidArgument when the window holds fewer.
  /// Retiring everything is allowed: the window keeps only pending columns
  /// (if any) and grows again on the next append.
  util::Status RetireColumns(size_t tile_columns);

  const table::Matrix& table() const { return *table_; }
  /// The same window table, shared: a serving generation holds it for exact
  /// refine instead of copying it. The store never writes a matrix it has
  /// handed out (every append and retire builds a fresh one), so a holder's
  /// bytes stay fixed after later appends and retires.
  std::shared_ptr<const table::Matrix> shared_table() const { return table_; }
  const SketchParams& params() const { return sketcher_.params(); }
  size_t tile_rows() const { return tile_rows_; }
  size_t tile_cols() const { return tile_cols_; }

  /// Tile-grid dimensions over the *completed* region of the window.
  size_t grid_rows() const { return grid_rows_; }
  size_t grid_cols() const { return grid_cols_; }
  size_t num_tiles() const { return grid_rows_ * grid_cols_; }

  /// Columns appended but not yet part of a completed tile column.
  size_t pending_cols() const {
    return table_->cols() - grid_cols_ * tile_cols_;
  }

  /// Tile columns retired since creation; the window's first tile column is
  /// tile column `retired_tile_cols()` of the full (never-materialized)
  /// stream.
  size_t retired_tile_cols() const { return retired_tile_cols_; }

  /// All completed tile sketches in TileGrid row-major order (tile index =
  /// grid_row * grid_cols() + grid_col), matching what
  /// SketchAllTilesParallel over the completed window region would produce.
  std::vector<Sketch> SketchesInGridOrder() const;

  /// Same order, but sharing ownership of the stored sketches — successor
  /// serve::Snapshot generations hold these pointers so surviving tiles are
  /// literally the same objects across appends/retires (zero copies, zero
  /// recomputation).
  std::vector<std::shared_ptr<const Sketch>> SketchSharesInGridOrder() const;

  /// Total tile sketches computed since creation. Equals
  /// grid_rows() * (grid_cols() + retired_tile_cols()) — i.e. exactly one
  /// computation per distinct tile ever completed, never more.
  size_t sketches_computed() const { return sketches_computed_; }

 private:
  GrowingTableSketcher(Sketcher sketcher, size_t num_rows, size_t tile_rows,
                       size_t tile_cols);

  /// Sketches tiles of any newly completed tile columns.
  void SketchNewTiles(size_t threads);

  Sketcher sketcher_;
  size_t tile_rows_;
  size_t tile_cols_;
  size_t grid_rows_;
  size_t grid_cols_ = 0;
  size_t retired_tile_cols_ = 0;
  /// Replaced, never written, once handed out (see shared_table()).
  std::shared_ptr<const table::Matrix> table_;
  /// sketches_[grid_row][grid_col]; shared so snapshot generations can
  /// alias them (see SketchSharesInGridOrder).
  std::vector<std::vector<std::shared_ptr<const Sketch>>> sketches_;
  size_t sketches_computed_ = 0;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_GROWING_H_
