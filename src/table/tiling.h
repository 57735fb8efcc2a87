#ifndef TABSKETCH_TABLE_TILING_H_
#define TABSKETCH_TABLE_TILING_H_

#include <cstddef>

#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::table {

/// Partition of a Matrix into a grid of disjoint, equally sized tiles — the
/// "objects" that the mining experiments compare and cluster (e.g. a day of
/// data for a group of neighboring stations).
///
/// Tiles are indexed in row-major order: tile t covers rows
/// [ (t / grid_cols) * tile_rows , ... ) and the analogous column range.
/// Trailing rows/columns that do not fill a whole tile are ignored, matching
/// the paper's practice of dividing data "into tiles of a meaningful size".
class TileGrid {
 public:
  /// Creates a grid of tile_rows x tile_cols tiles over `parent`.
  /// Returns InvalidArgument if a tile dimension is zero or exceeds the
  /// parent's dimensions. `parent` must outlive the grid.
  static util::Result<TileGrid> Create(const Matrix* parent, size_t tile_rows,
                                       size_t tile_cols);

  size_t tile_rows() const { return tile_rows_; }
  size_t tile_cols() const { return tile_cols_; }
  /// Elements per tile.
  size_t tile_size() const { return tile_rows_ * tile_cols_; }
  /// Number of tile rows / cols in the grid.
  size_t grid_rows() const { return grid_rows_; }
  size_t grid_cols() const { return grid_cols_; }
  /// Total number of tiles.
  size_t num_tiles() const { return grid_rows_ * grid_cols_; }

  /// Top-left data coordinates of tile `index`.
  size_t TileOriginRow(size_t index) const {
    TABSKETCH_CHECK(index < num_tiles());
    return (index / grid_cols_) * tile_rows_;
  }
  size_t TileOriginCol(size_t index) const {
    TABSKETCH_CHECK(index < num_tiles());
    return (index % grid_cols_) * tile_cols_;
  }

  /// Read-only view of tile `index`.
  TableView Tile(size_t index) const {
    return parent_->Window(TileOriginRow(index), TileOriginCol(index),
                           tile_rows_, tile_cols_);
  }

 private:
  TileGrid(const Matrix* parent, size_t tile_rows, size_t tile_cols)
      : parent_(parent),
        tile_rows_(tile_rows),
        tile_cols_(tile_cols),
        grid_rows_(parent->rows() / tile_rows),
        grid_cols_(parent->cols() / tile_cols) {}

  const Matrix* parent_;
  size_t tile_rows_;
  size_t tile_cols_;
  size_t grid_rows_;
  size_t grid_cols_;
};

}  // namespace tabsketch::table

#endif  // TABSKETCH_TABLE_TILING_H_
