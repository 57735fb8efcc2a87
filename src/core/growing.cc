#include "core/growing.h"

#include <algorithm>
#include <sstream>
#include <utility>

namespace tabsketch::core {

GrowingTableSketcher::GrowingTableSketcher(Sketcher sketcher, size_t num_rows,
                                           size_t tile_rows, size_t tile_cols)
    : sketcher_(std::move(sketcher)),
      tile_rows_(tile_rows),
      tile_cols_(tile_cols),
      grid_rows_(num_rows / tile_rows),
      table_(std::make_shared<const table::Matrix>(num_rows, 0)),
      sketches_(grid_rows_) {}

util::Result<GrowingTableSketcher> GrowingTableSketcher::Create(
    const SketchParams& params, size_t num_rows, size_t tile_rows,
    size_t tile_cols) {
  TABSKETCH_ASSIGN_OR_RETURN(Sketcher sketcher, Sketcher::Create(params));
  if (tile_rows == 0 || tile_cols == 0 || tile_rows > num_rows) {
    std::ostringstream msg;
    msg << "tile " << tile_rows << "x" << tile_cols
        << " invalid for a table with " << num_rows << " rows";
    return util::Status::InvalidArgument(msg.str());
  }
  return GrowingTableSketcher(std::move(sketcher), num_rows, tile_rows,
                              tile_cols);
}

util::Status GrowingTableSketcher::AppendColumns(const table::Matrix& piece,
                                                 size_t threads) {
  if (piece.rows() != table_->rows()) {
    std::ostringstream msg;
    msg << "appended piece has " << piece.rows() << " rows, table has "
        << table_->rows();
    return util::Status::InvalidArgument(msg.str());
  }
  if (piece.cols() == 0) return util::Status::OK();

  // Grow the table into a fresh matrix (column-axis append implies a rebuild
  // of the row-major storage; the sketching work saved dominates this copy).
  // The old matrix may still serve a generation, so it is never written.
  table::Matrix grown(table_->rows(), table_->cols() + piece.cols());
  for (size_t r = 0; r < table_->rows(); ++r) {
    auto old_row = table_->Row(r);
    auto new_row = piece.Row(r);
    auto dst = grown.Row(r);
    std::copy(old_row.begin(), old_row.end(), dst.begin());
    std::copy(new_row.begin(), new_row.end(),
              dst.begin() + static_cast<std::ptrdiff_t>(old_row.size()));
  }
  table_ = std::make_shared<const table::Matrix>(std::move(grown));

  SketchNewTiles(threads);
  return util::Status::OK();
}

util::Status GrowingTableSketcher::RetireColumns(size_t tile_columns) {
  if (tile_columns > grid_cols_) {
    std::ostringstream msg;
    msg << "cannot retire " << tile_columns << " tile columns, window has "
        << grid_cols_;
    return util::Status::InvalidArgument(msg.str());
  }
  if (tile_columns == 0) return util::Status::OK();

  const size_t dropped_cols = tile_columns * tile_cols_;
  table::Matrix shrunk(table_->rows(), table_->cols() - dropped_cols);
  for (size_t r = 0; r < table_->rows(); ++r) {
    auto old_row = table_->Row(r);
    auto dst = shrunk.Row(r);
    std::copy(old_row.begin() + static_cast<std::ptrdiff_t>(dropped_cols),
              old_row.end(), dst.begin());
  }
  table_ = std::make_shared<const table::Matrix>(std::move(shrunk));

  for (auto& row : sketches_) {
    row.erase(row.begin(),
              row.begin() + static_cast<std::ptrdiff_t>(tile_columns));
  }
  grid_cols_ -= tile_columns;
  retired_tile_cols_ += tile_columns;
  return util::Status::OK();
}

void GrowingTableSketcher::SketchNewTiles(size_t threads) {
  const size_t completed_cols = table_->cols() / tile_cols_;
  if (completed_cols <= grid_cols_) return;
  const size_t new_cols = completed_cols - grid_cols_;

  // The new tiles column by column, each top to bottom, in one bulk walk;
  // each sketch is SketchOf of its tile for any thread count.
  std::vector<table::TableView> tiles;
  tiles.reserve(new_cols * grid_rows_);
  for (size_t gc = grid_cols_; gc < completed_cols; ++gc) {
    for (size_t gr = 0; gr < grid_rows_; ++gr) {
      tiles.push_back(table_->Window(gr * tile_rows_, gc * tile_cols_,
                                     tile_rows_, tile_cols_));
    }
  }
  std::vector<Sketch> fresh = sketcher_.SketchEach(tiles, threads);
  for (size_t job = 0; job < fresh.size(); ++job) {
    sketches_[job % grid_rows_].push_back(
        std::make_shared<const Sketch>(std::move(fresh[job])));
    ++sketches_computed_;
  }
  grid_cols_ = completed_cols;
}

std::vector<Sketch> GrowingTableSketcher::SketchesInGridOrder() const {
  std::vector<Sketch> out;
  out.reserve(num_tiles());
  for (size_t gr = 0; gr < grid_rows_; ++gr) {
    for (size_t gc = 0; gc < grid_cols_; ++gc) {
      out.push_back(*sketches_[gr][gc]);
    }
  }
  return out;
}

std::vector<std::shared_ptr<const Sketch>>
GrowingTableSketcher::SketchSharesInGridOrder() const {
  std::vector<std::shared_ptr<const Sketch>> out;
  out.reserve(num_tiles());
  for (size_t gr = 0; gr < grid_rows_; ++gr) {
    for (size_t gc = 0; gc < grid_cols_; ++gc) {
      out.push_back(sketches_[gr][gc]);
    }
  }
  return out;
}

}  // namespace tabsketch::core
