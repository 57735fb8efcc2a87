#include "core/ondemand.h"

#include "util/trace.h"

namespace tabsketch::core {

std::vector<Sketch> SketchAllTilesParallel(const Sketcher& sketcher,
                                           const table::TileGrid& grid,
                                           size_t threads) {
  TABSKETCH_TRACE_SPAN("sketcher.sketch_tiles");
  std::vector<table::TableView> tiles;
  tiles.reserve(grid.num_tiles());
  for (size_t t = 0; t < grid.num_tiles(); ++t) tiles.push_back(grid.Tile(t));
  return sketcher.SketchEach(tiles, threads);
}

}  // namespace tabsketch::core
