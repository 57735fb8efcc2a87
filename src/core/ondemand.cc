#include "core/ondemand.h"

#include "util/parallel.h"
#include "util/trace.h"

namespace tabsketch::core {

std::vector<Sketch> SketchAllTilesParallel(const Sketcher& sketcher,
                                           const table::TileGrid& grid,
                                           size_t threads) {
  TABSKETCH_TRACE_SPAN("sketcher.sketch_tiles");
  // Pre-generate the shared random matrices once so workers only read the
  // cache (SketchOf is thread-safe regardless; this avoids a duplicate
  // generation race burning CPU).
  sketcher.MatricesFor(grid.tile_rows(), grid.tile_cols());
  std::vector<Sketch> out(grid.num_tiles());
  util::ParallelFor(grid.num_tiles(), threads, [&](size_t t) {
    out[t] = sketcher.SketchOf(grid.Tile(t));
  });
  return out;
}

}  // namespace tabsketch::core
