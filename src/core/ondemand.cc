#include "core/ondemand.h"

#include "util/parallel.h"
#include "util/trace.h"

namespace tabsketch::core {

std::vector<Sketch> SketchAllTilesParallel(const Sketcher& sketcher,
                                           const table::TileGrid& grid,
                                           size_t threads) {
  TABSKETCH_TRACE_SPAN("sketcher.sketch_tiles");
  // The first SketchOf of the tile shape generates its kernels; the other
  // workers wait for them (Sketcher generates each shape once).
  std::vector<Sketch> out(grid.num_tiles());
  util::ParallelFor(grid.num_tiles(), threads, [&](size_t t) {
    out[t] = sketcher.SketchOf(grid.Tile(t));
  });
  return out;
}

}  // namespace tabsketch::core
