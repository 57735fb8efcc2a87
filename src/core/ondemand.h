#ifndef TABSKETCH_CORE_ONDEMAND_H_
#define TABSKETCH_CORE_ONDEMAND_H_

#include <cstddef>
#include <vector>

#include "core/sketcher.h"
#include "table/tiling.h"

namespace tabsketch::core {

/// Eagerly sketches every tile of `grid` — the paper's scenario (1), where
/// sketch construction is a separately-timed preprocessing phase — over
/// `threads` worker threads: Sketcher::SketchEach's bulk walk, which sums
/// groups of tiles against each block of kernels. Identical output for any
/// thread count. Scenario (2), sketching on demand, is LruSketchCache
/// (core/lru_sketch_cache.h).
std::vector<Sketch> SketchAllTilesParallel(const Sketcher& sketcher,
                                           const table::TileGrid& grid,
                                           size_t threads = 1);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_ONDEMAND_H_
