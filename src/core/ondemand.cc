#include "core/ondemand.h"

#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace tabsketch::core {

bool OnDemandSketchCache::Materialize(size_t index) {
  TABSKETCH_CHECK(index < sketches_.size())
      << "tile " << index << " out of " << sketches_.size();
  bool missed = false;
  std::call_once(once_[index], [&] {
    sketches_[index] = std::make_shared<const Sketch>(
        sketcher_->SketchOf(grid_->Tile(index)));
    computed_.fetch_add(1, std::memory_order_relaxed);
    missed = true;
  });
  if (missed) {
    TABSKETCH_METRIC_COUNT("ondemand.cache.misses");
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    TABSKETCH_METRIC_COUNT("ondemand.cache.hits");
  }
  return missed;
}

const Sketch& OnDemandSketchCache::ForTile(size_t index) {
  Materialize(index);
  return *sketches_[index];
}

std::shared_ptr<const Sketch> OnDemandSketchCache::Get(size_t index) {
  Materialize(index);
  return sketches_[index];
}

std::shared_ptr<const Sketch> OnDemandSketchCache::GetTracked(
    size_t index, bool* computed) {
  *computed = Materialize(index);
  return sketches_[index];
}

void OnDemandSketchCache::Clear() {
  size_t evicted = 0;
  for (const auto& slot : sketches_) evicted += slot != nullptr ? 1 : 0;
  TABSKETCH_METRIC_COUNT_N("ondemand.cache.evictions", evicted);
  for (auto& slot : sketches_) slot.reset();
  once_ = std::vector<std::once_flag>(sketches_.size());
  computed_.store(0, std::memory_order_relaxed);
  hits_.store(0, std::memory_order_relaxed);
}

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
