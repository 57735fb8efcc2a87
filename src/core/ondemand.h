#ifndef TABSKETCH_CORE_ONDEMAND_H_
#define TABSKETCH_CORE_ONDEMAND_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "table/tiling.h"
#include "util/result.h"

namespace tabsketch::core {

/// Lazily materialized sketches for the tiles of a TileGrid — the paper's
/// scenario (2): "sketches are not available and so they have to be computed
/// on demand", then stored for reuse, so the first comparison of a tile pays
/// O(k * tile_size) and every later comparison pays O(k).
///
/// Grow-only and unbounded: once computed, a sketch stays resident until
/// Clear(). For serving workloads that must bound memory, use the
/// LruSketchCache sibling behind the shared TileSketchCache interface.
///
/// Thread-safe: each slot is filled exactly once under a per-slot
/// std::once_flag, so concurrent ForTile calls (the parallel k-means
/// assignment loop) are safe and the cached sketch is bit-identical no matter
/// which thread computed it. Clear() requires exclusive access. The grid and
/// the sketcher must outlive the cache.
class OnDemandSketchCache : public TileSketchCache {
 public:
  OnDemandSketchCache(const Sketcher* sketcher, const table::TileGrid* grid)
      : sketcher_(sketcher),
        grid_(grid),
        sketches_(grid->num_tiles()),
        once_(grid->num_tiles()) {}

  /// The sketch of tile `index`, computing and caching it on first access.
  /// Safe to call concurrently; the returned reference stays valid until
  /// Clear().
  const Sketch& ForTile(size_t index);

  /// TileSketchCache interface: same lookup with shared ownership.
  std::shared_ptr<const Sketch> Get(size_t index) override;
  std::shared_ptr<const Sketch> GetTracked(size_t index,
                                           bool* computed) override;

  size_t num_tiles() const override { return sketches_.size(); }

  /// Number of sketches computed so far (cache misses).
  size_t computed() const override {
    return computed_.load(std::memory_order_relaxed);
  }
  /// Number of lookups served from the cache.
  size_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }

  /// Drops all cached sketches and counters. Not safe to call concurrently
  /// with ForTile.
  void Clear();

 private:
  /// Fills slot `index` if this is the first access; bumps hit/miss tallies.
  /// Returns whether this call computed the sketch (a miss).
  bool Materialize(size_t index);

  const Sketcher* sketcher_;
  const table::TileGrid* grid_;
  // Shared ownership per slot so Get() survives a concurrent Clear().
  std::vector<std::shared_ptr<const Sketch>> sketches_;
  // One flag per slot; a vector (not deque) is fine because the slot count
  // is fixed at construction and Clear() replaces the whole vector.
  std::vector<std::once_flag> once_;
  std::atomic<size_t> computed_{0};
  std::atomic<size_t> hits_{0};
};

/// Eagerly sketches every tile of `grid` — the paper's scenario (1), where
/// sketch construction is a separately-timed preprocessing phase — over
/// `threads` worker threads (tiles are independent and Sketcher is
/// thread-safe). Identical output for any thread count.
std::vector<Sketch> SketchAllTilesParallel(const Sketcher& sketcher,
                                           const table::TileGrid& grid,
                                           size_t threads = 1);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_ONDEMAND_H_
