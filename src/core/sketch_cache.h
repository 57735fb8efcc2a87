#ifndef TABSKETCH_CORE_SKETCH_CACHE_H_
#define TABSKETCH_CORE_SKETCH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <vector>

#include "core/sketcher.h"

namespace tabsketch::core {

/// Interface over "the sketch of tile `index`" with a pluggable retention
/// policy. Two implementations: LruSketchCache computes on demand and keeps
/// what its byte budget allows (0 keeps every tile), and FixedSketchSource
/// serves sketches materialized up front (e.g. a SketchSet read from disk).
/// Both derive their sketches from the same deterministic Sketcher family,
/// so callers get bit-identical values whichever source is plugged in —
/// retention only moves compute cost, never results.
///
/// All implementations are safe for concurrent Get() calls.
class TileSketchCache {
 public:
  virtual ~TileSketchCache() = default;

  /// The sketch of tile `index`. Shared ownership: the returned pointer
  /// stays valid even if the entry is evicted concurrently. When `computed`
  /// is non-null it is set to whether this lookup computed the sketch (a
  /// miss) instead of serving a retained or preloaded one; the serve path
  /// threads these flags into per-request RequestStats
  /// (serve/query_engine.h) so the slow-query log can say which requests
  /// paid compute.
  virtual std::shared_ptr<const Sketch> Get(size_t index,
                                            bool* computed = nullptr) = 0;

  /// Number of tiles addressable through this cache.
  virtual size_t num_tiles() const = 0;

  /// Sketches computed so far (lookups not served from retained entries).
  virtual size_t computed() const = 0;

  /// Lookups served without computing.
  virtual size_t hits() const = 0;
};

/// Serves sketches that were materialized up front (the paper's scenario (1):
/// a precomputed sketch set, typically read back from disk). Every lookup is
/// a hit; nothing is ever computed or evicted.
class FixedSketchSource : public TileSketchCache {
 public:
  explicit FixedSketchSource(std::vector<Sketch> sketches);
  /// Aliasing variant: serves sketches owned elsewhere (the streaming serve
  /// path, where successive snapshot generations share surviving tile
  /// sketches instead of copying them). Every pointer must be non-null.
  explicit FixedSketchSource(
      std::vector<std::shared_ptr<const Sketch>> sketches);

  std::shared_ptr<const Sketch> Get(size_t index,
                                    bool* computed = nullptr) override;
  size_t num_tiles() const override { return sketches_.size(); }
  size_t computed() const override { return 0; }
  size_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }

 private:
  std::vector<std::shared_ptr<const Sketch>> sketches_;
  std::atomic<size_t> hits_{0};
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SKETCH_CACHE_H_
