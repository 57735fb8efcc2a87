#ifndef TABSKETCH_CORE_LRU_SKETCH_CACHE_H_
#define TABSKETCH_CORE_LRU_SKETCH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "table/tiling.h"

namespace tabsketch::core {

/// Memory-budgeted LRU tile-sketch cache — the library's one sketch source
/// that computes. It serves the paper's scenario (2), "sketches are not
/// available and so they have to be computed on demand" and then kept for
/// reuse, so the first comparison of a tile pays O(k * tile_size) and every
/// later one O(k); a byte budget lets a long-lived query workload over a
/// large grid keep its working set hot under a memory cap instead.
///
/// Budget: `capacity_bytes == 0` keeps every computed tile (what
/// `--cache-bytes=0` means). After every insert the cache evicts from its
/// cold end until it is back under the budget, so residency never settles
/// above it. A budget too small for even one entry degrades to
/// compute-and-release (every lookup computes and its entry is evicted at
/// once).
///
/// Structure (the leveldb LRUCache shape): one mutex guards one hash map and
/// one intrusive circular LRU list threaded through the entries. A lookup
/// holds it for one hash probe and, under a positive budget, one list
/// splice; a keep-all cache keeps no list.
///
/// Compute once: a miss inserts an empty entry under the lock and builds the
/// sketch outside it under the entry's std::once_flag, so concurrent lookups
/// of one tile compute it once and later callers wait for the first. Every
/// lookup either computes (computed()) or is served (hits()), so hits() +
/// computed() == lookups; a tile is computed again only after its entry was
/// evicted. Sketches are deterministic functions of (family, tile), so
/// lookups are bit-identical for every budget and thread count — eviction
/// can only cost recompute time, never change a value.
///
/// Observability (all behind the usual runtime metrics gate):
/// counters lru.cache.{hits,misses,evictions}, gauges
/// lru.cache.{capacity_bytes,peak_bytes}, and a lru.cache.compute trace span
/// around every sketch construction.
class LruSketchCache : public TileSketchCache {
 public:
  /// `capacity_bytes` bounds the resident entries (payload + bookkeeping,
  /// see EntryBytes()); 0 keeps every tile. `sketcher` and `grid` must
  /// outlive the cache.
  LruSketchCache(const Sketcher* sketcher, const table::TileGrid* grid,
                 size_t capacity_bytes);
  ~LruSketchCache() override;

  LruSketchCache(const LruSketchCache&) = delete;
  LruSketchCache& operator=(const LruSketchCache&) = delete;

  std::shared_ptr<const Sketch> Get(size_t index,
                                    bool* computed = nullptr) override;
  size_t num_tiles() const override { return grid_->num_tiles(); }
  size_t computed() const override {
    return computed_.load(std::memory_order_relaxed);
  }
  size_t hits() const override {
    return hits_.load(std::memory_order_relaxed);
  }

  /// Entries dropped to stay under the budget so far.
  size_t evictions() const;
  /// Bytes currently resident.
  size_t bytes_used() const;
  /// High-water mark of bytes_used() after each insert's eviction pass,
  /// i.e. steady-state residency.
  size_t peak_bytes() const;
  size_t capacity_bytes() const { return capacity_bytes_; }

  /// Accounted bytes per cached entry for a sketch of length `sketch_k`:
  /// payload plus list/map bookkeeping. Exposed so tests (and budget
  /// pickers) can do exact eviction math.
  static size_t EntryBytes(size_t sketch_k);

 private:
  struct Entry {
    size_t tile = 0;
    /// Guards the entry's one sketch construction.
    std::once_flag once;
    /// Null until computed; written once, under the cache mutex.
    std::shared_ptr<const Sketch> sketch;
    /// Intrusive circular LRU links; the sentinel `lru_` closes the ring
    /// (lru_.next = hottest, lru_.prev = coldest).
    Entry* prev = nullptr;
    Entry* next = nullptr;
  };

  static void Unlink(Entry* entry);
  void PushFront(Entry* entry);
  /// Evicts cold entries until residency is back under the budget. Caller
  /// holds `mutex_`.
  void EvictOverBudget();

  const Sketcher* sketcher_;
  const table::TileGrid* grid_;
  const size_t capacity_bytes_;
  /// EntryBytes(k): every sketch of one family has the same length.
  const size_t entry_bytes_;

  mutable std::mutex mutex_;
  /// Shared with lookups still computing or waiting on an entry, so
  /// eviction never frees an entry a caller is using. Guarded by `mutex_`,
  /// as are the ring and the three tallies below.
  std::unordered_map<size_t, std::shared_ptr<Entry>> entries_;
  Entry lru_;  // sentinel
  size_t bytes_ = 0;
  size_t peak_bytes_ = 0;
  size_t evictions_ = 0;

  std::atomic<size_t> computed_{0};
  std::atomic<size_t> hits_{0};
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_LRU_SKETCH_CACHE_H_
