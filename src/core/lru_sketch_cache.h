#ifndef TABSKETCH_CORE_LRU_SKETCH_CACHE_H_
#define TABSKETCH_CORE_LRU_SKETCH_CACHE_H_

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "table/tiling.h"

namespace tabsketch::core {

/// Sharded, memory-budgeted LRU tile-sketch cache — the library's one sketch
/// source that computes. It serves the paper's scenario (2), "sketches are
/// not available and so they have to be computed on demand" and then kept
/// for reuse, so the first comparison of a tile pays O(k * tile_size) and
/// every later one O(k); a byte budget lets a long-lived query workload over
/// a large grid keep its working set hot under a memory cap instead.
///
/// Budget: `capacity_bytes == 0` keeps every computed tile (what
/// `--cache-bytes=0` means). A positive budget splits evenly across shards;
/// after every insert a shard evicts from its cold end until it is back
/// under its slice, so global residency never settles above the budget. A
/// budget too small for even one entry degrades to compute-and-release
/// (every lookup computes and its entry is evicted at once).
///
/// Structure (the leveldb ShardedLRUCache shape): tile indices stripe over N
/// independent shards (tile % N), each with its own mutex, hash map and an
/// intrusive circular LRU list threaded through the entries.
///
/// Compute once: a miss inserts an empty entry under the shard lock and
/// builds the sketch outside it under the entry's std::once_flag, so
/// concurrent lookups of one tile compute it once and later callers wait for
/// the first. Every lookup either computes (computed()) or is served
/// (hits()), so hits() + computed() == lookups; a tile is computed again only
/// after its entry was evicted. Sketches are deterministic functions of
/// (family, tile), so lookups are bit-identical for every budget and thread
/// count — eviction can only cost recompute time, never change a value.
///
/// Observability (all behind the usual runtime metrics gate):
/// counters lru.cache.{hits,misses,evictions}, gauges
/// lru.cache.{capacity_bytes,peak_bytes}, and a lru.cache.compute trace span
/// around every sketch construction.
class LruSketchCache : public TileSketchCache {
 public:
  struct Options {
    /// Total byte budget across all shards (entry payload + bookkeeping,
    /// see EntryBytes()); 0 keeps every tile.
    size_t capacity_bytes = size_t{64} << 20;
    /// Mutex stripes. Clamped to >= 1; use 1 for exactly predictable
    /// whole-cache eviction order (tests), more for concurrency.
    size_t shards = 8;
  };

  /// `sketcher` and `grid` must outlive the cache.
  LruSketchCache(const Sketcher* sketcher, const table::TileGrid* grid,
                 const Options& options);
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
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Bytes currently resident across all shards.
  size_t bytes_used() const {
    return bytes_.load(std::memory_order_relaxed);
  }
  /// High-water mark of bytes_used() (sampled after each shard finished its
  /// post-insert eviction pass, i.e. steady-state residency).
  size_t peak_bytes() const {
    return peak_bytes_.load(std::memory_order_relaxed);
  }
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
    /// Null until computed; written once, under the shard mutex.
    std::shared_ptr<const Sketch> sketch;
    /// Intrusive circular LRU links; the shard's sentinel closes the ring
    /// (sentinel.next = hottest, sentinel.prev = coldest).
    Entry* prev = nullptr;
    Entry* next = nullptr;
  };

  struct Shard {
    std::mutex mutex;
    /// Shared with lookups still computing or waiting on an entry, so
    /// eviction never frees an entry a caller is using.
    std::unordered_map<size_t, std::shared_ptr<Entry>> entries;
    Entry lru;  // sentinel
    size_t bytes = 0;
  };

  Shard& ShardFor(size_t index) { return shards_[index % shards_.size()]; }
  static void Unlink(Entry* entry);
  static void PushFront(Shard* shard, Entry* entry);
  /// Evicts cold entries until `shard` is back under `shard_budget_`.
  /// Returns the bytes freed. Caller holds the shard mutex.
  size_t EvictOverBudget(Shard* shard);
  void NoteBytesDelta(size_t added, size_t removed);

  const Sketcher* sketcher_;
  const table::TileGrid* grid_;
  const size_t capacity_bytes_;
  /// EntryBytes(k): every sketch of one family has the same length.
  const size_t entry_bytes_;
  std::vector<Shard> shards_;
  /// Per-shard slice of the budget; SIZE_MAX when the budget is 0 (keep all).
  const size_t shard_budget_;

  std::atomic<size_t> computed_{0};
  std::atomic<size_t> hits_{0};
  std::atomic<size_t> evictions_{0};
  std::atomic<size_t> bytes_{0};
  std::atomic<size_t> peak_bytes_{0};
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_LRU_SKETCH_CACHE_H_
