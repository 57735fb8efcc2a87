#include "core/lru_sketch_cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tabsketch::core {
namespace {

/// Records the residency high-water mark into the lru.cache.peak_bytes gauge
/// (running-maximum semantics; there is no macro for Gauge::Max).
void RecordPeakBytesMetric(size_t peak) {
  if (util::MetricsRegistry::Enabled()) {
    static util::Gauge* const gauge =
        util::MetricsRegistry::Global().GetGauge("lru.cache.peak_bytes");
    gauge->Max(static_cast<double>(peak));
  }
}

}  // namespace

size_t LruSketchCache::EntryBytes(size_t sketch_k) {
  // Payload plus the bookkeeping a resident entry actually costs: the Entry
  // node (links + shared_ptr), the Sketch header, its heap control block and
  // an estimate of the hash-map node. Approximate but stable, so budget math
  // is portable and tests can be exact.
  constexpr size_t kMapNodeOverhead = 64;
  return sketch_k * sizeof(double) + sizeof(Entry) + sizeof(Sketch) +
         kMapNodeOverhead;
}

LruSketchCache::LruSketchCache(const Sketcher* sketcher,
                               const table::TileGrid* grid,
                               const Options& options)
    : sketcher_(sketcher),
      grid_(grid),
      capacity_bytes_(options.capacity_bytes),
      entry_bytes_(EntryBytes(sketcher->params().k)),
      shards_(std::max<size_t>(options.shards, 1)),
      shard_budget_(capacity_bytes_ == 0
                        ? std::numeric_limits<size_t>::max()
                        : capacity_bytes_ / shards_.size()) {
  for (Shard& shard : shards_) {
    shard.lru.prev = &shard.lru;
    shard.lru.next = &shard.lru;
  }
  TABSKETCH_METRIC_GAUGE_SET("lru.cache.capacity_bytes", capacity_bytes_);
}

LruSketchCache::~LruSketchCache() = default;

void LruSketchCache::Unlink(Entry* entry) {
  entry->prev->next = entry->next;
  entry->next->prev = entry->prev;
  entry->prev = nullptr;
  entry->next = nullptr;
}

void LruSketchCache::PushFront(Shard* shard, Entry* entry) {
  entry->next = shard->lru.next;
  entry->prev = &shard->lru;
  shard->lru.next->prev = entry;
  shard->lru.next = entry;
}

size_t LruSketchCache::EvictOverBudget(Shard* shard) {
  size_t freed = 0;
  size_t evicted = 0;
  while (shard->bytes > shard_budget_ && shard->lru.prev != &shard->lru) {
    Entry* coldest = shard->lru.prev;
    Unlink(coldest);
    shard->bytes -= entry_bytes_;
    freed += entry_bytes_;
    ++evicted;
    // Callers still holding the entry or its sketch keep them alive; only
    // the cache's reference dies here.
    shard->entries.erase(coldest->tile);
  }
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    TABSKETCH_METRIC_COUNT_N("lru.cache.evictions", evicted);
  }
  return freed;
}

void LruSketchCache::NoteBytesDelta(size_t added, size_t removed) {
  size_t now;
  if (added >= removed) {
    now = bytes_.fetch_add(added - removed, std::memory_order_relaxed) +
          (added - removed);
  } else {
    now = bytes_.fetch_sub(removed - added, std::memory_order_relaxed) -
          (removed - added);
  }
  // CAS running maximum; samples are taken after eviction restored the
  // budget invariant, so the recorded peak reflects steady-state residency.
  size_t peak = peak_bytes_.load(std::memory_order_relaxed);
  while (now > peak &&
         !peak_bytes_.compare_exchange_weak(peak, now,
                                            std::memory_order_relaxed)) {
  }
  RecordPeakBytesMetric(peak_bytes_.load(std::memory_order_relaxed));
}

std::shared_ptr<const Sketch> LruSketchCache::Get(size_t index,
                                                  bool* computed) {
  TABSKETCH_CHECK(index < grid_->num_tiles())
      << "tile " << index << " out of " << grid_->num_tiles();
  Shard& shard = ShardFor(index);
  std::shared_ptr<const Sketch> sketch;
  // Held only while the entry's sketch is not built yet, so an eviction in
  // the meantime cannot free it.
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  size_t removed = 0;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    std::shared_ptr<Entry>& slot = shard.entries[index];
    if (slot == nullptr) {
      // Miss: insert the entry before computing, so concurrent lookups of
      // this tile find it and wait on its once_flag instead of computing.
      slot = std::make_shared<Entry>();
      slot->tile = index;
      shard.bytes += entry_bytes_;
      inserted = true;
    } else {
      Unlink(slot.get());
    }
    PushFront(&shard, slot.get());
    sketch = slot->sketch;
    if (sketch == nullptr) entry = slot;
    // Last, because eviction may erase `slot` itself.
    if (inserted) removed = EvictOverBudget(&shard);
  }
  if (inserted) NoteBytesDelta(entry_bytes_, removed);

  bool ran = false;
  if (sketch == nullptr) {
    // Outside the shard lock, so a slow sketch never serializes the shard.
    std::call_once(entry->once, [&] {
      std::shared_ptr<const Sketch> built;
      {
        TABSKETCH_TRACE_SPAN("lru.cache.compute");
        built = std::make_shared<const Sketch>(
            sketcher_->SketchOf(grid_->Tile(index)));
      }
      std::lock_guard<std::mutex> lock(shard.mutex);
      entry->sketch = std::move(built);
      ran = true;
    });
    // call_once orders the one write before this read; none follows it.
    sketch = entry->sketch;
  }
  if (ran) {
    computed_.fetch_add(1, std::memory_order_relaxed);
    TABSKETCH_METRIC_COUNT("lru.cache.misses");
  } else {
    hits_.fetch_add(1, std::memory_order_relaxed);
    TABSKETCH_METRIC_COUNT("lru.cache.hits");
  }
  if (computed != nullptr) *computed = ran;
  return sketch;
}

}  // namespace tabsketch::core
