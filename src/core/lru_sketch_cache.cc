#include "core/lru_sketch_cache.h"

#include <algorithm>
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
                               size_t capacity_bytes)
    : sketcher_(sketcher),
      grid_(grid),
      capacity_bytes_(capacity_bytes),
      entry_bytes_(EntryBytes(sketcher->params().k)) {
  lru_.prev = &lru_;
  lru_.next = &lru_;
  TABSKETCH_METRIC_GAUGE_SET("lru.cache.capacity_bytes", capacity_bytes_);
}

LruSketchCache::~LruSketchCache() = default;

size_t LruSketchCache::evictions() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return evictions_;
}

size_t LruSketchCache::bytes_used() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

size_t LruSketchCache::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return peak_bytes_;
}

void LruSketchCache::Unlink(Entry* entry) {
  entry->prev->next = entry->next;
  entry->next->prev = entry->prev;
  entry->prev = nullptr;
  entry->next = nullptr;
}

void LruSketchCache::PushFront(Entry* entry) {
  entry->next = lru_.next;
  entry->prev = &lru_;
  lru_.next->prev = entry;
  lru_.next = entry;
}

void LruSketchCache::EvictOverBudget() {
  if (capacity_bytes_ == 0) return;  // keep every tile
  size_t evicted = 0;
  while (bytes_ > capacity_bytes_ && lru_.prev != &lru_) {
    Entry* coldest = lru_.prev;
    Unlink(coldest);
    bytes_ -= entry_bytes_;
    ++evicted;
    // Callers still holding the entry or its sketch keep them alive; only
    // the cache's reference dies here.
    entries_.erase(coldest->tile);
  }
  if (evicted > 0) {
    evictions_ += evicted;
    TABSKETCH_METRIC_COUNT_N("lru.cache.evictions", evicted);
  }
}

std::shared_ptr<const Sketch> LruSketchCache::Get(size_t index,
                                                  bool* computed) {
  TABSKETCH_CHECK(index < grid_->num_tiles())
      << "tile " << index << " out of " << grid_->num_tiles();
  std::shared_ptr<const Sketch> sketch;
  // Held only while the entry's sketch is not built yet, so an eviction in
  // the meantime cannot free it.
  std::shared_ptr<Entry> entry;
  bool inserted = false;
  size_t peak = 0;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::shared_ptr<Entry>& slot = entries_[index];
    if (slot == nullptr) {
      // Miss: insert the entry before computing, so concurrent lookups of
      // this tile find it and wait on its once_flag instead of computing.
      slot = std::make_shared<Entry>();
      slot->tile = index;
      bytes_ += entry_bytes_;
      inserted = true;
      // A keep-all cache never evicts, so it keeps no recency order: its
      // lookups skip the list splice, whose writes to neighbouring entries
      // made concurrent hits contend (4 threads ran no faster than 1).
      if (capacity_bytes_ != 0) PushFront(slot.get());
    } else if (capacity_bytes_ != 0) {
      Unlink(slot.get());
      PushFront(slot.get());
    }
    sketch = slot->sketch;
    if (sketch == nullptr) entry = slot;
    if (inserted) {
      // Last, because eviction may erase `slot` itself.
      EvictOverBudget();
      peak_bytes_ = std::max(peak_bytes_, bytes_);
      peak = peak_bytes_;
    }
  }
  if (inserted) RecordPeakBytesMetric(peak);

  bool ran = false;
  if (sketch == nullptr) {
    // Outside the lock, so a slow sketch never serializes other lookups.
    std::call_once(entry->once, [&] {
      std::shared_ptr<const Sketch> built;
      {
        TABSKETCH_TRACE_SPAN("lru.cache.compute");
        built = std::make_shared<const Sketch>(
            sketcher_->SketchOf(grid_->Tile(index)));
      }
      std::lock_guard<std::mutex> lock(mutex_);
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
