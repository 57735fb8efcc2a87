#include <gtest/gtest.h>

#include <atomic>
#include <latch>
#include <memory>
#include <thread>
#include <vector>

#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"
#include "util/parallel.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble();
  return out;
}

constexpr size_t kSketchK = 8;

class LruSketchCacheTest : public ::testing::Test {
 protected:
  LruSketchCacheTest()
      : data_(RandomTable(16, 16, 3)),
        grid_(*table::TileGrid::Create(&data_, 4, 4)),
        sketcher_(
            Sketcher::Create({.p = 1.0, .k = kSketchK, .seed = 77}).value()) {}

  /// A cache holding exactly `entries` entries, so eviction order and byte
  /// math are fully predictable.
  LruSketchCache MakeCache(size_t entries) {
    return LruSketchCache(&sketcher_, &grid_,
                          LruSketchCache::EntryBytes(kSketchK) * entries);
  }

  table::Matrix data_;
  table::TileGrid grid_;
  Sketcher sketcher_;
};

TEST_F(LruSketchCacheTest, HitMissAccounting) {
  LruSketchCache cache = MakeCache(4);
  EXPECT_EQ(cache.num_tiles(), grid_.num_tiles());
  EXPECT_EQ(cache.computed(), 0u);
  cache.Get(3);
  EXPECT_EQ(cache.computed(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.Get(3);
  EXPECT_EQ(cache.computed(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.Get(0);
  EXPECT_EQ(cache.computed(), 2u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST_F(LruSketchCacheTest, ZeroBudgetKeepsEveryTile) {
  // Budget 0 is the paper's scenario (2): each tile is sketched on first use
  // and kept, so a second sweep is all hits and nothing is ever evicted.
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  LruSketchCache cache(&sketcher_, &grid_, 0);
  const size_t tiles = grid_.num_tiles();
  for (size_t round = 0; round < 2; ++round) {
    for (size_t t = 0; t < tiles; ++t) {
      bool computed = false;
      EXPECT_EQ(cache.Get(t, &computed)->values, eager[t].values)
          << "tile " << t;
      EXPECT_EQ(computed, round == 0) << "tile " << t << " round " << round;
    }
  }
  EXPECT_EQ(cache.computed(), tiles);
  EXPECT_EQ(cache.hits(), tiles);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_EQ(cache.bytes_used(), tiles * LruSketchCache::EntryBytes(kSketchK));
}

TEST_F(LruSketchCacheTest, ConcurrentMissesComputeEachTileOnce) {
  // 8 threads, released together, each sweep every tile of a cold keep-all
  // cache 8 times: concurrent lookups of one tile wait for the first instead
  // of computing again, so each tile is computed exactly once and every
  // other lookup is a hit.
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  const size_t tiles = grid_.num_tiles();
  constexpr size_t kThreads = 8;
  constexpr size_t kRounds = 8;
  LruSketchCache cache(&sketcher_, &grid_, 0);
  std::atomic<size_t> computed_lookups{0};
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      start.arrive_and_wait();
      for (size_t round = 0; round < kRounds; ++round) {
        for (size_t tile = 0; tile < tiles; ++tile) {
          bool computed = false;
          EXPECT_EQ(cache.Get(tile, &computed)->values, eager[tile].values);
          if (computed) computed_lookups.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(cache.computed(), tiles);
  EXPECT_EQ(computed_lookups.load(), tiles);
  EXPECT_EQ(cache.hits() + cache.computed(), kThreads * kRounds * tiles);
}

TEST_F(LruSketchCacheTest, ByteBudgetEvictionMath) {
  // Room for exactly 2 entries: after inserting 3 distinct tiles the
  // least-recently-used one must be gone, and residency must equal exactly
  // two entries' worth of bytes at all times after the first insert settles.
  const size_t entry = LruSketchCache::EntryBytes(kSketchK);
  LruSketchCache cache = MakeCache(2);
  EXPECT_EQ(cache.capacity_bytes(), 2 * entry);

  cache.Get(0);
  EXPECT_EQ(cache.bytes_used(), entry);
  cache.Get(1);
  EXPECT_EQ(cache.bytes_used(), 2 * entry);
  EXPECT_EQ(cache.evictions(), 0u);

  cache.Get(2);  // evicts tile 0 (the coldest)
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.bytes_used(), 2 * entry);
  EXPECT_LE(cache.peak_bytes(), cache.capacity_bytes());

  // Tiles 1 and 2 are resident: both hit. Tile 0 was evicted: a miss.
  const size_t hits_before = cache.hits();
  cache.Get(1);
  cache.Get(2);
  EXPECT_EQ(cache.hits(), hits_before + 2);
  const size_t computed_before = cache.computed();
  cache.Get(0);
  EXPECT_EQ(cache.computed(), computed_before + 1);
}

TEST_F(LruSketchCacheTest, SmallBudgetKeepsWhatFits) {
  // The budget is one pool, never split: room for three entries keeps three
  // tiles, so a second pass over them is all hits.
  LruSketchCache cache = MakeCache(3);
  for (size_t round = 0; round < 2; ++round) {
    for (size_t t = 0; t < 3; ++t) cache.Get(t);
  }
  EXPECT_EQ(cache.computed(), 3u);
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.evictions(), 0u);

  // 4096 bytes at k = 64 hold six 648-byte entries: six tiles looked up
  // twice compute six times and hit six times.
  const Sketcher wide =
      Sketcher::Create({.p = 1.0, .k = 64, .seed = 77}).value();
  ASSERT_EQ(4096 / LruSketchCache::EntryBytes(64), 6u);
  LruSketchCache small(&wide, &grid_, 4096);
  for (size_t round = 0; round < 2; ++round) {
    for (size_t t = 0; t < 6; ++t) small.Get(t);
  }
  EXPECT_EQ(small.computed(), 6u);
  EXPECT_EQ(small.hits(), 6u);
  EXPECT_EQ(small.evictions(), 0u);
  EXPECT_EQ(small.peak_bytes(), 6 * LruSketchCache::EntryBytes(64));
}

TEST_F(LruSketchCacheTest, TouchOnHitProtectsHotEntry) {
  LruSketchCache cache = MakeCache(2);
  cache.Get(0);
  cache.Get(1);
  cache.Get(0);  // touch: tile 1 is now the coldest
  cache.Get(2);  // evicts tile 1, not tile 0
  const size_t computed_before = cache.computed();
  cache.Get(0);
  EXPECT_EQ(cache.computed(), computed_before) << "hot tile was evicted";
  cache.Get(1);
  EXPECT_EQ(cache.computed(), computed_before + 1);
}

TEST_F(LruSketchCacheTest, SubEntryBudgetDegradesToComputeAndRelease) {
  // A budget smaller than one entry can never retain anything: every lookup
  // computes, every insert is immediately evicted, and the returned sketch
  // stays valid because the caller holds shared ownership.
  LruSketchCache cache(&sketcher_, &grid_, 1);
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  for (size_t round = 0; round < 2; ++round) {
    for (size_t t = 0; t < grid_.num_tiles(); ++t) {
      const std::shared_ptr<const Sketch> sketch = cache.Get(t);
      EXPECT_EQ(sketch->values, eager[t].values) << "tile " << t;
    }
  }
  EXPECT_EQ(cache.hits(), 0u);
  EXPECT_EQ(cache.computed(), 2 * grid_.num_tiles());
  EXPECT_EQ(cache.evictions(), 2 * grid_.num_tiles());
  EXPECT_EQ(cache.bytes_used(), 0u);
}

TEST_F(LruSketchCacheTest, BitIdenticalToUncachedForEveryBudget) {
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  for (size_t entries : {size_t{1}, size_t{3}, size_t{16}}) {
    LruSketchCache cache = MakeCache(entries);
    for (size_t t = 0; t < grid_.num_tiles(); ++t) {
      EXPECT_EQ(cache.Get(t)->values, eager[t].values)
          << "tile " << t << " with budget for " << entries << " entries";
    }
  }
}

TEST_F(LruSketchCacheTest, EvictedEntrySurvivesThroughSharedPtr) {
  LruSketchCache cache = MakeCache(1);
  const std::shared_ptr<const Sketch> held = cache.Get(5);
  const std::vector<double> copy = held->values;
  cache.Get(6);  // evicts tile 5
  cache.Get(7);  // evicts tile 6
  EXPECT_EQ(held->values, copy);
}

TEST_F(LruSketchCacheTest, OutOfRangeTileAborts) {
  LruSketchCache cache = MakeCache(2);
  EXPECT_DEATH(cache.Get(grid_.num_tiles()), "out of");
}

TEST_F(LruSketchCacheTest, ConcurrentHammerStaysCorrectAndUnderBudget) {
  // 8 threads hammering all tiles through a cache that holds only a quarter
  // of them: values must stay bit-identical to the eager sketches, the
  // eviction churn must never push residency over budget, and the
  // hit/miss/eviction tallies must be internally consistent.
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  LruSketchCache cache(
      &sketcher_, &grid_,
      LruSketchCache::EntryBytes(kSketchK) * (grid_.num_tiles() / 4));
  const size_t tiles = grid_.num_tiles();
  constexpr size_t kRounds = 64;
  util::ParallelFor(tiles * kRounds, 8, [&](size_t i) {
    const size_t tile = (i * 7) % tiles;
    const std::shared_ptr<const Sketch> sketch = cache.Get(tile);
    EXPECT_EQ(sketch->values, eager[tile].values);
  });
  EXPECT_LE(cache.peak_bytes(), cache.capacity_bytes());
  EXPECT_GT(cache.evictions(), 0u);
  // Every lookup either computed or was served.
  EXPECT_EQ(cache.computed() + cache.hits(), tiles * kRounds);
  EXPECT_LT(cache.hits(), tiles * kRounds);
}

TEST_F(LruSketchCacheTest, PolymorphicUseThroughInterface) {
  // Both sources answer identically behind TileSketchCache, the LRU at
  // every kind of budget: keep-all, two entries, and compute-and-release.
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  std::vector<std::unique_ptr<TileSketchCache>> caches;
  for (size_t budget :
       {size_t{0}, LruSketchCache::EntryBytes(kSketchK) * 2, size_t{1}}) {
    caches.push_back(
        std::make_unique<LruSketchCache>(&sketcher_, &grid_, budget));
  }
  caches.push_back(std::make_unique<FixedSketchSource>(eager));
  for (const auto& cache : caches) {
    ASSERT_EQ(cache->num_tiles(), grid_.num_tiles());
    for (size_t t = 0; t < grid_.num_tiles(); ++t) {
      EXPECT_EQ(cache->Get(t)->values, eager[t].values) << "tile " << t;
    }
  }
}

}  // namespace
}  // namespace tabsketch::core
