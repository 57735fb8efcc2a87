#include <gtest/gtest.h>

#include "core/ondemand.h"
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

class OnDemandTest : public ::testing::Test {
 protected:
  OnDemandTest()
      : data_(RandomTable(16, 16, 3)),
        grid_(*table::TileGrid::Create(&data_, 4, 4)),
        sketcher_(Sketcher::Create({.p = 1.0, .k = 8, .seed = 77}).value()) {}

  table::Matrix data_;
  table::TileGrid grid_;
  Sketcher sketcher_;
};

TEST_F(OnDemandTest, ComputesLazily) {
  OnDemandSketchCache cache(&sketcher_, &grid_);
  EXPECT_EQ(cache.computed(), 0u);
  cache.ForTile(3);
  EXPECT_EQ(cache.computed(), 1u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.ForTile(3);
  EXPECT_EQ(cache.computed(), 1u);
  EXPECT_EQ(cache.hits(), 1u);
  cache.ForTile(0);
  EXPECT_EQ(cache.computed(), 2u);
}

TEST_F(OnDemandTest, MatchesEagerSketches) {
  OnDemandSketchCache cache(&sketcher_, &grid_);
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  ASSERT_EQ(eager.size(), grid_.num_tiles());
  for (size_t t = 0; t < grid_.num_tiles(); ++t) {
    EXPECT_EQ(cache.ForTile(t).values, eager[t].values) << "tile " << t;
  }
}

TEST_F(OnDemandTest, ClearResetsState) {
  OnDemandSketchCache cache(&sketcher_, &grid_);
  cache.ForTile(1);
  cache.ForTile(1);
  cache.Clear();
  EXPECT_EQ(cache.computed(), 0u);
  EXPECT_EQ(cache.hits(), 0u);
  cache.ForTile(1);
  EXPECT_EQ(cache.computed(), 1u);
}

TEST_F(OnDemandTest, OutOfRangeTileAborts) {
  OnDemandSketchCache cache(&sketcher_, &grid_);
  EXPECT_DEATH(cache.ForTile(grid_.num_tiles()), "out of");
}

TEST_F(OnDemandTest, EagerSketchCountMatchesTiles) {
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  EXPECT_EQ(eager.size(), 16u);
  for (const Sketch& sketch : eager) EXPECT_EQ(sketch.size(), 8u);
}

TEST_F(OnDemandTest, ConcurrentForTileComputesEachSlotOnce) {
  // Hammer every tile from several threads at once: per-slot once_flags must
  // yield exactly one computation per tile, correct values, and
  // hits + computed == total calls.
  OnDemandSketchCache cache(&sketcher_, &grid_);
  const std::vector<Sketch> eager = SketchAllTilesParallel(sketcher_, grid_);
  const size_t tiles = grid_.num_tiles();
  constexpr size_t kRounds = 8;
  util::ParallelFor(tiles * kRounds, 8, [&](size_t i) {
    const size_t tile = i % tiles;
    EXPECT_EQ(cache.ForTile(tile).values, eager[tile].values);
  });
  EXPECT_EQ(cache.computed(), tiles);
  EXPECT_EQ(cache.hits(), tiles * kRounds - tiles);
}

}  // namespace
}  // namespace tabsketch::core
