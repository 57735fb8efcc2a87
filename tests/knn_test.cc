#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <memory>
#include <set>
#include <vector>

#include "core/estimator.h"
#include "core/knn.h"
#include "core/lp_distance.h"
#include "core/ondemand.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::core {
namespace {

/// Grid whose tiles fall into well-separated level groups: tile t has all
/// values near 100 * group(t), so nearest neighbors are same-group tiles.
/// The matrix lives on the heap so the grid's parent pointer stays valid
/// when the fixture is returned by value.
struct GroupedTiles {
  std::unique_ptr<table::Matrix> data;
  table::TileGrid grid;
  std::vector<int> group;
};

GroupedTiles MakeGrouped(size_t groups, size_t tiles_per_group,
                         uint64_t seed) {
  const size_t tile_side = 4;
  const size_t total = groups * tiles_per_group;
  auto data =
      std::make_unique<table::Matrix>(tile_side, tile_side * total);
  rng::Xoshiro256 gen(seed);
  std::vector<int> group(total);
  for (size_t t = 0; t < total; ++t) {
    group[t] = static_cast<int>(t % groups);
    const double level = 100.0 * static_cast<double>(1 + group[t]);
    for (size_t r = 0; r < tile_side; ++r) {
      for (size_t c = 0; c < tile_side; ++c) {
        (*data)(r, t * tile_side + c) = level + gen.NextDouble();
      }
    }
  }
  auto grid = table::TileGrid::Create(data.get(), tile_side, tile_side);
  return GroupedTiles{std::move(data), std::move(grid).value(),
                      std::move(group)};
}

TEST(NeighborBeforeTest, IsStrictWeakOrderWithNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Neighbor real_a{1, 2.0};
  const Neighbor real_b{2, 3.0};
  const Neighbor nan_a{3, nan};
  const Neighbor nan_b{4, nan};

  // Irreflexivity, including on NaN (the old `a != b` test violated this).
  EXPECT_FALSE(NeighborBefore(real_a, real_a));
  EXPECT_FALSE(NeighborBefore(nan_a, nan_a));
  // NaN orders after every real distance, never before.
  EXPECT_TRUE(NeighborBefore(real_a, nan_a));
  EXPECT_FALSE(NeighborBefore(nan_a, real_a));
  // NaN vs NaN falls back to the index tie-break (asymmetric, total).
  EXPECT_TRUE(NeighborBefore(nan_a, nan_b));
  EXPECT_FALSE(NeighborBefore(nan_b, nan_a));
  // Real distances order as usual.
  EXPECT_TRUE(NeighborBefore(real_a, real_b));
  EXPECT_FALSE(NeighborBefore(real_b, real_a));
  // Equal distances tie-break by index.
  EXPECT_TRUE(NeighborBefore(Neighbor{0, 2.0}, Neighbor{5, 2.0}));
}

TEST(SmallestKNeighborsTest, NaNDistancesSortLastDeterministically) {
  // Regression: NaN distances used to break std::partial_sort's strict weak
  // ordering contract (UB — garbage results or a crash). They must now sort
  // after every real distance, with index tie-breaks keeping the output
  // deterministic.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<Neighbor> all = {
      {0, 4.0}, {1, nan}, {2, 1.0}, {3, nan}, {4, 2.0}, {5, nan}, {6, 3.0},
  };
  const auto top = SmallestKNeighbors(all, 6);
  ASSERT_EQ(top.size(), 6u);
  EXPECT_EQ(top[0].index, 2u);
  EXPECT_EQ(top[1].index, 4u);
  EXPECT_EQ(top[2].index, 6u);
  EXPECT_EQ(top[3].index, 0u);
  // The NaN tail is ordered by index.
  EXPECT_EQ(top[4].index, 1u);
  EXPECT_EQ(top[5].index, 3u);
}

TEST(TopKBySketchTest, NaNSketchValuesDoNotCrashOrLeakIntoTopK) {
  // Inject NaN into a few corpus sketches (NaN data produces NaN estimates);
  // the search must survive and rank every clean tile ahead of the poisoned
  // ones.
  GroupedTiles setup = MakeGrouped(2, 6, 11);
  SketchParams params{.p = 1.0, .k = 32, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  std::vector<Sketch> sketches = SketchAllTilesParallel(*sketcher, setup.grid);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  sketches[2].values.assign(sketches[2].values.size(), nan);
  sketches[7].values.assign(sketches[7].values.size(), nan);

  const size_t n = setup.grid.num_tiles();
  const auto neighbors =
      TopKBySketch(sketches[0], sketches, *estimator, n - 1, 0);
  ASSERT_EQ(neighbors.size(), n - 1);
  // The poisoned tiles form the NaN tail, in index order; every clean tile
  // ranks ahead of them.
  for (size_t i = 0; i + 2 < neighbors.size(); ++i) {
    EXPECT_FALSE(std::isnan(neighbors[i].distance)) << "position " << i;
  }
  EXPECT_EQ(neighbors[neighbors.size() - 2].index, 2u);
  EXPECT_EQ(neighbors[neighbors.size() - 1].index, 7u);
  // Deterministic: a second run reproduces the exact ordering.
  const auto again =
      TopKBySketch(sketches[0], sketches, *estimator, n - 1, 0);
  for (size_t i = 0; i < neighbors.size(); ++i) {
    EXPECT_EQ(neighbors[i].index, again[i].index) << "position " << i;
  }
}

TEST(TopKBySketchTest, FindsSameGroupNeighbors) {
  GroupedTiles setup = MakeGrouped(4, 8, 1);
  SketchParams params{.p = 1.0, .k = 64, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);

  const size_t query = 5;
  const auto neighbors =
      TopKBySketch(sketches[query], sketches, *estimator, 7, query);
  ASSERT_EQ(neighbors.size(), 7u);
  for (const Neighbor& neighbor : neighbors) {
    EXPECT_EQ(setup.group[neighbor.index], setup.group[query])
        << "neighbor " << neighbor.index;
    EXPECT_NE(neighbor.index, query);
  }
}

TEST(TopKBySketchTest, SortedAscendingAndDeduplicated) {
  GroupedTiles setup = MakeGrouped(3, 6, 2);
  SketchParams params{.p = 1.0, .k = 64, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);
  const auto neighbors =
      TopKBySketch(sketches[0], sketches, *estimator, 10, 0);
  std::set<size_t> seen;
  for (size_t i = 0; i < neighbors.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(neighbors[i].distance, neighbors[i - 1].distance);
    }
    EXPECT_TRUE(seen.insert(neighbors[i].index).second);
  }
}

TEST(TopKBySketchTest, KLargerThanCorpusReturnsAll) {
  GroupedTiles setup = MakeGrouped(2, 3, 3);
  SketchParams params{.p = 1.0, .k = 16, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);
  const auto neighbors =
      TopKBySketch(sketches[0], sketches, *estimator, 100, 0);
  EXPECT_EQ(neighbors.size(), setup.grid.num_tiles() - 1);
}

TEST(TopKExactTest, MatchesBruteForceOrdering) {
  GroupedTiles setup = MakeGrouped(4, 4, 4);
  const auto neighbors = TopKExact(setup.grid, 1.0, 3, 5);
  ASSERT_EQ(neighbors.size(), 5u);
  for (size_t i = 1; i < neighbors.size(); ++i) {
    EXPECT_GE(neighbors[i].distance, neighbors[i - 1].distance);
  }
  // The top 3 neighbors must be the other tiles of the query's group.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(setup.group[neighbors[i].index], setup.group[3]);
  }
}

TEST(TopKFilterRefineTest, ValidatesArguments) {
  GroupedTiles setup = MakeGrouped(2, 4, 5);
  SketchParams params{.p = 1.0, .k = 16, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);

  EXPECT_FALSE(
      TopKFilterRefine(setup.grid, sketches, *estimator, 99, 2, 4).ok());
  EXPECT_FALSE(
      TopKFilterRefine(setup.grid, sketches, *estimator, 0, 0, 4).ok());
  EXPECT_FALSE(
      TopKFilterRefine(setup.grid, sketches, *estimator, 0, 5, 4).ok());
  EXPECT_FALSE(TopKFilterRefine(setup.grid, sketches, *estimator, 0, 2,
                                setup.grid.num_tiles())
                   .ok());
  std::vector<Sketch> short_sketches(sketches.begin(), sketches.end() - 1);
  EXPECT_FALSE(
      TopKFilterRefine(setup.grid, short_sketches, *estimator, 0, 2, 4).ok());
}

TEST(TopKFilterRefineTest, ReturnsExactDistances) {
  GroupedTiles setup = MakeGrouped(3, 8, 6);
  SketchParams params{.p = 1.0, .k = 96, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);

  const size_t query = 7;
  auto refined =
      TopKFilterRefine(setup.grid, sketches, *estimator, query, 3, 10);
  ASSERT_TRUE(refined.ok());
  ASSERT_EQ(refined->size(), 3u);
  for (const Neighbor& neighbor : *refined) {
    const double exact = LpDistance(setup.grid.Tile(query),
                                    setup.grid.Tile(neighbor.index), 1.0);
    EXPECT_DOUBLE_EQ(neighbor.distance, exact);
  }
}

TEST(TopKFilterRefineTest, HighCandidateCountRecoversExactTopK) {
  GroupedTiles setup = MakeGrouped(4, 8, 7);
  SketchParams params{.p = 1.0, .k = 96, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);

  const size_t query = 2;
  const size_t n = setup.grid.num_tiles();
  auto refined =
      TopKFilterRefine(setup.grid, sketches, *estimator, query, 5, n - 1);
  const auto exact = TopKExact(setup.grid, 1.0, query, 5);
  ASSERT_TRUE(refined.ok());
  ASSERT_EQ(refined->size(), exact.size());
  for (size_t i = 0; i < exact.size(); ++i) {
    EXPECT_EQ((*refined)[i].index, exact[i].index);
    EXPECT_DOUBLE_EQ((*refined)[i].distance, exact[i].distance);
  }
}

TEST(TopKFilterRefineTest, ModestCandidateBufferGivesHighRecall) {
  GroupedTiles setup = MakeGrouped(5, 10, 8);
  SketchParams params{.p = 1.0, .k = 128, .seed = 3};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<Sketch> sketches =
      SketchAllTilesParallel(*sketcher, setup.grid);

  size_t hits = 0;
  size_t total = 0;
  for (size_t query = 0; query < setup.grid.num_tiles(); query += 5) {
    const auto exact = TopKExact(setup.grid, 1.0, query, 5);
    auto refined =
        TopKFilterRefine(setup.grid, sketches, *estimator, query, 5, 15);
    ASSERT_TRUE(refined.ok());
    std::set<size_t> exact_set;
    for (const Neighbor& neighbor : exact) exact_set.insert(neighbor.index);
    for (const Neighbor& neighbor : *refined) {
      if (exact_set.count(neighbor.index) > 0) ++hits;
    }
    total += exact.size();
  }
  EXPECT_GE(static_cast<double>(hits) / static_cast<double>(total), 0.9);
}

}  // namespace
}  // namespace tabsketch::core
