#include <gtest/gtest.h>

#include <vector>

#include "core/growing.h"
#include "core/ondemand.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomPiece(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 100.0;
  return out;
}

TEST(GrowingTest, CreateValidates) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 1};
  EXPECT_FALSE(GrowingTableSketcher::Create(params, 8, 0, 4).ok());
  EXPECT_FALSE(GrowingTableSketcher::Create(params, 8, 9, 4).ok());
  EXPECT_FALSE(
      GrowingTableSketcher::Create({.p = 0.0, .k = 8, .seed = 1}, 8, 4, 4)
          .ok());
  EXPECT_TRUE(GrowingTableSketcher::Create(params, 8, 4, 4).ok());
}

TEST(GrowingTest, StartsEmpty) {
  auto growing = GrowingTableSketcher::Create({.p = 1.0, .k = 4, .seed = 1},
                                              8, 4, 4);
  ASSERT_TRUE(growing.ok());
  EXPECT_EQ(growing->num_tiles(), 0u);
  EXPECT_EQ(growing->grid_rows(), 2u);
  EXPECT_EQ(growing->grid_cols(), 0u);
  EXPECT_EQ(growing->pending_cols(), 0u);
}

TEST(GrowingTest, RejectsRowMismatch) {
  auto growing = GrowingTableSketcher::Create({.p = 1.0, .k = 4, .seed = 1},
                                              8, 4, 4);
  ASSERT_TRUE(growing.ok());
  EXPECT_FALSE(growing->AppendColumns(RandomPiece(6, 4, 1)).ok());
}

TEST(GrowingTest, PendingColumnsUntilTileCompletes) {
  auto growing = GrowingTableSketcher::Create({.p = 1.0, .k = 4, .seed = 1},
                                              8, 4, 6);
  ASSERT_TRUE(growing.ok());
  ASSERT_TRUE(growing->AppendColumns(RandomPiece(8, 4, 2)).ok());
  EXPECT_EQ(growing->num_tiles(), 0u);
  EXPECT_EQ(growing->pending_cols(), 4u);
  ASSERT_TRUE(growing->AppendColumns(RandomPiece(8, 3, 3)).ok());
  EXPECT_EQ(growing->grid_cols(), 1u);
  EXPECT_EQ(growing->num_tiles(), 2u);
  EXPECT_EQ(growing->pending_cols(), 1u);
}

TEST(GrowingTest, MatchesFromScratchSketching) {
  SketchParams params{.p = 0.5, .k = 16, .seed = 21};
  auto growing = GrowingTableSketcher::Create(params, 12, 4, 5);
  ASSERT_TRUE(growing.ok());

  // Append three uneven pieces.
  std::vector<table::Matrix> pieces = {
      RandomPiece(12, 7, 31), RandomPiece(12, 2, 32), RandomPiece(12, 11, 33)};
  for (const auto& piece : pieces) {
    ASSERT_TRUE(growing->AppendColumns(piece).ok());
  }
  // 20 columns appended -> 4 complete tile columns of width 5.
  EXPECT_EQ(growing->grid_cols(), 4u);
  EXPECT_EQ(growing->pending_cols(), 0u);
  EXPECT_EQ(growing->num_tiles(), 12u);  // 3 tile rows (12/4) x 4

  // From-scratch reference over the same final table.
  auto grid = table::TileGrid::Create(&growing->table(), 4, 5);
  ASSERT_TRUE(grid.ok());
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const std::vector<Sketch> reference =
      SketchAllTilesParallel(*sketcher, *grid);
  const std::vector<Sketch> incremental = growing->SketchesInGridOrder();
  ASSERT_EQ(reference.size(), incremental.size());
  for (size_t t = 0; t < reference.size(); ++t) {
    EXPECT_EQ(reference[t].values, incremental[t].values) << "tile " << t;
  }
}

TEST(GrowingTest, NeverRecomputesASketch) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 5};
  auto growing = GrowingTableSketcher::Create(params, 8, 4, 4);
  ASSERT_TRUE(growing.ok());
  for (int day = 0; day < 5; ++day) {
    ASSERT_TRUE(
        growing->AppendColumns(RandomPiece(8, 4, 100 + day)).ok());
  }
  // 5 tile columns x 2 tile rows = 10 tiles, each sketched exactly once.
  EXPECT_EQ(growing->num_tiles(), 10u);
  EXPECT_EQ(growing->sketches_computed(), 10u);
}

TEST(GrowingTest, EmptyAppendIsNoop) {
  auto growing = GrowingTableSketcher::Create({.p = 1.0, .k = 4, .seed = 1},
                                              8, 4, 4);
  ASSERT_TRUE(growing.ok());
  ASSERT_TRUE(growing->AppendColumns(table::Matrix(8, 0)).ok());
  EXPECT_EQ(growing->num_tiles(), 0u);
}

}  // namespace
}  // namespace tabsketch::core
