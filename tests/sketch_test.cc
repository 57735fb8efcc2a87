#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <thread>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/ondemand.h"
#include "core/sketcher.h"
#include "core/stable_matrix.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed,
                          double scale = 100.0) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * scale;
  return out;
}

TEST(StableMatrixTest, DeterministicRegeneration) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  const table::Matrix a = StableRandomMatrix(params, 2, 8, 8);
  const table::Matrix b = StableRandomMatrix(params, 2, 8, 8);
  EXPECT_TRUE(a == b);
}

TEST(StableMatrixTest, DistinctIndicesDiffer) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  const table::Matrix a = StableRandomMatrix(params, 0, 8, 8);
  const table::Matrix b = StableRandomMatrix(params, 1, 8, 8);
  EXPECT_FALSE(a == b);
}

TEST(StableMatrixTest, DistinctShapesAndSeedsDiffer) {
  SketchParams params{.p = 1.0, .k = 4, .seed = 99};
  SketchParams other = params;
  other.seed = 100;
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(other.seed, 0, 8, 8));
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(params.seed, 0, 8, 16));
  EXPECT_NE(StableMatrixSeed(params.seed, 0, 8, 8),
            StableMatrixSeed(params.seed, 0, 16, 8));
}

TEST(StableMatrixTest, BatchMatchesIndividual) {
  SketchParams params{.p = 0.5, .k = 3, .seed = 7};
  const auto batch = StableRandomMatrices(params, 4, 6);
  ASSERT_EQ(batch.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_TRUE(batch[i] == StableRandomMatrix(params, i, 4, 6));
  }
}

TEST(SketchTest, AddAndScale) {
  Sketch a{{1.0, 2.0, 3.0}};
  Sketch b{{10.0, 20.0, 30.0}};
  a.Add(b);
  EXPECT_EQ(a.values, (std::vector<double>{11.0, 22.0, 33.0}));
  a.Scale(0.5);
  EXPECT_EQ(a.values, (std::vector<double>{5.5, 11.0, 16.5}));
}

TEST(SketcherTest, CreateValidatesParams) {
  EXPECT_FALSE(Sketcher::Create({.p = 0.0, .k = 8, .seed = 1}).ok());
  EXPECT_FALSE(Sketcher::Create({.p = 2.5, .k = 8, .seed = 1}).ok());
  EXPECT_FALSE(Sketcher::Create({.p = 1.0, .k = 0, .seed = 1}).ok());
  EXPECT_TRUE(Sketcher::Create({.p = 1.0, .k = 8, .seed = 1}).ok());
}

TEST(SketcherTest, SketchHasLengthK) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 13, .seed = 5});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(8, 8, 3);
  EXPECT_EQ(sketcher->SketchOf(data.View()).size(), 13u);
}

TEST(SketcherTest, SketchIsDeterministic) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 5};
  auto s1 = Sketcher::Create(params);
  auto s2 = Sketcher::Create(params);
  ASSERT_TRUE(s1.ok() && s2.ok());
  const table::Matrix data = RandomTable(8, 8, 3);
  EXPECT_EQ(s1->SketchOf(data.View()).values,
            s2->SketchOf(data.View()).values);
}

TEST(SketcherTest, SketchIsLinearInTheObject) {
  // s(X + Y) = s(X) + s(Y) and s(cX) = c s(X): dot products are linear.
  auto sketcher = Sketcher::Create({.p = 0.75, .k = 6, .seed = 21});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix x = RandomTable(6, 6, 1);
  const table::Matrix y = RandomTable(6, 6, 2);
  table::Matrix sum(6, 6);
  for (size_t i = 0; i < sum.Values().size(); ++i) {
    sum.Values()[i] = x.Values()[i] + y.Values()[i];
  }
  Sketch sx = sketcher->SketchOf(x.View());
  const Sketch sy = sketcher->SketchOf(y.View());
  const Sketch ssum = sketcher->SketchOf(sum.View());
  sx.Add(sy);
  for (size_t i = 0; i < sx.size(); ++i) {
    EXPECT_NEAR(sx.values[i], ssum.values[i], 1e-8);
  }
}

TEST(SketcherTest, FieldMatchesDirectSketchAtEveryPosition) {
  SketchParams params{.p = 1.0, .k = 5, .seed = 11};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(12, 10, 4);
  constexpr size_t kWr = 3;
  constexpr size_t kWc = 4;
  auto field_or = sketcher->SketchAllPositions(data, kWr, kWc,
                                               SketchAlgorithm::kNaive);
  ASSERT_TRUE(field_or.ok());
  const SketchField& field = *field_or;
  ASSERT_EQ(field.position_rows(), data.rows() - kWr + 1);
  ASSERT_EQ(field.position_cols(), data.cols() - kWc + 1);
  for (size_t r = 0; r < field.position_rows(); r += 3) {
    for (size_t c = 0; c < field.position_cols(); c += 2) {
      const Sketch direct = sketcher->SketchOf(data.Window(r, c, kWr, kWc));
      const Sketch from_field = field.SketchAt(r, c);
      for (size_t i = 0; i < params.k; ++i) {
        EXPECT_NEAR(direct.values[i], from_field.values[i], 1e-8)
            << "at (" << r << "," << c << ") component " << i;
      }
    }
  }
}

TEST(SketcherTest, FftFieldMatchesNaiveField) {
  SketchParams params{.p = 0.5, .k = 4, .seed = 17};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(20, 14, 8);
  auto naive_or =
      sketcher->SketchAllPositions(data, 4, 4, SketchAlgorithm::kNaive);
  auto fft_or =
      sketcher->SketchAllPositions(data, 4, 4, SketchAlgorithm::kFft);
  ASSERT_TRUE(naive_or.ok());
  ASSERT_TRUE(fft_or.ok());
  const SketchField& naive = *naive_or;
  const SketchField& fft = *fft_or;
  ASSERT_EQ(naive.position_rows(), fft.position_rows());
  ASSERT_EQ(naive.position_cols(), fft.position_cols());
  for (size_t i = 0; i < params.k; ++i) {
    for (size_t r = 0; r < naive.position_rows(); ++r) {
      for (size_t c = 0; c < naive.position_cols(); ++c) {
        EXPECT_NEAR(naive.plane(i).At(r, c), fft.plane(i).At(r, c), 1e-6)
            << "plane " << i << " at (" << r << "," << c << ")";
      }
    }
  }
}

TEST(SketchFieldTest, AccumulateMatchesSketchAt) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 3, .seed = 2});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(8, 8, 5);
  auto field_or =
      sketcher->SketchAllPositions(data, 2, 2, SketchAlgorithm::kNaive);
  ASSERT_TRUE(field_or.ok());
  const SketchField& field = *field_or;
  Sketch acc;
  acc.values.assign(3, 0.0);
  field.AccumulateAt(1, 1, &acc);
  field.AccumulateAt(2, 3, &acc);
  const Sketch a = field.SketchAt(1, 1);
  const Sketch b = field.SketchAt(2, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(acc.values[i], a.values[i] + b.values[i]);
  }
}

/// End-to-end accuracy sweep (paper Theorems 1-2): the estimated distance
/// between random tables should be within a modest relative error of the
/// exact Lp distance, for every p, with k = 400.
class SketchAccuracyTest : public ::testing::TestWithParam<double> {};

TEST_P(SketchAccuracyTest, EstimateTracksExactDistance) {
  const double p = GetParam();
  SketchParams params{.p = p, .k = 400, .seed = 1234};
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(estimator.ok());

  // The median estimator's relative noise at fixed k grows as p shrinks
  // (the density of |SaS(p)| near its median flattens), so the acceptance
  // band widens for very small p.
  const double tolerance = (p < 0.5) ? 0.45 : 0.25;
  for (uint64_t trial = 0; trial < 5; ++trial) {
    const table::Matrix x = RandomTable(16, 16, 100 + trial);
    const table::Matrix y = RandomTable(16, 16, 200 + trial);
    const double exact = LpDistance(x.View(), y.View(), p);
    const double approx = estimator->Estimate(
        sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
    EXPECT_NEAR(approx / exact, 1.0, tolerance)
        << "p=" << p << " trial=" << trial << " exact=" << exact
        << " approx=" << approx;
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, SketchAccuracyTest,
                         ::testing::Values(0.25, 0.5, 0.75, 1.0, 1.25, 1.5,
                                           1.75, 2.0));

TEST(SketchAccuracyTest, LargerKTightensTheEstimate) {
  // Average relative error over trials should shrink as k grows.
  const double p = 1.0;
  auto error_for_k = [p](size_t k) {
    SketchParams params{.p = p, .k = k, .seed = 4321};
    auto sketcher = Sketcher::Create(params);
    auto estimator = DistanceEstimator::Create(params);
    double total = 0.0;
    constexpr int kTrials = 20;
    for (int trial = 0; trial < kTrials; ++trial) {
      const table::Matrix x = RandomTable(8, 8, 300 + trial);
      const table::Matrix y = RandomTable(8, 8, 400 + trial);
      const double exact = LpDistance(x.View(), y.View(), p);
      const double approx = estimator->Estimate(
          sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
      total += std::fabs(approx / exact - 1.0);
    }
    return total / kTrials;
  };
  const double coarse = error_for_k(16);
  const double fine = error_for_k(1024);
  EXPECT_LT(fine, coarse);
  EXPECT_LT(fine, 0.08);
}

TEST(SketcherDeathTest, EmptyViewAborts) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 2, .seed = 1});
  ASSERT_TRUE(sketcher.ok());
  table::TableView empty;
  EXPECT_DEATH(sketcher->SketchOf(empty), "empty subtable");
}

TEST(SketcherTest, OversizedWindowIsInvalidArgument) {
  auto sketcher = Sketcher::Create({.p = 1.0, .k = 2, .seed = 1});
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(4, 4, 1);
  for (const SketchAlgorithm algorithm :
       {SketchAlgorithm::kNaive, SketchAlgorithm::kFft,
        SketchAlgorithm::kAuto}) {
    auto oversized = sketcher->SketchAllPositions(data, 5, 2, algorithm);
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(oversized.status().message().find("does not fit"),
              std::string::npos);
    auto empty = sketcher->SketchAllPositions(data, 0, 2, algorithm);
    ASSERT_FALSE(empty.ok());
    EXPECT_EQ(empty.status().code(), util::StatusCode::kInvalidArgument);
  }
}

/// SketchOf's dense walk before blocking: one kernel at a time into one
/// accumulator, elements in row-major order. The blocked walk must equal
/// it bit for bit.
std::vector<double> OneKernelAtATime(const Sketcher& sketcher,
                                     const table::TableView& view) {
  std::vector<double> out;
  for (const table::Matrix& random :
       sketcher.MatricesFor(view.rows(), view.cols())) {
    double acc = 0.0;
    for (size_t r = 0; r < view.rows(); ++r) {
      auto data_row = view.Row(r);
      auto random_row = random.Row(r);
      for (size_t c = 0; c < view.cols(); ++c) {
        acc += data_row[c] * random_row[c];
      }
    }
    out.push_back(acc);
  }
  return out;
}

/// memcmp of the two sketches, reporting the first differing component.
::testing::AssertionResult SameBytes(const std::vector<double>& expected,
                                     const std::vector<double>& actual) {
  if (expected.size() != actual.size()) {
    return ::testing::AssertionFailure()
           << "length " << actual.size() << " != " << expected.size();
  }
  if (std::memcmp(expected.data(), actual.data(),
                  expected.size() * sizeof(double)) == 0) {
    return ::testing::AssertionSuccess();
  }
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::memcmp(&expected[i], &actual[i], sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "component " << i << ": " << actual[i] << " != "
             << expected[i];
    }
  }
  return ::testing::AssertionFailure();
}

/// Views of the parent at a few origins: the whole-shape window at the
/// corner and strided windows inside a wider parent.
std::vector<table::TableView> Windows(const table::Matrix& parent,
                                      size_t rows, size_t cols) {
  std::vector<table::TableView> out;
  for (const auto& [r, c] : {std::pair<size_t, size_t>{0, 0},
                             {1, 3},
                             {parent.rows() - rows, parent.cols() - cols},
                             {(parent.rows() - rows) / 2, 5}}) {
    out.push_back(parent.Window(r, c, rows, cols));
  }
  return out;
}

constexpr std::pair<size_t, size_t> kPinShapes[] = {
    {1, 1}, {3, 5}, {7, 13}, {16, 144}};
constexpr size_t kPinKs[] = {1, 15, 16, 17, 64, 256};

/// The edge-value tables: each patches a window of a wider parent at
/// (1, 3), spread over its elements in row-major order, so sums turn NaN,
/// +-inf, a signed zero or subnormal. No table lets two different NaNs meet
/// in one add: which payload survives then follows the compiler's operand
/// order, even in the one-kernel loop (GCC at -O2 under ThreadSanitizer
/// swaps them).
std::vector<table::Matrix> EdgeValueParents(size_t rows, size_t cols) {
  const double quiet_nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<std::vector<double>> cases = {
      {quiet_nan},        {-std::nan("0x2bad")}, {inf},
      {-inf},             {inf, -inf},           {-inf, 1.0, quiet_nan},
      {tiny, -1e-310, -tiny}};
  std::vector<table::Matrix> parents;
  for (const std::vector<double>& values : cases) {
    table::Matrix parent = RandomTable(rows + 3, cols + 7, 33, 200.0);
    const size_t size = rows * cols;
    for (size_t i = 0; i < values.size() && i < size; ++i) {
      const size_t e = i * size / values.size();
      parent(1 + e / cols, 3 + e % cols) = values[i];
    }
    parents.push_back(std::move(parent));
  }
  table::Matrix zeros = RandomTable(rows + 3, cols + 7, 34);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) zeros(1 + r, 3 + c) = -0.0;
  }
  parents.push_back(std::move(zeros));
  return parents;
}

TEST(SketcherBlockedWalkTest, MatchesOneKernelLoopBitForBit) {
  const table::Matrix parent = RandomTable(24, 160, 31, 200.0);
  for (const size_t k : kPinKs) {
    const Sketcher sketcher =
        Sketcher::Create({.p = 1.0, .k = k, .seed = 8}).value();
    for (const auto& [rows, cols] : kPinShapes) {
      for (const table::TableView& view : Windows(parent, rows, cols)) {
        EXPECT_TRUE(SameBytes(OneKernelAtATime(sketcher, view),
                              sketcher.SketchOf(view).values))
            << "k=" << k << " shape " << rows << "x" << cols;
      }
    }
  }
}

TEST(SketcherBlockedWalkTest, MatchesOneKernelLoopOnEdgeValues) {
  for (const size_t k : kPinKs) {
    const Sketcher sketcher =
        Sketcher::Create({.p = 2.0, .k = k, .seed = 9}).value();
    for (const auto& [rows, cols] : kPinShapes) {
      for (const table::Matrix& parent : EdgeValueParents(rows, cols)) {
        const table::TableView view = parent.Window(1, 3, rows, cols);
        EXPECT_TRUE(SameBytes(OneKernelAtATime(sketcher, view),
                              sketcher.SketchOf(view).values))
            << "k=" << k << " shape " << rows << "x" << cols;
      }
    }
  }
}

TEST(SketcherBulkWalkTest, EveryTileMatchesOneKernelLoopBitForBit) {
  // Grids of 1, 2, 15, 16, 17 and 33 tiles: one tile, one register pass,
  // odd and full groups, and a ragged last group.
  for (const size_t k : kPinKs) {
    for (const auto& [rows, cols] : kPinShapes) {
      for (const size_t tiles : {1, 2, 15, 16, 17, 33}) {
        const table::Matrix data =
            RandomTable(rows, cols * tiles + cols / 2, 40 + tiles, 200.0);
        const table::TileGrid grid =
            table::TileGrid::Create(&data, rows, cols).value();
        ASSERT_EQ(grid.num_tiles(), tiles);
        for (const size_t threads : {1, 3, 4}) {
          // A fresh sketcher per run, so each thread count also generates.
          const Sketcher sketcher =
              Sketcher::Create({.p = 1.0, .k = k, .seed = 8}).value();
          const std::vector<Sketch> sketches =
              SketchAllTilesParallel(sketcher, grid, threads);
          ASSERT_EQ(sketches.size(), tiles);
          for (size_t t = 0; t < tiles; ++t) {
            EXPECT_TRUE(SameBytes(OneKernelAtATime(sketcher, grid.Tile(t)),
                                  sketches[t].values))
                << "k=" << k << " shape " << rows << "x" << cols << " tiles "
                << tiles << " threads " << threads << " tile " << t;
          }
        }
      }
    }
  }
}

TEST(SketcherBulkWalkTest, EdgeValuesInBothTilesOfOnePass) {
  // Each edge table's window is both tiles of one two-tile register pass,
  // once beside a plain tile and once beside itself, at every place a pass
  // can take in a group.
  for (const size_t k : kPinKs) {
    const Sketcher sketcher =
        Sketcher::Create({.p = 2.0, .k = k, .seed = 9}).value();
    for (const auto& [rows, cols] : kPinShapes) {
      const table::Matrix plain = RandomTable(rows, cols, 35, 200.0);
      for (const table::Matrix& parent : EdgeValueParents(rows, cols)) {
        const table::TableView edge = parent.Window(1, 3, rows, cols);
        const std::vector<table::TableView> views = {
            edge, plain.View(), plain.View(), edge, edge, edge};
        const std::vector<Sketch> sketches = sketcher.SketchEach(views, 2);
        for (size_t v = 0; v < views.size(); ++v) {
          EXPECT_TRUE(SameBytes(OneKernelAtATime(sketcher, views[v]),
                                sketches[v].values))
              << "k=" << k << " shape " << rows << "x" << cols << " view "
              << v;
        }
      }
    }
  }
}

TEST(SketcherKernelCacheTest, BulkWalkRacingSketchOfGeneratesTheShapeOnce) {
  const table::Matrix data = RandomTable(32, 7 * 20, 6);
  const table::TileGrid grid = table::TileGrid::Create(&data, 8, 7).value();
  const Sketcher sketcher =
      Sketcher::Create({.p = 1.0, .k = 40, .seed = 4}).value();
  const size_t before = Sketcher::kernel_sets_generated();
  std::vector<Sketch> bulk;
  std::vector<std::vector<Sketch>> single(4);
  std::vector<std::thread> threads;
  threads.emplace_back(
      [&] { bulk = SketchAllTilesParallel(sketcher, grid, 4); });
  for (size_t t = 0; t < single.size(); ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = t; i < grid.num_tiles(); i += 7) {
        single[t].push_back(sketcher.SketchOf(grid.Tile(i)));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(Sketcher::kernel_sets_generated() - before, 1u);
  ASSERT_EQ(bulk.size(), grid.num_tiles());
  for (size_t i = 0; i < grid.num_tiles(); ++i) {
    EXPECT_TRUE(SameBytes(OneKernelAtATime(sketcher, grid.Tile(i)),
                          bulk[i].values));
  }
  for (size_t t = 0; t < single.size(); ++t) {
    for (size_t n = 0; n < single[t].size(); ++n) {
      EXPECT_TRUE(SameBytes(bulk[t + 7 * n].values, single[t][n].values));
    }
  }
}

TEST(SketcherKernelCacheTest, ConcurrentFirstUsesGenerateEachShapeOnce) {
  constexpr size_t kThreads = 8;
  const table::Matrix data = RandomTable(16, 40, 5);
  const Sketcher dense =
      Sketcher::Create({.p = 1.0, .k = 40, .seed = 3}).value();
  const Sketcher sparse =
      Sketcher::Create({.p = 1.0, .k = 24, .seed = 3, .sparsity = 0.2})
          .value();
  const size_t before = Sketcher::kernel_sets_generated();
  std::vector<std::vector<Sketch>> sketches(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < 4; ++i) {
        sketches[t].push_back(dense.SketchOf(data.Window(i, t, 7, 13)));
        dense.SketchOf(data.Window(t, i, 8, 8));
        sparse.SketchOf(data.Window(t, i, 5, 9));
      }
      dense.MatricesFor(4, 4);
    });
  }
  for (std::thread& thread : threads) thread.join();
  // Two blocked shapes, one row-major shape and one sparse shape. SketchOf
  // built no row-major copy of its shapes.
  EXPECT_EQ(Sketcher::kernel_sets_generated() - before, 4u);
  dense.MatricesFor(7, 13);
  EXPECT_EQ(Sketcher::kernel_sets_generated() - before, 5u);
  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < 4; ++i) {
      EXPECT_TRUE(SameBytes(OneKernelAtATime(dense, data.Window(i, t, 7, 13)),
                            sketches[t][i].values));
    }
  }
}

}  // namespace
}  // namespace tabsketch::core
