#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/exact_backend.h"
#include "cluster/kmeans.h"
#include "cluster/seeding.h"
#include "cluster/sketch_backend.h"
#include "eval/confusion.h"
#include "eval/quality.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::cluster {
namespace {

/// Table with `bands` horizontal bands of well-separated levels plus small
/// noise; tiled by rows, ground truth = band id.
struct BandedData {
  table::Matrix data;
  std::vector<int> truth;  // per tile, for the grid below
  size_t tile_rows, tile_cols;
};

BandedData MakeBanded(size_t bands, size_t rows_per_band, size_t cols,
                      size_t tile_rows, size_t tile_cols, uint64_t seed) {
  BandedData out;
  out.tile_rows = tile_rows;
  out.tile_cols = tile_cols;
  const size_t rows = bands * rows_per_band;
  out.data = table::Matrix(rows, cols);
  rng::Xoshiro256 gen(seed);
  for (size_t r = 0; r < rows; ++r) {
    const double level = 100.0 * static_cast<double>(1 + r / rows_per_band);
    for (size_t c = 0; c < cols; ++c) {
      out.data(r, c) = level + gen.NextDouble();
    }
  }
  const size_t grid_rows = rows / tile_rows;
  const size_t grid_cols = cols / tile_cols;
  for (size_t gr = 0; gr < grid_rows; ++gr) {
    for (size_t gc = 0; gc < grid_cols; ++gc) {
      out.truth.push_back(
          static_cast<int>((gr * tile_rows + tile_rows / 2) / rows_per_band));
    }
  }
  return out;
}

TEST(SeedingTest, RandomDistinctIndicesAreDistinctAndInRange) {
  const auto indices = RandomDistinctIndices(100, 20, 5);
  EXPECT_EQ(indices.size(), 20u);
  std::set<size_t> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t index : indices) EXPECT_LT(index, 100u);
}

TEST(SeedingTest, RandomDistinctFullDraw) {
  const auto indices = RandomDistinctIndices(5, 5, 7);
  std::set<size_t> unique(indices.begin(), indices.end());
  EXPECT_EQ(unique.size(), 5u);
}

TEST(SeedingTest, DeterministicPerSeed) {
  EXPECT_EQ(RandomDistinctIndices(50, 10, 3), RandomDistinctIndices(50, 10, 3));
  EXPECT_NE(RandomDistinctIndices(50, 10, 3), RandomDistinctIndices(50, 10, 4));
}

TEST(SeedingTest, PlusPlusSpreadsAcrossBands) {
  // With two far-apart bands, ++ seeding with k=2 should pick one tile from
  // each band essentially always.
  BandedData banded = MakeBanded(2, 8, 16, 4, 4, 11);
  auto grid = table::TileGrid::Create(&banded.data, banded.tile_rows,
                                      banded.tile_cols);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  const auto seeds = KMeansPlusPlusIndices(&*backend, 2, 9);
  ASSERT_EQ(seeds.size(), 2u);
  EXPECT_NE(banded.truth[seeds[0]], banded.truth[seeds[1]]);
}

TEST(ExactBackendTest, RejectsBadP) {
  table::Matrix data(4, 4);
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  EXPECT_FALSE(ExactBackend::Create(&*grid, 0.0).ok());
  EXPECT_FALSE(ExactBackend::Create(&*grid, 2.5).ok());
}

TEST(ExactBackendTest, CentroidIsMeanOfMembers) {
  table::Matrix data(2, 4, {0, 0, 10, 10,
                            0, 0, 20, 20});
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  backend->InitCentroidsFromObjects({0});
  backend->UpdateCentroids({0, 0});
  // Mean of the two tiles: [(0+10)/2, ...] = 5/5/10/10... row0: (0+10)/2=5,
  // (0+10)/2=5; row1: (0+20)/2=10, (0+20)/2=10.
  const table::Matrix& centroid = backend->centroid(0);
  EXPECT_DOUBLE_EQ(centroid(0, 0), 5.0);
  EXPECT_DOUBLE_EQ(centroid(0, 1), 5.0);
  EXPECT_DOUBLE_EQ(centroid(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(centroid(1, 1), 10.0);
}

TEST(ExactBackendTest, EmptyClusterKeepsCentroid) {
  table::Matrix data(2, 4, {1, 1, 9, 9, 1, 1, 9, 9});
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  backend->InitCentroidsFromObjects({0, 1});
  const table::Matrix before = backend->centroid(1);
  backend->UpdateCentroids({0, 0});  // cluster 1 empty
  EXPECT_TRUE(backend->centroid(1) == before);
}

TEST(ExactBackendTest, DistanceCountsEvaluations) {
  table::Matrix data(2, 4);
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  backend->InitCentroidsFromObjects({0});
  EXPECT_EQ(backend->distance_evaluations(), 0u);
  backend->Distance(0, 0);
  backend->ObjectDistance(0, 1);
  EXPECT_EQ(backend->distance_evaluations(), 2u);
}

TEST(SketchBackendTest, PrecomputedSketchesAllTilesUpFront) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 21);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = SketchBackend::Create(&*grid, {.p = 1.0, .k = 32, .seed = 3},
                                       SketchMode::kPrecomputed);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend->sketches_computed(), grid->num_tiles());
  EXPECT_EQ(backend->name(), "sketch-precomputed");
}

TEST(SketchBackendTest, OnDemandSketchesLazily) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 22);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = SketchBackend::Create(&*grid, {.p = 1.0, .k = 32, .seed = 3},
                                       SketchMode::kOnDemand);
  ASSERT_TRUE(backend.ok());
  EXPECT_EQ(backend->sketches_computed(), 0u);
  backend->ObjectDistance(0, 1);
  EXPECT_EQ(backend->sketches_computed(), 2u);
  EXPECT_EQ(backend->name(), "sketch-on-demand");
}

TEST(SketchBackendTest, CentroidSketchIsMeanOfMemberSketches) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 23);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = SketchBackend::Create(&*grid, {.p = 1.0, .k = 8, .seed = 3},
                                       SketchMode::kPrecomputed);
  ASSERT_TRUE(backend.ok());
  backend->InitCentroidsFromObjects({0});
  std::vector<int> assignment(grid->num_tiles(), -1);
  assignment[0] = 0;
  assignment[1] = 0;
  backend->UpdateCentroids(assignment);
  // Distance from the centroid to itself is zero only if centroid = mean of
  // sketches 0,1; check against a manual mean via ObjectDistance symmetry:
  // d(centroid, tile0) must equal d(centroid, tile1) when tiles are
  // symmetric... simpler: verify zero distance to the manual mean.
  // Reconstruct the mean sketch manually.
  auto sketcher = core::Sketcher::Create({.p = 1.0, .k = 8, .seed = 3});
  ASSERT_TRUE(sketcher.ok());
  core::Sketch mean = sketcher->SketchOf(grid->Tile(0));
  mean.Add(sketcher->SketchOf(grid->Tile(1)));
  mean.Scale(0.5);
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_NEAR(backend->centroid(0).values[i], mean.values[i], 1e-9);
  }
}

TEST(SketchBackendTest, NearestCentroidTieAndAllNaNWithAndWithoutCodes) {
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 5);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  table::Matrix all_nan(8, 8);
  all_nan.Fill(std::numeric_limits<double>::quiet_NaN());
  auto nan_grid = table::TileGrid::Create(&all_nan, 4, 4);
  ASSERT_TRUE(nan_grid.ok());
  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8,
        core::QuantKind::kInt16}) {
    SCOPED_TRACE(core::QuantKindName(quant));
    auto backend =
        SketchBackend::Create(&*grid, params, SketchMode::kPrecomputed,
                              core::EstimatorKind::kAuto, 1, 0, quant);
    ASSERT_TRUE(backend.ok()) << backend.status().ToString();
    // Centroids 0 and 2 are both tile 3, so they tie for every object and
    // the lower index must win each time.
    backend->InitCentroidsFromObjects({3, 40, 3});
    for (size_t object = 0; object < backend->num_objects(); ++object) {
      const int best = backend->NearestCentroid(object, -1);
      EXPECT_TRUE(best == 0 || best == 1) << "object " << object;
    }
    EXPECT_EQ(backend->NearestCentroid(3, -1), 0);

    // Every distance is NaN on an all-NaN table: nothing is assignable.
    auto nan_backend =
        SketchBackend::Create(&*nan_grid, params, SketchMode::kPrecomputed,
                              core::EstimatorKind::kAuto, 1, 0, quant);
    ASSERT_TRUE(nan_backend.ok()) << nan_backend.status().ToString();
    nan_backend->InitCentroidsFromObjects({0, 1});
    for (size_t object = 0; object < nan_backend->num_objects(); ++object) {
      EXPECT_EQ(nan_backend->NearestCentroid(object, -1), -1);
    }
  }
}

TEST(KMeansTest, RejectsBadK) {
  table::Matrix data(4, 4);
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  EXPECT_FALSE(RunKMeans(&*backend, {.k = 0}).ok());
  EXPECT_FALSE(RunKMeans(&*backend, {.k = 5}).ok());
}

TEST(KMeansTest, RecoversWellSeparatedBandsExact) {
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 31);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 3, .max_iterations = 50,
                                      .seed = 17});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->converged);
  EXPECT_DOUBLE_EQ(
      eval::BestMatchAgreement(banded.truth, result->assignment, 3), 1.0);
}

class KMeansSketchRecoveryTest
    : public ::testing::TestWithParam<std::tuple<double, SketchMode>> {};

TEST_P(KMeansSketchRecoveryTest, RecoversWellSeparatedBands) {
  const double p = std::get<0>(GetParam());
  const SketchMode mode = std::get<1>(GetParam());
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 37);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = SketchBackend::Create(&*grid, {.p = p, .k = 64, .seed = 5},
                                       mode);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 3, .max_iterations = 50,
                                      .seed = 17});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(
      eval::BestMatchAgreement(banded.truth, result->assignment, 3), 1.0)
      << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(
    PsAndModes, KMeansSketchRecoveryTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(SketchMode::kPrecomputed,
                                         SketchMode::kOnDemand)));

TEST(KMeansTest, SketchAndExactClusteringsAgree) {
  BandedData banded = MakeBanded(4, 8, 32, 4, 4, 41);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto exact = ExactBackend::Create(&*grid, 1.0);
  auto sketch = SketchBackend::Create(&*grid, {.p = 1.0, .k = 64, .seed = 5},
                                      SketchMode::kPrecomputed);
  ASSERT_TRUE(exact.ok() && sketch.ok());
  KMeansOptions options{.k = 4, .max_iterations = 50, .seed = 19};
  auto exact_result = RunKMeansBestOfRestarts(&*exact, options, 3);
  auto sketch_result = RunKMeansBestOfRestarts(&*sketch, options, 3);
  ASSERT_TRUE(exact_result.ok() && sketch_result.ok());
  // The two routines may settle in different local minima; the paper's
  // claim is that the sketched clustering is *as good*, with label
  // agreement usually (not always) high. Assert quality parity strictly
  // and agreement loosely.
  const double spread_exact =
      eval::ClusteringSpread(*grid, exact_result->assignment, 4, 1.0);
  const double spread_sketch =
      eval::ClusteringSpread(*grid, sketch_result->assignment, 4, 1.0);
  EXPECT_LT(spread_sketch, 1.1 * spread_exact);
  EXPECT_GE(eval::BestMatchAgreement(exact_result->assignment,
                                     sketch_result->assignment, 4),
            0.75);
}

TEST(KMeansTest, DeterministicGivenSeed) {
  BandedData banded = MakeBanded(2, 8, 32, 4, 4, 43);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto b1 = ExactBackend::Create(&*grid, 1.0);
  auto b2 = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(b1.ok() && b2.ok());
  KMeansOptions options{.k = 2, .max_iterations = 20, .seed = 7};
  auto r1 = RunKMeans(&*b1, options);
  auto r2 = RunKMeans(&*b2, options);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_EQ(r1->assignment, r2->assignment);
  EXPECT_EQ(r1->iterations, r2->iterations);
}

TEST(KMeansTest, EveryObjectAssigned) {
  BandedData banded = MakeBanded(2, 8, 32, 4, 4, 47);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 0.5);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 3, .max_iterations = 10,
                                      .seed = 23});
  ASSERT_TRUE(result.ok());
  for (int cluster : result->assignment) {
    EXPECT_GE(cluster, 0);
    EXPECT_LT(cluster, 3);
  }
}

TEST(KMeansTest, NoEmptyClustersOnDuplicateHeavyData) {
  // All tiles identical except one: k=3 forces empty-cluster revival.
  table::Matrix data(4, 16);
  data.Fill(5.0);
  data(0, 0) = 500.0;
  auto grid = table::TileGrid::Create(&data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 3, .max_iterations = 20,
                                      .seed = 29});
  ASSERT_TRUE(result.ok());
  // The run must terminate and assign everything.
  for (int cluster : result->assignment) EXPECT_GE(cluster, 0);
}

TEST(KMeansTest, PlusPlusSeedingWorksEndToEnd) {
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 53);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend,
                          {.k = 3, .max_iterations = 50, .seed = 31,
                           .seeding = SeedingMethod::kPlusPlus});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(
      eval::BestMatchAgreement(banded.truth, result->assignment, 3), 1.0);
}

TEST(KMeansTest, ObjectiveIsSumOfAssignedDistances) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 61);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 2, .max_iterations = 20,
                                      .seed = 41});
  ASSERT_TRUE(result.ok());
  double expected = 0.0;
  for (size_t object = 0; object < grid->num_tiles(); ++object) {
    expected += backend->Distance(
        object, static_cast<size_t>(result->assignment[object]));
  }
  EXPECT_NEAR(result->objective, expected, 1e-9);
}

TEST(KMeansTest, BestOfRestartsRejectsZero) {
  table::Matrix data(4, 4);
  auto grid = table::TileGrid::Create(&data, 2, 2);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  EXPECT_FALSE(RunKMeansBestOfRestarts(&*backend, {.k = 2}, 0).ok());
}

TEST(KMeansTest, BestOfRestartsNeverWorseThanFirstAttempt) {
  BandedData banded = MakeBanded(4, 8, 32, 4, 4, 67);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());

  KMeansOptions options{.k = 4, .max_iterations = 30, .seed = 5};
  auto single_backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(single_backend.ok());
  KMeansOptions first = options;
  first.seed = rng::MixSeeds(options.seed, 0);
  auto single = RunKMeans(&*single_backend, first);
  ASSERT_TRUE(single.ok());

  auto multi_backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(multi_backend.ok());
  auto multi = RunKMeansBestOfRestarts(&*multi_backend, options, 4);
  ASSERT_TRUE(multi.ok());
  EXPECT_LE(multi->objective, single->objective + 1e-9);
}

TEST(KMeansTest, BestOfRestartsAccumulatesEvaluations) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 71);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeansBestOfRestarts(
      &*backend, {.k = 2, .max_iterations = 10, .seed = 3}, 3);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->distance_evaluations, backend->distance_evaluations());
}

/// Backend whose distances to a chosen centroid (or from a chosen object)
/// are NaN — models corrupt data (e.g. tiles containing NaN cells), the
/// regression behind the out-of-bounds objective crash.
class NanBackend : public ClusteringBackend {
 public:
  /// `poison_objects`: objects whose every distance evaluates to NaN.
  NanBackend(std::vector<double> positions, std::set<size_t> poison_objects)
      : positions_(std::move(positions)),
        poison_objects_(std::move(poison_objects)) {}

  size_t num_objects() const override { return positions_.size(); }
  void InitCentroidsFromObjects(
      const std::vector<size_t>& object_indices) override {
    centroids_.clear();
    for (size_t index : object_indices) {
      centroids_.push_back(positions_[index]);
    }
  }
  size_t num_centroids() const override { return centroids_.size(); }
  double Distance(size_t object, size_t centroid) override {
    ++distance_evaluations_;
    EXPECT_LT(object, positions_.size()) << "OOB object index";
    EXPECT_LT(centroid, centroids_.size()) << "OOB centroid index";
    if (poison_objects_.count(object) > 0) {
      return std::numeric_limits<double>::quiet_NaN();
    }
    return std::abs(positions_[object] - centroids_[centroid]);
  }
  double ObjectDistance(size_t a, size_t b) override {
    ++distance_evaluations_;
    return std::abs(positions_[a] - positions_[b]);
  }
  void UpdateCentroids(const std::vector<int>& assignment) override {
    std::vector<double> sums(centroids_.size(), 0.0);
    std::vector<size_t> counts(centroids_.size(), 0);
    for (size_t object = 0; object < assignment.size(); ++object) {
      if (assignment[object] < 0) continue;
      sums[static_cast<size_t>(assignment[object])] += positions_[object];
      ++counts[static_cast<size_t>(assignment[object])];
    }
    for (size_t cluster = 0; cluster < centroids_.size(); ++cluster) {
      if (counts[cluster] > 0) {
        centroids_[cluster] =
            sums[cluster] / static_cast<double>(counts[cluster]);
      }
    }
  }
  void ResetCentroidToObject(size_t centroid, size_t object) override {
    centroids_[centroid] = positions_[object];
  }
  std::string name() const override { return "nan-mock"; }

 private:
  std::vector<double> positions_;
  std::set<size_t> poison_objects_;
  std::vector<double> centroids_;
};

TEST(KMeansTest, NanDistancesDoNotCrashOrEscape) {
  // Objects 2 and 5 produce NaN against every centroid. Before the fix,
  // AssignAll left them at -1 and the objective pass cast -1 to size_t —
  // an out-of-bounds centroid index. Now: the run completes, unassigned
  // objects are skipped in the objective, and the objective is finite.
  NanBackend backend({0.0, 0.1, 10.0, 5.0, 5.2, 7.0, 0.2, 5.1}, {2, 5});
  auto result = RunKMeans(&backend, {.k = 2, .max_iterations = 10, .seed = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(std::isfinite(result->objective));
  EXPECT_EQ(result->assignment[2], -1);
  EXPECT_EQ(result->assignment[5], -1);
  for (size_t object : {0u, 1u, 3u, 4u, 6u, 7u}) {
    EXPECT_GE(result->assignment[object], 0) << "object " << object;
    EXPECT_LT(result->assignment[object], 2) << "object " << object;
  }
}

TEST(KMeansTest, AllNanDistancesStillTerminate) {
  // Every object poisoned: nothing can be assigned; the run must terminate
  // with a zero objective instead of crashing.
  NanBackend backend({1.0, 2.0, 3.0, 4.0}, {0, 1, 2, 3});
  auto result = RunKMeans(&backend, {.k = 2, .max_iterations = 5, .seed = 3});
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->objective, 0.0);
  for (int cluster : result->assignment) EXPECT_EQ(cluster, -1);
}

TEST(KMeansTest, ParallelAssignmentsMatchSequential) {
  // The acceptance contract of the threaded hot loop: identical assignments
  // (and objective) for every thread count, on every backend flavor.
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 73);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());

  const auto run = [&](const char* which, size_t threads) {
    KMeansOptions options{.k = 3, .max_iterations = 30, .seed = 13,
                          .threads = threads};
    if (std::string(which) == "exact") {
      auto backend = ExactBackend::Create(&*grid, 1.0);
      EXPECT_TRUE(backend.ok());
      return RunKMeans(&*backend, options).value();
    }
    const SketchMode mode = std::string(which) == "precomputed"
                                ? SketchMode::kPrecomputed
                                : SketchMode::kOnDemand;
    auto backend = SketchBackend::Create(
        &*grid, {.p = 1.0, .k = 64, .seed = 5}, mode,
        core::EstimatorKind::kAuto, threads);
    EXPECT_TRUE(backend.ok());
    return RunKMeans(&*backend, options).value();
  };

  for (const char* which : {"exact", "precomputed", "ondemand"}) {
    const KMeansResult sequential = run(which, 1);
    for (size_t threads : {2u, 8u}) {
      const KMeansResult parallel = run(which, threads);
      EXPECT_EQ(parallel.assignment, sequential.assignment)
          << which << " threads=" << threads;
      EXPECT_EQ(parallel.iterations, sequential.iterations)
          << which << " threads=" << threads;
      EXPECT_DOUBLE_EQ(parallel.objective, sequential.objective)
          << which << " threads=" << threads;
    }
  }
}

TEST(KMeansTest, QuantPrefilterAssignmentsAreByteIdentical) {
  // The quantized code-scan prefilter may only skip centroids that provably
  // cannot win the argmin; every assignment, iteration count and objective
  // must match the unquantized backend exactly — across widths, modes,
  // thread counts and a starved LRU budget.
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 91);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());

  const auto run = [&](SketchMode mode, core::QuantKind quant, size_t threads,
                       size_t cache_bytes) {
    auto backend = SketchBackend::Create(
        &*grid, {.p = 1.0, .k = 64, .seed = 5}, mode,
        core::EstimatorKind::kAuto, threads, cache_bytes, quant);
    EXPECT_TRUE(backend.ok()) << backend.status().ToString();
    return RunKMeans(&*backend, {.k = 3, .max_iterations = 30, .seed = 13,
                                 .threads = threads})
        .value();
  };

  const KMeansResult reference =
      run(SketchMode::kPrecomputed, core::QuantKind::kOff, 1, 0);
  for (core::QuantKind quant :
       {core::QuantKind::kInt8, core::QuantKind::kInt16}) {
    for (SketchMode mode :
         {SketchMode::kPrecomputed, SketchMode::kOnDemand}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        for (size_t cache_bytes : {size_t{0}, size_t{1024}}) {
          if (mode == SketchMode::kPrecomputed && cache_bytes != 0) continue;
          const KMeansResult result = run(mode, quant, threads, cache_bytes);
          EXPECT_EQ(result.assignment, reference.assignment)
              << core::QuantKindName(quant) << " threads=" << threads
              << " cache_bytes=" << cache_bytes;
          EXPECT_EQ(result.iterations, reference.iterations);
          EXPECT_DOUBLE_EQ(result.objective, reference.objective);
        }
      }
    }
  }
}

TEST(KMeansTest, QuantPrefilterHandlesNaNDataIdentically) {
  // A tile with NaN data gets an unusable code row; the prefilter must keep
  // it an unconditional candidate and reproduce the unquantized assignment
  // (including the -1 for the all-NaN tile itself).
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, 17);
  for (size_t c = 0; c < 32; ++c) {
    for (size_t r = 4; r < 8; ++r) {
      banded.data(r, c) = std::numeric_limits<double>::quiet_NaN();
    }
  }
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());

  const auto run = [&](core::QuantKind quant) {
    auto backend = SketchBackend::Create(
        &*grid, {.p = 1.0, .k = 64, .seed = 5}, SketchMode::kPrecomputed,
        core::EstimatorKind::kAuto, 1, 0, quant);
    EXPECT_TRUE(backend.ok()) << backend.status().ToString();
    return RunKMeans(&*backend, {.k = 3, .max_iterations = 20, .seed = 29})
        .value();
  };
  const KMeansResult reference = run(core::QuantKind::kOff);
  const KMeansResult quantized = run(core::QuantKind::kInt8);
  EXPECT_EQ(quantized.assignment, reference.assignment);
  EXPECT_EQ(quantized.iterations, reference.iterations);
}

TEST(KMeansTest, QuantPrefilterNeverIncreasesEvaluations) {
  BandedData banded = MakeBanded(4, 8, 32, 4, 4, 33);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  const auto evals = [&](core::QuantKind quant) {
    auto backend = SketchBackend::Create(
        &*grid, {.p = 1.0, .k = 64, .seed = 5}, SketchMode::kPrecomputed,
        core::EstimatorKind::kAuto, 1, 0, quant);
    EXPECT_TRUE(backend.ok());
    auto result = RunKMeans(&*backend, {.k = 4, .max_iterations = 30,
                                        .seed = 7});
    EXPECT_TRUE(result.ok());
    return result->distance_evaluations;
  };
  EXPECT_LE(evals(core::QuantKind::kInt16), evals(core::QuantKind::kOff));
}

TEST(KMeansTest, ReportsDistanceEvaluations) {
  BandedData banded = MakeBanded(2, 4, 16, 4, 4, 59);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto backend = ExactBackend::Create(&*grid, 1.0);
  ASSERT_TRUE(backend.ok());
  auto result = RunKMeans(&*backend, {.k = 2, .max_iterations = 10,
                                      .seed = 37});
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->distance_evaluations, 0u);
  EXPECT_EQ(result->distance_evaluations, backend->distance_evaluations());
}

// --- Rejection by count in the assignment scan ------------------------------

/// The argmin NearestCentroid must return, by brute force: every centroid's
/// full estimate in index order, the first of the smallest finite ones.
int BruteForceNearest(ClusteringBackend* backend, size_t object) {
  int best = -1;
  double best_distance = 0.0;
  for (size_t c = 0; c < backend->num_centroids(); ++c) {
    const double d = backend->Distance(object, c);
    if (!std::isfinite(d)) continue;  // NaN and +inf never win
    if (best < 0 || d < best_distance) {
      best = static_cast<int>(c);
      best_distance = d;
    }
  }
  return best;
}

/// Banded table with corrupt tiles patched in: a NaN cell in tile 5, a +inf
/// and a -inf cell in tile 9 (their sum is NaN in some components), a +inf
/// cell in tile 20 and a subnormal and a -0.0 in tile 30. 4x4 tiles, 6x8 grid.
BandedData MakeCorruptBanded(uint64_t seed) {
  BandedData banded = MakeBanded(3, 8, 32, 4, 4, seed);
  const auto cell = [&](size_t tile, size_t dr, size_t dc) -> double& {
    return banded.data(tile / 8 * 4 + dr, tile % 8 * 4 + dc);
  };
  cell(5, 1, 2) = std::numeric_limits<double>::quiet_NaN();
  cell(9, 0, 0) = std::numeric_limits<double>::infinity();
  cell(9, 3, 1) = -std::numeric_limits<double>::infinity();
  cell(20, 2, 2) = std::numeric_limits<double>::infinity();
  cell(30, 0, 3) = std::numeric_limits<double>::denorm_min();
  cell(30, 1, 1) = -0.0;
  return banded;
}

TEST(NearestCentroidRejectionTest, MatchesBruteForceForEveryPrevious) {
  BandedData banded = MakeCorruptBanded(41);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  for (const double p : {0.5, 1.0, 2.0}) {
    for (const size_t k : {size_t{3}, size_t{64}}) {
      for (const double sparsity : {1.0, 0.25}) {
        for (const core::QuantKind quant :
             {core::QuantKind::kOff, core::QuantKind::kInt8,
              core::QuantKind::kInt16}) {
          SCOPED_TRACE(testing::Message()
                       << "p=" << p << " k=" << k << " s=" << sparsity
                       << " quant=" << core::QuantKindName(quant));
          auto backend = SketchBackend::Create(
              &*grid, {.p = p, .k = k, .seed = 9, .sparsity = sparsity},
              SketchMode::kPrecomputed, core::EstimatorKind::kAuto, 1, 0,
              quant);
          ASSERT_TRUE(backend.ok()) << backend.status().ToString();
          // Centroids 0 and 2 are tile 3, 1 and 6 are tile 40 (ties); 3 and
          // 4 are the NaN tiles 5 and 9.
          backend->InitCentroidsFromObjects({3, 40, 3, 5, 9, 17, 40});
          const size_t centroids = backend->num_centroids();
          for (int phase = 0; phase < 2; ++phase) {
            if (phase == 1) {
              // Centroid 0 becomes the mean of tiles 0-7 (tile 5 included),
              // centroid 1 that of tiles 8-15 without tile 9; the rest keep
              // their tiles.
              std::vector<int> assignment(backend->num_objects(), -1);
              for (size_t o = 0; o < 16; ++o) {
                if (o != 9) assignment[o] = o < 8 ? 0 : 1;
              }
              backend->UpdateCentroids(assignment);
            }
            size_t calls = 0;
            size_t evals = 0;
            for (size_t object = 0; object < backend->num_objects();
                 ++object) {
              const int want = BruteForceNearest(&*backend, object);
              for (int previous = -1;
                   previous < static_cast<int>(centroids); ++previous) {
                const size_t before = backend->distance_evaluations();
                EXPECT_EQ(backend->NearestCentroid(object, previous), want)
                    << "phase " << phase << " object " << object
                    << " previous " << previous;
                evals += backend->distance_evaluations() - before;
                ++calls;
              }
            }
            // Pruning is live: fewer full estimates than the full scan,
            // except at p = 2 without codes, where the L2 estimator never
            // rejects by count.
            if (p == 2.0 && quant == core::QuantKind::kOff) {
              EXPECT_EQ(evals, calls * centroids) << "phase " << phase;
            } else {
              EXPECT_LT(evals, calls * centroids) << "phase " << phase;
            }
          }
        }
      }
    }
  }
}

TEST(NearestCentroidRejectionTest, AllNaNTableIsUnassignableForEveryPrevious) {
  table::Matrix all_nan(8, 8);
  all_nan.Fill(std::numeric_limits<double>::quiet_NaN());
  auto grid = table::TileGrid::Create(&all_nan, 4, 4);
  ASSERT_TRUE(grid.ok());
  for (const double p : {0.5, 2.0}) {
    for (const core::QuantKind quant :
         {core::QuantKind::kOff, core::QuantKind::kInt8,
          core::QuantKind::kInt16}) {
      SCOPED_TRACE(testing::Message()
                   << "p=" << p << " quant=" << core::QuantKindName(quant));
      auto backend = SketchBackend::Create(
          &*grid, {.p = p, .k = 33, .seed = 5}, SketchMode::kPrecomputed,
          core::EstimatorKind::kAuto, 1, 0, quant);
      ASSERT_TRUE(backend.ok()) << backend.status().ToString();
      backend->InitCentroidsFromObjects({0, 1, 0});
      for (size_t object = 0; object < backend->num_objects(); ++object) {
        for (int previous = -1; previous < 3; ++previous) {
          EXPECT_EQ(backend->NearestCentroid(object, previous), -1);
        }
      }
    }
  }
}

/// Forwards everything to a SketchBackend but keeps the base class's
/// NearestCentroid: the unpruned index-order scan of Distance() that the
/// pruned scan must reproduce.
class FullScan : public ClusteringBackend {
 public:
  explicit FullScan(SketchBackend* inner) : inner_(inner) {}
  size_t num_objects() const override { return inner_->num_objects(); }
  void InitCentroidsFromObjects(
      const std::vector<size_t>& object_indices) override {
    inner_->InitCentroidsFromObjects(object_indices);
  }
  size_t num_centroids() const override { return inner_->num_centroids(); }
  double Distance(size_t object, size_t centroid) override {
    return inner_->Distance(object, centroid);
  }
  double ObjectDistance(size_t a, size_t b) override {
    return inner_->ObjectDistance(a, b);
  }
  void UpdateCentroids(const std::vector<int>& assignment) override {
    inner_->UpdateCentroids(assignment);
  }
  void ResetCentroidToObject(size_t centroid, size_t object) override {
    inner_->ResetCentroidToObject(centroid, object);
  }
  std::string name() const override { return inner_->name(); }

 private:
  SketchBackend* inner_;
};

TEST(NearestCentroidRejectionTest, KMeansMatchesTheFullScanBitForBit) {
  BandedData banded = MakeCorruptBanded(43);
  auto grid = table::TileGrid::Create(&banded.data, 4, 4);
  ASSERT_TRUE(grid.ok());
  struct Config {
    SketchMode mode;
    core::QuantKind quant;
    size_t cache_bytes;
  };
  for (const double p : {0.5, 1.0, 2.0}) {
    for (const Config config :
         {Config{SketchMode::kPrecomputed, core::QuantKind::kOff, 0},
          Config{SketchMode::kOnDemand, core::QuantKind::kInt16, 0},
          // Room for about six of the 48 sketches: most lookups recompute.
          Config{SketchMode::kOnDemand, core::QuantKind::kOff, 6 * 64 * 8}}) {
      for (const size_t threads : {size_t{1}, size_t{4}}) {
        SCOPED_TRACE(testing::Message()
                     << "p=" << p << " quant="
                     << core::QuantKindName(config.quant)
                     << " cache=" << config.cache_bytes
                     << " threads=" << threads);
        const core::SketchParams params{.p = p, .k = 64, .seed = 5};
        const auto make = [&] {
          return SketchBackend::Create(&*grid, params, config.mode,
                                       core::EstimatorKind::kAuto, threads,
                                       config.cache_bytes, config.quant)
              .value();
        };
        SketchBackend pruned = make();
        SketchBackend inner = make();
        FullScan full(&inner);
        const KMeansOptions options{
            .k = 5, .max_iterations = 20, .seed = 17, .threads = threads};
        const KMeansResult got = RunKMeans(&pruned, options).value();
        const KMeansResult want = RunKMeans(&full, options).value();
        EXPECT_EQ(got.assignment, want.assignment);
        EXPECT_EQ(got.objective, want.objective);
        EXPECT_EQ(got.iterations, want.iterations);
        EXPECT_EQ(got.converged, want.converged);
        if (p == 2.0 && config.quant == core::QuantKind::kOff) {
          EXPECT_EQ(pruned.distance_evaluations(),
                    inner.distance_evaluations());
        } else {
          EXPECT_LT(pruned.distance_evaluations(),
                    inner.distance_evaluations());
        }
      }
    }
  }
}

}  // namespace
}  // namespace tabsketch::cluster
