#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cluster/exact_backend.h"
#include "cluster/kmeans.h"
#include "cluster/sketch_backend.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/ondemand.h"
#include "core/sketch_io.h"
#include "core/sketch_pool.h"
#include "data/call_volume.h"
#include "data/six_region.h"
#include "eval/confusion.h"
#include "eval/measures.h"
#include "eval/quality.h"
#include "table/tiling.h"

namespace tabsketch {
namespace {

/// The paper's headline mining result in miniature (Figure 4(b)): on the
/// six-region data with 1% outliers, sketched k-means recovers the known
/// clustering essentially perfectly at fractional p, while p = 2 does much
/// worse because outliers dominate squared differences.
TEST(IntegrationTest, FractionalPRecoversPlantedClusters) {
  data::SixRegionOptions options;
  options.rows = 128;
  options.cols = 256;
  options.outlier_fraction = 0.01;
  auto dataset = data::GenerateSixRegion(options);
  ASSERT_TRUE(dataset.ok());
  auto grid = table::TileGrid::Create(&dataset->table, 8, 8);
  ASSERT_TRUE(grid.ok());
  const std::vector<int> truth = data::GroundTruthForTiles(*dataset, *grid);

  auto accuracy_for_p = [&](double p) {
    auto backend = cluster::SketchBackend::Create(
        &*grid, {.p = p, .k = 64, .seed = 99},
        cluster::SketchMode::kPrecomputed);
    EXPECT_TRUE(backend.ok());
    // ++ seeding: the bands have very unequal sizes (down to 1/16 of the
    // data), so uniform-random seeds routinely miss the small bands and
    // Lloyd's cannot split its way back. D^2 seeding lands one seed per
    // band with near-certainty.
    auto result = cluster::RunKMeans(
        &*backend,
        {.k = data::kNumRegions, .max_iterations = 60, .seed = 12345,
         .seeding = cluster::SeedingMethod::kPlusPlus});
    EXPECT_TRUE(result.ok());
    return eval::BestMatchAgreement(truth, result->assignment,
                                    data::kNumRegions);
  };

  const double low_p = accuracy_for_p(0.5);
  const double high_p = accuracy_for_p(2.0);
  EXPECT_GE(low_p, 0.95);
  EXPECT_GT(low_p, high_p);
}

/// Distance-estimation pipeline on realistic call-volume data (Figure 2 in
/// miniature): sketch estimates track exact distances across tile pairs.
TEST(IntegrationTest, SketchDistancesTrackExactOnCallVolume) {
  data::CallVolumeOptions options;
  options.num_stations = 128;
  options.bins_per_day = 96;
  auto volume = data::GenerateCallVolume(options);
  ASSERT_TRUE(volume.ok());
  auto grid = table::TileGrid::Create(&*volume, 16, 16);
  ASSERT_TRUE(grid.ok());

  core::SketchParams params{.p = 1.0, .k = 512, .seed = 7};
  auto sketcher = core::Sketcher::Create(params);
  auto estimator = core::DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<core::Sketch> sketches =
      core::SketchAllTilesParallel(*sketcher, *grid);

  std::vector<double> exact;
  std::vector<double> approx;
  for (size_t a = 0; a < grid->num_tiles(); ++a) {
    const size_t b = (a * 7 + 3) % grid->num_tiles();
    if (a == b) continue;
    exact.push_back(core::LpDistance(grid->Tile(a), grid->Tile(b), 1.0));
    approx.push_back(estimator->Estimate(sketches[a], sketches[b]));
  }
  // All estimates share the same k random matrices, so their errors are
  // correlated and do not average out across pairs; the band reflects the
  // per-seed noise at k = 512, not 1/sqrt(num_pairs) averaging.
  EXPECT_NEAR(eval::CumulativeCorrectness(exact, approx), 1.0, 0.08);
  EXPECT_GE(eval::AverageCorrectness(exact, approx), 0.85);
}

/// Sketch persistence round-trips through disk and keeps clustering results
/// identical: a precomputed pool written by one run is usable by the next.
TEST(IntegrationTest, PersistedSketchesReproduceDistances) {
  data::CallVolumeOptions options;
  options.num_stations = 64;
  options.bins_per_day = 48;
  auto volume = data::GenerateCallVolume(options);
  ASSERT_TRUE(volume.ok());
  auto grid = table::TileGrid::Create(&*volume, 8, 8);
  ASSERT_TRUE(grid.ok());

  core::SketchParams params{.p = 0.5, .k = 32, .seed = 13};
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  core::SketchSet set;
  set.params = params;
  set.object_rows = 8;
  set.object_cols = 8;
  set.sketches = core::SketchAllTilesParallel(*sketcher, *grid);

  const std::string path = ::testing::TempDir() + "/integration_sketches.bin";
  ASSERT_TRUE(core::WriteSketchSet(set, path).ok());
  auto reloaded = core::ReadSketchSet(path);
  ASSERT_TRUE(reloaded.ok());

  auto estimator = core::DistanceEstimator::Create(params);
  ASSERT_TRUE(estimator.ok());
  for (size_t t = 1; t < grid->num_tiles(); t += 5) {
    EXPECT_DOUBLE_EQ(
        estimator->Estimate(set.sketches[0], set.sketches[t]),
        estimator->Estimate(reloaded->sketches[0], reloaded->sketches[t]));
  }
}

/// Pool-based arbitrary-rectangle queries stay consistent with clustering
/// distances: ordering of near/far region pairs is preserved end-to-end.
TEST(IntegrationTest, PoolQueriesOrderRegionsOnSixRegionData) {
  data::SixRegionOptions options;
  options.rows = 64;
  options.cols = 128;
  options.outlier_fraction = 0.0;
  auto dataset = data::GenerateSixRegion(options);
  ASSERT_TRUE(dataset.ok());

  core::SketchParams params{.p = 1.0, .k = 128, .seed = 21};
  core::PoolOptions pool_options;
  pool_options.log2_min_rows = 3;
  pool_options.log2_min_cols = 3;
  auto pool = core::SketchPool::Build(dataset->table, params, pool_options);
  auto estimator = core::DistanceEstimator::Create(params);
  ASSERT_TRUE(pool.ok() && estimator.ok());

  // Rows 0-15 = region 0; rows 16-31 = region 1; rows 32-47 = region 2
  // (for 64 rows). Same-region rectangles should be closer than
  // cross-region ones.
  auto q = [&](size_t row, size_t col) {
    auto sketch = pool->Query(row, col, 12, 20);
    EXPECT_TRUE(sketch.ok());
    return *sketch;
  };
  const core::Sketch region0_a = q(0, 0);
  const core::Sketch region0_b = q(2, 60);
  const core::Sketch region2 = q(34, 30);
  const double same = estimator->Estimate(region0_a, region0_b);
  const double cross = estimator->Estimate(region0_a, region2);
  EXPECT_LT(same, cross);
}

/// Clustering quality measured the paper's way: sketched clustering spread
/// is within a few percent of exact clustering spread on banded data.
TEST(IntegrationTest, SketchedClusteringQualityNearExact) {
  data::SixRegionOptions options;
  options.rows = 128;
  options.cols = 128;
  options.outlier_fraction = 0.0;
  auto dataset = data::GenerateSixRegion(options);
  ASSERT_TRUE(dataset.ok());
  auto grid = table::TileGrid::Create(&dataset->table, 8, 8);
  ASSERT_TRUE(grid.ok());

  cluster::KMeansOptions kmeans{.k = data::kNumRegions, .max_iterations = 60,
                                .seed = 321};
  auto exact_backend = cluster::ExactBackend::Create(&*grid, 1.0);
  auto sketch_backend = cluster::SketchBackend::Create(
      &*grid, {.p = 1.0, .k = 96, .seed = 4}, cluster::SketchMode::kOnDemand);
  ASSERT_TRUE(exact_backend.ok() && sketch_backend.ok());
  auto exact_result = cluster::RunKMeans(&*exact_backend, kmeans);
  auto sketch_result = cluster::RunKMeans(&*sketch_backend, kmeans);
  ASSERT_TRUE(exact_result.ok() && sketch_result.ok());

  const double spread_exact = eval::ClusteringSpread(
      *grid, exact_result->assignment, kmeans.k, 1.0);
  const double spread_sketch = eval::ClusteringSpread(
      *grid, sketch_result->assignment, kmeans.k, 1.0);
  const double quality =
      eval::QualityOfSketchedClusteringPercent(spread_exact, spread_sketch);
  EXPECT_GT(quality, 90.0);
}

}  // namespace
}  // namespace tabsketch
