// Ablation: median estimator vs L2 estimator for p = 2 sketches.
//
// The paper (Section 4.4) notes that "L2 distance is faster to estimate
// with sketches ... since the approximate distance is found by computing the
// L2 distance between the sketches, rather than by running a median
// algorithm, which is slower". This bench quantifies that remark: both
// estimators are consistent for p = 2, so the comparison is cost and
// accuracy at equal k, plus end-to-end clustering time with each.

#include <cstdio>
#include <vector>

#include "cluster/kmeans.h"
#include "cluster/sketch_backend.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/ondemand.h"
#include "core/sketcher.h"
#include "data/call_volume.h"
#include "eval/confusion.h"
#include "eval/measures.h"
#include "rng/xoshiro256.h"
#include "table/tiling.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/timer.h"

namespace {

using tabsketch::core::DistanceEstimator;
using tabsketch::core::EstimatorKind;
using tabsketch::core::LpDistance;
using tabsketch::core::Sketch;
using tabsketch::core::SketchAllTilesParallel;
using tabsketch::core::Sketcher;
using tabsketch::core::SketchParams;

constexpr size_t kNumPairs = 20000;

void AccuracyAndCost(const tabsketch::table::TileGrid& grid,
                     EstimatorKind kind, const char* label) {
  SketchParams params{.p = 2.0, .k = 256, .seed = 5};
  auto sketcher = Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params, kind);
  if (!sketcher.ok() || !estimator.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return;
  }
  const std::vector<Sketch> sketches = SketchAllTilesParallel(*sketcher, grid);

  tabsketch::rng::Xoshiro256 gen(777);
  std::vector<double> exact(kNumPairs), approx(kNumPairs);
  std::vector<std::pair<size_t, size_t>> pairs(kNumPairs);
  for (auto& pair : pairs) {
    pair.first = gen.NextBounded(grid.num_tiles());
    do {
      pair.second = gen.NextBounded(grid.num_tiles());
    } while (pair.second == pair.first);
  }
  for (size_t i = 0; i < kNumPairs; ++i) {
    exact[i] =
        LpDistance(grid.Tile(pairs[i].first), grid.Tile(pairs[i].second),
                   2.0);
  }
  std::vector<double> scratch;
  tabsketch::util::WallTimer timer;
  for (size_t i = 0; i < kNumPairs; ++i) {
    approx[i] = estimator->EstimateWithScratch(
        sketches[pairs[i].first].values, sketches[pairs[i].second].values,
        &scratch);
  }
  const double seconds = timer.ElapsedSeconds();
  std::printf("%10s %14.0f %14.2f %14.2f\n", label,
              1e9 * seconds / static_cast<double>(kNumPairs),
              100.0 * tabsketch::eval::CumulativeCorrectness(exact, approx),
              100.0 * tabsketch::eval::AverageCorrectness(exact, approx));
}

}  // namespace

int main(int argc, char** argv) {
  const tabsketch::util::ObservabilityArgs observability =
      tabsketch::util::EnableObservabilityFromArgs(&argc, argv);
  std::printf("=== Ablation: median vs L2 estimator for p = 2 ===\n");

  tabsketch::data::CallVolumeOptions options;
  options.num_stations = 512;
  options.bins_per_day = 144;
  options.num_days = 4;
  auto volume = tabsketch::data::GenerateCallVolume(options);
  if (!volume.ok()) {
    std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
    return 1;
  }
  auto grid = tabsketch::table::TileGrid::Create(&*volume, 16, 144);
  if (!grid.ok()) {
    std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu tiles of %zu values, k = 256, %zu pairs\n\n",
              grid->num_tiles(), grid->tile_size(), kNumPairs);

  std::printf("%10s %14s %14s %14s\n", "estimator", "ns/compare",
              "cum_corr%", "avg_corr%");
  AccuracyAndCost(*grid, EstimatorKind::kMedian, "median");
  AccuracyAndCost(*grid, EstimatorKind::kL2, "l2");

  // End-to-end clustering with each estimator.
  std::printf("\n20-means end-to-end (precomputed sketches):\n");
  std::printf("%10s %14s %10s\n", "estimator", "cluster_s", "iters");
  for (EstimatorKind kind : {EstimatorKind::kMedian, EstimatorKind::kL2}) {
    auto backend = tabsketch::cluster::SketchBackend::Create(
        &*grid, {.p = 2.0, .k = 256, .seed = 5},
        tabsketch::cluster::SketchMode::kPrecomputed, kind);
    if (!backend.ok()) {
      std::fprintf(stderr, "%s\n", backend.status().ToString().c_str());
      return 1;
    }
    auto result = tabsketch::cluster::RunKMeans(
        &*backend, {.k = 20, .max_iterations = 30, .seed = 2002});
    if (!result.ok()) {
      std::fprintf(stderr, "%s\n", result.status().ToString().c_str());
      return 1;
    }
    std::printf("%10s %14.3f %10zu\n",
                kind == EstimatorKind::kMedian ? "median" : "l2",
                result->seconds, result->iterations);
  }

  std::printf(
      "\nExpected shape: both estimators are accurate; the L2 estimator is\n"
      "several times cheaper per comparison (no selection), which is why\n"
      "the library uses it automatically when p = 2 (EstimatorKind::kAuto).\n");
  return tabsketch::util::FlushObservability(observability) ? 0 : 1;
}
