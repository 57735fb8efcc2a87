// Ablation: sketch size k vs estimation accuracy and comparison cost.
//
// The paper states that "the accuracy of sketching can be improved by using
// larger sized sketches" (Section 4.3) and the theory gives
// k = O(log(1/delta)/eps^2) (Theorem 2). This bench quantifies the tradeoff
// on synthetic call-volume tiles: average/pairwise correctness and
// per-comparison latency as k sweeps 16 ... 1024, for a fractional, the L1
// and the L2 norm.

#include <cstdio>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/ondemand.h"
#include "core/sketcher.h"
#include "data/call_volume.h"
#include "eval/measures.h"
#include "rng/xoshiro256.h"
#include "table/tiling.h"
#include "util/metrics.h"
#include "util/observability.h"
#include "util/timer.h"

namespace {

using tabsketch::core::DistanceEstimator;
using tabsketch::core::LpDistance;
using tabsketch::core::Sketch;
using tabsketch::core::SketchAllTilesParallel;
using tabsketch::core::Sketcher;
using tabsketch::core::SketchParams;

constexpr size_t kNumPairs = 4000;

}  // namespace

int main(int argc, char** argv) {
  const tabsketch::util::ObservabilityArgs observability =
      tabsketch::util::EnableObservabilityFromArgs(&argc, argv);
  std::printf("=== Ablation: sketch size k (accuracy vs cost) ===\n");

  tabsketch::data::CallVolumeOptions options;
  options.num_stations = 256;
  options.bins_per_day = 144;
  auto volume = tabsketch::data::GenerateCallVolume(options);
  if (!volume.ok()) {
    std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
    return 1;
  }
  auto grid = tabsketch::table::TileGrid::Create(&*volume, 16, 16);
  if (!grid.ok()) {
    std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
    return 1;
  }
  std::printf("%zu tiles of %zu values, %zu random pairs per row\n\n",
              grid->num_tiles(), grid->tile_size(), kNumPairs);

  // Random tile pairs and triples, shared across all rows.
  tabsketch::rng::Xoshiro256 gen(12345);
  std::vector<size_t> xs(kNumPairs), ys(kNumPairs), zs(kNumPairs);
  for (size_t i = 0; i < kNumPairs; ++i) {
    xs[i] = gen.NextBounded(grid->num_tiles());
    do {
      ys[i] = gen.NextBounded(grid->num_tiles());
    } while (ys[i] == xs[i]);
    do {
      zs[i] = gen.NextBounded(grid->num_tiles());
    } while (zs[i] == xs[i] || zs[i] == ys[i]);
  }

  for (double p : {0.5, 1.0, 2.0}) {
    // Exact references.
    std::vector<double> exact_xy(kNumPairs), exact_xz(kNumPairs);
    for (size_t i = 0; i < kNumPairs; ++i) {
      exact_xy[i] = LpDistance(grid->Tile(xs[i]), grid->Tile(ys[i]), p);
      exact_xz[i] = LpDistance(grid->Tile(xs[i]), grid->Tile(zs[i]), p);
    }

    std::printf("--- p = %.1f ---\n", p);
    std::printf("%8s %12s %12s %16s\n", "k", "avg_corr%", "pair_corr%",
                "ns/comparison");
    for (size_t k : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
      SketchParams params{.p = p, .k = k, .seed = 9};
      auto sketcher = Sketcher::Create(params);
      auto estimator = DistanceEstimator::Create(params);
      if (!sketcher.ok() || !estimator.ok()) {
        std::fprintf(stderr, "setup failed\n");
        return 1;
      }
      const std::vector<Sketch> sketches =
          SketchAllTilesParallel(*sketcher, *grid);

      std::vector<double> approx_xy(kNumPairs), approx_xz(kNumPairs);
      std::vector<double> scratch;
      tabsketch::util::WallTimer timer;
      for (size_t i = 0; i < kNumPairs; ++i) {
        approx_xy[i] = estimator->EstimateWithScratch(
            sketches[xs[i]].values, sketches[ys[i]].values, &scratch);
      }
      const double seconds = timer.ElapsedSeconds();
      for (size_t i = 0; i < kNumPairs; ++i) {
        approx_xz[i] = estimator->EstimateWithScratch(
            sketches[xs[i]].values, sketches[zs[i]].values, &scratch);
      }

      const double average =
          tabsketch::eval::AverageCorrectness(exact_xy, approx_xy);
      const double pairwise =
          tabsketch::eval::PairwiseComparisonCorrectness(
              exact_xy, exact_xz, approx_xy, approx_xz);
      std::printf("%8zu %12.2f %12.2f %16.0f\n", k, 100.0 * average,
                  100.0 * pairwise,
                  1e9 * seconds / static_cast<double>(kNumPairs));
    }
    std::printf("\n");
  }

  std::printf(
      "Expected shape: accuracy rises with k roughly as 1 - c/sqrt(k) and\n"
      "cost rises linearly in k; the paper's clustering settings (k = 256)\n"
      "sit where pairwise correctness has largely saturated.\n");
  return tabsketch::util::FlushObservability(observability) ? 0 : 1;
}
