// Similarity search over tiles with the filter-and-refine pattern that
// `tabsketch query --refine` serves: sketches select a candidate set
// cheaply, exact Lp distances re-rank it. Reports recall against exhaustive
// exact search and the cost of each stage — "which geographic regions have
// similar usage distribution" (the paper's opening question) as a query
// workload. Both sides run through serve::QueryEngine; the exact baseline
// is refine with every other tile as a candidate.
//
//   ./build/examples/similarity_search

#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/ondemand.h"
#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "data/call_volume.h"
#include "serve/query_engine.h"
#include "table/tiling.h"
#include "util/timer.h"

namespace {

// The neighbor indices of one knn answer line ("knn Q K = i:d i:d ...").
std::set<size_t> NeighborIndices(const std::string& line) {
  std::set<size_t> out;
  std::istringstream tokens(line.substr(line.find('=') + 1));
  std::string token;
  while (tokens >> token) {
    out.insert(std::stoul(token.substr(0, token.find(':'))));
  }
  return out;
}

}  // namespace

int main() {
  using namespace tabsketch;  // NOLINT: example brevity

  data::CallVolumeOptions options;
  options.num_stations = 1024;
  options.bins_per_day = 144;
  options.num_days = 8;
  auto volume = data::GenerateCallVolume(options);
  if (!volume.ok()) {
    std::fprintf(stderr, "%s\n", volume.status().ToString().c_str());
    return 1;
  }
  // Tiles: 32 stations x 2 days (large objects are where sketches pay).
  auto grid = table::TileGrid::Create(&*volume, 32, 288);
  if (!grid.ok()) {
    std::fprintf(stderr, "%s\n", grid.status().ToString().c_str());
    return 1;
  }

  core::SketchParams params{.p = 1.0, .k = 128, .seed = 2718};
  auto sketcher = core::Sketcher::Create(params);
  auto estimator = core::DistanceEstimator::Create(params);
  if (!sketcher.ok() || !estimator.ok()) {
    std::fprintf(stderr, "setup failed\n");
    return 1;
  }

  util::WallTimer prep_timer;
  core::FixedSketchSource sketches(
      core::SketchAllTilesParallel(*sketcher, *grid));
  std::printf("%zu tiles of %zu values, sketched (k = %zu) in %.2fs\n\n",
              grid->num_tiles(), grid->tile_size(), params.k,
              prep_timer.ElapsedSeconds());

  // One knn request for every third tile, answered as one batch.
  constexpr size_t kNeighbors = 10;
  std::vector<serve::QueryRequest> batch;
  for (size_t query = 0; query < grid->num_tiles(); query += 3) {
    batch.push_back(serve::QueryRequest{serve::QueryRequest::Kind::kKnn,
                                        query, 0, kNeighbors});
  }
  auto answer = [&](size_t candidates, double* seconds) {
    serve::QueryEngineOptions engine_options;
    engine_options.refine = true;
    engine_options.candidates = candidates;
    const serve::QueryEngine engine(&*grid, &sketches, &*estimator,
                                    engine_options);
    util::WallTimer timer;
    auto lines = engine.Run(batch);
    *seconds = timer.ElapsedSeconds();
    return lines;
  };

  double exact_seconds = 0.0;
  auto exact = answer(grid->num_tiles() - 1, &exact_seconds);
  if (!exact.ok()) {
    std::fprintf(stderr, "%s\n", exact.status().ToString().c_str());
    return 1;
  }
  std::printf("exhaustive exact search: %.3fs for %zu queries\n\n",
              exact_seconds, batch.size());

  std::printf("%12s %10s %12s\n", "candidates", "recall@10", "refine_s");
  for (size_t candidates : {10u, 20u, 40u, 80u}) {
    double refine_seconds = 0.0;
    auto refined = answer(candidates, &refine_seconds);
    if (!refined.ok()) {
      std::fprintf(stderr, "%s\n", refined.status().ToString().c_str());
      return 1;
    }
    size_t hits = 0;
    size_t total = 0;
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::set<size_t> truth = NeighborIndices((*exact)[i]);
      for (size_t index : NeighborIndices((*refined)[i])) {
        hits += truth.count(index);
      }
      total += truth.size();
    }
    std::printf("%12zu %9.1f%% %12.3f\n", candidates,
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(total),
                refine_seconds);
  }

  std::printf(
      "\nReading the table: a candidate buffer a few times k recovers\n"
      "nearly all true neighbors while touching full tiles only for the\n"
      "candidates — the sketch scan does the rest at O(k) per tile.\n");
  return 0;
}
