// Ablation of the query engine's sketch-cache budget on a repeated-query
// batch: the same mixed distance/knn workload runs through LruSketchCache at
// four budgets — 1 byte ("uncached": too small for one entry, so every
// lookup re-sketches its tile), 0 ("ondemand": keep every tile, the paper's
// scenario (2)), one sized for the whole tile set ("lru") and one tight
// enough to churn ("lru-tight"). Every budget must produce byte-identical
// answers (sketches are deterministic; retention only moves compute), so
// the only thing that varies is time and residency. Rows land in
// BENCH_query.json; the bench exits non-zero unless the answers are
// identical, the sized LRU beats the uncached run, and peak residency stays
// within budget for both bounded rows.
//
// usage: ablation_query_cache [--metrics-json=FILE] [--trace-json=FILE]

#include <cstdio>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lru_sketch_cache.h"
#include "core/sketcher.h"
#include "data/six_region.h"
#include "serve/query_engine.h"
#include "table/tiling.h"
#include "util/observability.h"
#include "util/timer.h"

namespace {

using tabsketch::core::LruSketchCache;
using tabsketch::serve::QueryRequest;

struct Row {
  std::string policy;
  double seconds = 0;
  size_t computed = 0;
  size_t hits = 0;
  size_t evictions = 0;
  size_t peak_bytes = 0;
  size_t budget_bytes = 0;  // 0 keeps every tile
};

/// A serving-shaped workload: a handful of hot query tiles asked for
/// neighbors over and over, plus repeated point distances between hot pairs.
/// Every knn sweeps the whole corpus, so any retention at all collapses the
/// sketch-compute count from requests*tiles to ~tiles.
std::vector<QueryRequest> RepeatedBatch(size_t tiles) {
  std::vector<QueryRequest> batch;
  const size_t hot = 8;
  for (size_t round = 0; round < 3; ++round) {
    for (size_t q = 0; q < hot; ++q) {
      batch.push_back(QueryRequest{QueryRequest::Kind::kKnn, q % tiles, 0, 8});
    }
    for (size_t i = 0; i < 64; ++i) {
      batch.push_back(QueryRequest{QueryRequest::Kind::kDistance, i % hot,
                                   (i + 7) % tiles, 0});
    }
  }
  return batch;
}

}  // namespace

int main(int argc, char** argv) {
  const tabsketch::util::ObservabilityArgs observability =
      tabsketch::util::EnableObservabilityFromArgs(&argc, argv);

  tabsketch::data::SixRegionOptions data_options;
  data_options.rows = 256;
  data_options.cols = 256;
  data_options.seed = 42;
  auto dataset = tabsketch::data::GenerateSixRegion(data_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  auto grid =
      tabsketch::table::TileGrid::Create(&dataset->table, 32, 32);
  if (!grid.ok()) {
    std::fprintf(stderr, "grid: %s\n", grid.status().ToString().c_str());
    return 1;
  }
  const tabsketch::core::SketchParams params{.p = 1.0, .k = 128, .seed = 42};
  auto sketcher = tabsketch::core::Sketcher::Create(params);
  auto estimator = tabsketch::core::DistanceEstimator::Create(params);
  if (!sketcher.ok() || !estimator.ok()) {
    std::fprintf(stderr, "sketch family setup failed\n");
    return 1;
  }

  const size_t tiles = grid->num_tiles();
  const std::vector<QueryRequest> batch = RepeatedBatch(tiles);
  const size_t entry_bytes = LruSketchCache::EntryBytes(params.k);
  const size_t sized_budget = entry_bytes * tiles;   // holds every tile
  const size_t tight_budget = entry_bytes * (tiles / 4);  // forced churn

  std::printf("=== Ablation: query-engine sketch-cache policy ===\n");
  std::printf("%zu tiles, k=%zu, %zu requests, entry=%zuB\n", tiles, params.k,
              batch.size(), entry_bytes);
  std::printf("%-10s %10s %10s %10s %10s %12s\n", "policy", "seconds",
              "computed", "hits", "evictions", "peak_bytes");

  std::vector<Row> rows;
  std::vector<std::string> reference;
  bool identical_output = true;
  const auto run = [&](const std::string& policy, size_t budget) {
    LruSketchCache cache(&*sketcher, &*grid, {.capacity_bytes = budget});
    tabsketch::serve::QueryEngine engine(&*grid, &cache, &*estimator,
                                         {.threads = 1});
    tabsketch::util::WallTimer timer;
    auto results = engine.Run(batch);
    const double seconds = timer.ElapsedSeconds();
    if (!results.ok()) {
      std::fprintf(stderr, "%s: %s\n", policy.c_str(),
                   results.status().ToString().c_str());
      std::exit(1);
    }
    if (reference.empty()) {
      reference = *results;
    } else if (*results != reference) {
      identical_output = false;
    }
    Row row;
    row.policy = policy;
    row.seconds = seconds;
    row.computed = cache.computed();
    row.hits = cache.hits();
    row.evictions = cache.evictions();
    row.peak_bytes = cache.peak_bytes();
    row.budget_bytes = budget;
    rows.push_back(row);
    std::printf("%-10s %10.4f %10zu %10zu %10zu %12zu\n", policy.c_str(),
                row.seconds, row.computed, row.hits, row.evictions,
                row.peak_bytes);
    return row;
  };

  const Row uncached = run("uncached", 1);
  run("ondemand", 0);
  const Row sized = run("lru", sized_budget);
  const Row tight = run("lru-tight", tight_budget);

  std::printf("identical output across policies: %s\n",
              identical_output ? "yes" : "NO");
  bool failed = false;
  if (!identical_output) {
    failed = true;
    std::fprintf(stderr, "FAIL: cache budgets disagreed on answers\n");
  }
  if (!(sized.seconds < uncached.seconds)) {
    failed = true;
    std::fprintf(stderr, "FAIL: lru %.4fs is not faster than uncached %.4fs\n",
                 sized.seconds, uncached.seconds);
  }
  for (const Row& row : {sized, tight}) {
    if (row.peak_bytes > row.budget_bytes) {
      failed = true;
      std::fprintf(stderr, "FAIL: %s peak %zu bytes exceeds its %zu budget\n",
                   row.policy.c_str(), row.peak_bytes, row.budget_bytes);
    }
  }

  const char* json_path = "BENCH_query.json";
  std::FILE* json = std::fopen(json_path, "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_path);
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"bench\": \"ablation_query_cache\",\n"
               "  \"tiles\": %zu,\n"
               "  \"sketch_k\": %zu,\n"
               "  \"requests\": %zu,\n"
               "  \"entry_bytes\": %zu,\n"
               "  \"identical_output\": %s,\n"
               "  \"results\": [\n",
               tiles, params.k, batch.size(), entry_bytes,
               identical_output ? "true" : "false");
  for (size_t i = 0; i < rows.size(); ++i) {
    const Row& row = rows[i];
    std::fprintf(json,
                 "    {\"policy\": \"%s\", \"seconds\": %.6f, "
                 "\"computed\": %zu, \"hits\": %zu, \"evictions\": %zu, "
                 "\"peak_bytes\": %zu, \"budget_bytes\": %zu}%s\n",
                 row.policy.c_str(), row.seconds, row.computed, row.hits,
                 row.evictions, row.peak_bytes, row.budget_bytes,
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(json, "  ]\n}\n");
  std::fclose(json);
  std::printf("results -> %s\n", json_path);
  if (!tabsketch::util::FlushObservability(observability)) return 1;
  return failed ? 1 : 0;
}
