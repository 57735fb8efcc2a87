#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/estimator.h"
#include "core/knn.h"
#include "core/lp_distance.h"
#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "serve/query_engine.h"
#include "table/matrix.h"
#include "table/tiling.h"

namespace tabsketch::serve {
namespace {

using core::Sketch;

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble();
  return out;
}

/// The line QueryEngine prints for `knn query k` answered with `neighbors`.
std::string KnnLine(size_t query, size_t k,
                    const std::vector<core::Neighbor>& neighbors) {
  std::ostringstream line;
  line.precision(kAnswerPrecision);
  line << "knn " << query << " " << k << " =";
  for (const core::Neighbor& neighbor : neighbors) {
    line << " " << neighbor.index << ":" << neighbor.distance;
  }
  return line.str();
}

/// The `index:distance` tokens of a knn answer line, in printed order.
std::vector<core::Neighbor> ParseKnnLine(const std::string& line) {
  std::vector<core::Neighbor> out;
  std::istringstream tokens(line.substr(line.find('=') + 1));
  std::string token;
  while (tokens >> token) {
    const size_t colon = token.find(':');
    out.push_back(core::Neighbor{std::stoul(token.substr(0, colon)),
                                 std::stod(token.substr(colon + 1))});
  }
  return out;
}

TEST(ParseBatchTest, ParsesRequestsCommentsAndBlanks) {
  std::istringstream in(
      "# a comment line\n"
      "distance 0 5\n"
      "\n"
      "knn 3 4   # trailing comment\n"
      "   distance 2 2\n");
  auto batch = ParseBatch(in);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 3u);
  EXPECT_EQ((*batch)[0],
            (QueryRequest{QueryRequest::Kind::kDistance, 0, 5, 0}));
  EXPECT_EQ((*batch)[1], (QueryRequest{QueryRequest::Kind::kKnn, 3, 0, 4}));
  EXPECT_EQ((*batch)[2],
            (QueryRequest{QueryRequest::Kind::kDistance, 2, 2, 0}));
}

TEST(ParseBatchTest, CrlfBatchesParseIdenticallyToLf) {
  // Windows-authored batch files terminate lines with \r\n; std::getline
  // leaves the \r glued to the last token, which used to fail from_chars.
  std::istringstream lf(
      "# comment\n"
      "distance 0 5\n"
      "knn 3 4\n"
      "\n"
      "distance 2 2\n");
  std::istringstream crlf(
      "# comment\r\n"
      "distance 0 5\r\n"
      "knn 3 4\r\n"
      "\r\n"
      "distance 2 2\r\n");
  auto from_lf = ParseBatch(lf);
  auto from_crlf = ParseBatch(crlf);
  ASSERT_TRUE(from_lf.ok()) << from_lf.status().ToString();
  ASSERT_TRUE(from_crlf.ok()) << from_crlf.status().ToString();
  EXPECT_EQ(*from_crlf, *from_lf);
}

TEST(ParseBatchTest, FinalLineWithBareCarriageReturnAndNoNewlineParses) {
  // The worst case: a CRLF file whose final line lacks the \n, so getline
  // returns "distance 0 5\r" as the last chunk.
  std::istringstream in("knn 3 4\r\ndistance 0 5\r");
  auto batch = ParseBatch(in);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), 2u);
  EXPECT_EQ((*batch)[1],
            (QueryRequest{QueryRequest::Kind::kDistance, 0, 5, 0}));
}

TEST(ParseBatchTest, ParseBatchLineSkipsBlanksAndStripsCr) {
  auto blank = ParseBatchLine("   \r", 1);
  ASSERT_TRUE(blank.ok());
  EXPECT_FALSE(blank->has_value());
  auto comment = ParseBatchLine("# note\r", 2);
  ASSERT_TRUE(comment.ok());
  EXPECT_FALSE(comment->has_value());
  auto request = ParseBatchLine("knn 7 2\r", 3);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  ASSERT_TRUE(request->has_value());
  EXPECT_EQ(**request, (QueryRequest{QueryRequest::Kind::kKnn, 7, 0, 2}));
  auto bad = ParseBatchLine("knn 7\r", 9);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("line 9"), std::string::npos);
}

TEST(ParseBatchTest, RejectsMalformedLinesWithLineNumber) {
  {
    std::istringstream in("distance 0 5\nfrobnicate 1 2\n");
    auto batch = ParseBatch(in);
    ASSERT_FALSE(batch.ok());
    EXPECT_NE(batch.status().ToString().find("line 2"), std::string::npos);
  }
  {
    std::istringstream in("knn 3\n");
    EXPECT_FALSE(ParseBatch(in).ok()) << "missing argument";
  }
  {
    std::istringstream in("distance 0 5 9\n");
    EXPECT_FALSE(ParseBatch(in).ok()) << "trailing token";
  }
  {
    std::istringstream in("distance 0 -5\n");
    EXPECT_FALSE(ParseBatch(in).ok()) << "negative index";
  }
  {
    std::istringstream in("knn 3 four\n");
    EXPECT_FALSE(ParseBatch(in).ok()) << "non-numeric k";
  }
}

class QueryEngineTest : public ::testing::Test {
 protected:
  QueryEngineTest()
      : data_(RandomTable(24, 24, 9)),
        grid_(*table::TileGrid::Create(&data_, 6, 6)),
        sketcher_(
            core::Sketcher::Create({.p = 1.0, .k = 64, .seed = 5}).value()),
        estimator_(
            core::DistanceEstimator::Create({.p = 1.0, .k = 64, .seed = 5})
                .value()),
        cache_(&sketcher_, &grid_, {.capacity_bytes = 0}) {}

  std::vector<QueryRequest> MixedBatch() const {
    std::vector<QueryRequest> batch;
    const size_t n = grid_.num_tiles();
    for (size_t i = 0; i < n; ++i) {
      batch.push_back(
          QueryRequest{QueryRequest::Kind::kDistance, i, (i + 3) % n, 0});
      batch.push_back(QueryRequest{QueryRequest::Kind::kKnn, i, 0, 3});
    }
    return batch;
  }

  table::Matrix data_;
  table::TileGrid grid_;
  core::Sketcher sketcher_;
  core::DistanceEstimator estimator_;
  core::LruSketchCache cache_;
};

TEST_F(QueryEngineTest, DistanceMatchesEstimatorOnSketches) {
  QueryEngine engine(&grid_, &cache_, &estimator_, {});
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kDistance, 2, 7, 0}};
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  ASSERT_EQ(results->size(), 1u);

  const double expected = estimator_.Estimate(
      sketcher_.SketchOf(grid_.Tile(2)), sketcher_.SketchOf(grid_.Tile(7)));
  std::ostringstream line;
  line.precision(kAnswerPrecision);
  line << "distance 2 7 = " << expected;
  EXPECT_EQ((*results)[0], line.str());
}

TEST_F(QueryEngineTest, AnswersRoundTripAtFullDoublePrecision) {
  // The printed distance must parse back to the exact binary64 estimate
  // (max_digits10 formatting), not a 6-digit truncation.
  QueryEngine engine(&grid_, &cache_, &estimator_, {});
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kDistance, 2, 7, 0}};
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  const double expected = estimator_.Estimate(
      sketcher_.SketchOf(grid_.Tile(2)), sketcher_.SketchOf(grid_.Tile(7)));
  const std::string& line = (*results)[0];
  const std::string printed = line.substr(line.rfind(" = ") + 3);
  EXPECT_EQ(std::stod(printed), expected);
}

TEST_F(QueryEngineTest, KnnMatchesBruteForceEstimateScan) {
  QueryEngine engine(&grid_, &cache_, &estimator_, {});
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kKnn, 4, 0, 3}};
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  // Reference: the estimated distance to every other tile, smallest 3.
  const std::vector<Sketch> sketches = SketchAllTilesParallel(sketcher_, grid_);
  std::vector<core::Neighbor> expected;
  for (size_t i = 0; i < sketches.size(); ++i) {
    if (i == 4) continue;
    expected.push_back(
        core::Neighbor{i, estimator_.Estimate(sketches[4], sketches[i])});
  }
  core::SmallestKNeighborsInPlace(&expected, 3);
  EXPECT_EQ((*results)[0], KnnLine(4, 3, expected));
}

TEST_F(QueryEngineTest, RefinedKnnWithFullCandidatesMatchesExactScan) {
  // With the candidate set widened to the whole corpus, filter-and-refine is
  // exhaustive exact search: results must equal the exact Lp distance to
  // every other tile, smallest first, distances and all.
  const size_t n = grid_.num_tiles();
  QueryEngineOptions options;
  options.refine = true;
  options.candidates = n - 1;
  QueryEngine engine(&grid_, &cache_, &estimator_, options);
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kKnn, 6, 0, 4}};
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  std::vector<core::Neighbor> expected;
  for (size_t i = 0; i < n; ++i) {
    if (i == 6) continue;
    expected.push_back(core::Neighbor{
        i, core::LpDistance(grid_.Tile(6), grid_.Tile(i), 1.0)});
  }
  core::SmallestKNeighborsInPlace(&expected, 4);
  EXPECT_EQ((*results)[0], KnnLine(6, 4, expected));
}

TEST_F(QueryEngineTest, KnnRanksNaNTilesLastInIndexOrder) {
  // NaN data gives NaN estimates. Over the whole corpus the two poisoned
  // tiles must form the tail, in index order, and every clean tile keeps the
  // rank and distance it has on clean data.
  const size_t n = grid_.num_tiles();
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kKnn, 0, 0, n - 1}};
  QueryEngine clean_engine(&grid_, &cache_, &estimator_, {});
  auto clean = clean_engine.Run(batch);
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();

  table::Matrix poisoned = data_;
  poisoned.Row(0)[13] = std::numeric_limits<double>::quiet_NaN();  // tile 2
  poisoned.Row(7)[19] = std::numeric_limits<double>::quiet_NaN();  // tile 7
  auto grid = table::TileGrid::Create(&poisoned, 6, 6);
  ASSERT_TRUE(grid.ok());
  core::LruSketchCache cache(&sketcher_, &*grid, {.capacity_bytes = 0});
  QueryEngine engine(&*grid, &cache, &estimator_, {});
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();

  const std::vector<core::Neighbor> got = ParseKnnLine((*results)[0]);
  ASSERT_EQ(got.size(), n - 1);
  std::vector<core::Neighbor> clean_tiles;
  for (const core::Neighbor& neighbor : ParseKnnLine((*clean)[0])) {
    if (neighbor.index != 2 && neighbor.index != 7) {
      clean_tiles.push_back(neighbor);
    }
  }
  ASSERT_EQ(clean_tiles.size(), n - 3);
  for (size_t i = 0; i < clean_tiles.size(); ++i) {
    EXPECT_EQ(got[i], clean_tiles[i]) << "position " << i;
  }
  EXPECT_EQ(got[n - 3].index, 2u);
  EXPECT_TRUE(std::isnan(got[n - 3].distance));
  EXPECT_EQ(got[n - 2].index, 7u);
  EXPECT_TRUE(std::isnan(got[n - 2].distance));

  // Deterministic: a rerun, on a fresh cache and more threads, reproduces
  // the bytes.
  core::LruSketchCache fresh(&sketcher_, &*grid, {.capacity_bytes = 0});
  QueryEngineOptions options;
  options.threads = 4;
  QueryEngine rerun_engine(&*grid, &fresh, &estimator_, options);
  auto rerun = rerun_engine.Run(batch);
  ASSERT_TRUE(rerun.ok()) << rerun.status().ToString();
  EXPECT_EQ(*rerun, *results);
}

TEST_F(QueryEngineTest, RefinedKnnFindsTheQueryGroupWithExactDistances) {
  // 50 tiles in 5 well-separated level groups: tile t holds values near
  // 100 * (1 + t % 5), so its nearest tiles are the others of its group. A
  // modest candidate buffer (15 for k = 5) must recover them, sorted, with
  // exact distances.
  constexpr size_t kGroups = 5;
  constexpr size_t kTiles = 50;
  constexpr size_t kSide = 4;
  table::Matrix grouped(kSide, kSide * kTiles);
  rng::Xoshiro256 gen(8);
  for (size_t t = 0; t < kTiles; ++t) {
    const double level = 100.0 * static_cast<double>(1 + t % kGroups);
    for (size_t r = 0; r < kSide; ++r) {
      for (size_t c = 0; c < kSide; ++c) {
        grouped.At(r, t * kSide + c) = level + gen.NextDouble();
      }
    }
  }
  auto grid = table::TileGrid::Create(&grouped, kSide, kSide);
  ASSERT_TRUE(grid.ok());
  const core::SketchParams params{.p = 1.0, .k = 128, .seed = 3};
  auto sketcher = core::Sketcher::Create(params);
  auto estimator = core::DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  core::LruSketchCache cache(&*sketcher, &*grid, {.capacity_bytes = 0});
  QueryEngineOptions options;
  options.refine = true;
  options.candidates = 15;
  QueryEngine engine(&*grid, &cache, &*estimator, options);

  std::vector<QueryRequest> batch;
  for (size_t t = 0; t < kTiles; ++t) {
    batch.push_back(QueryRequest{QueryRequest::Kind::kKnn, t, 0, 5});
  }
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  for (size_t t = 0; t < kTiles; ++t) {
    const std::vector<core::Neighbor> neighbors = ParseKnnLine((*results)[t]);
    ASSERT_EQ(neighbors.size(), 5u) << "query " << t;
    std::set<size_t> seen;
    for (size_t j = 0; j < neighbors.size(); ++j) {
      const core::Neighbor& neighbor = neighbors[j];
      EXPECT_EQ(neighbor.index % kGroups, t % kGroups) << "query " << t;
      EXPECT_NE(neighbor.index, t);
      EXPECT_TRUE(seen.insert(neighbor.index).second) << "query " << t;
      EXPECT_EQ(neighbor.distance,
                core::LpDistance(grid->Tile(t), grid->Tile(neighbor.index),
                                 1.0))
          << "query " << t << " neighbor " << neighbor.index;
      if (j > 0) {
        EXPECT_GE(neighbor.distance, neighbors[j - 1].distance);
      }
    }
  }
}

TEST_F(QueryEngineTest, IdenticalAcrossThreadsAndCachePolicies) {
  const std::vector<QueryRequest> batch = MixedBatch();
  QueryEngine reference_engine(&grid_, &cache_, &estimator_, {});
  auto reference = reference_engine.Run(batch);
  ASSERT_TRUE(reference.ok());

  // Every cache policy, including an evict-on-every-lookup LRU budget, and
  // every thread count must reproduce the reference bytes exactly.
  core::LruSketchCache::Options tiny;
  tiny.capacity_bytes = 1;
  tiny.shards = 2;
  std::vector<std::unique_ptr<core::TileSketchCache>> caches;
  caches.push_back(
      std::make_unique<core::LruSketchCache>(&sketcher_, &grid_, tiny));
  caches.push_back(
      std::make_unique<core::FixedSketchSource>(
          SketchAllTilesParallel(sketcher_, grid_)));
  for (const auto& cache : caches) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      QueryEngineOptions options;
      options.threads = threads;
      QueryEngine engine(&grid_, cache.get(), &estimator_, options);
      auto results = engine.Run(batch);
      ASSERT_TRUE(results.ok());
      EXPECT_EQ(*results, *reference) << "threads=" << threads;
    }
  }
}

TEST_F(QueryEngineTest, ValidatesRequestsUpFront) {
  QueryEngine engine(&grid_, &cache_, &estimator_, {});
  const size_t n = grid_.num_tiles();
  EXPECT_FALSE(
      engine
          .Run(std::vector<QueryRequest>{
              QueryRequest{QueryRequest::Kind::kDistance, 0, n, 0}})
          .ok())
      << "distance tile out of range";
  EXPECT_FALSE(engine
                   .Run(std::vector<QueryRequest>{
                       QueryRequest{QueryRequest::Kind::kKnn, n, 0, 1}})
                   .ok())
      << "knn tile out of range";
  EXPECT_FALSE(engine
                   .Run(std::vector<QueryRequest>{
                       QueryRequest{QueryRequest::Kind::kKnn, 0, 0, 0}})
                   .ok())
      << "k = 0";
  EXPECT_FALSE(engine
                   .Run(std::vector<QueryRequest>{
                       QueryRequest{QueryRequest::Kind::kKnn, 0, 0, n}})
                   .ok())
      << "k > tiles - 1";
}

TEST_F(QueryEngineTest, RefineWithoutGridIsRejected) {
  QueryEngineOptions options;
  options.refine = true;
  QueryEngine engine(nullptr, &cache_, &estimator_, options);
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kKnn, 0, 0, 2}};
  EXPECT_FALSE(engine.Run(batch).ok());
}

TEST_F(QueryEngineTest, SketchOnlyServingWorksWithoutGrid) {
  // A FixedSketchSource (e.g. a sketch set read from disk) can serve
  // unrefined batches with no table data at all.
  core::FixedSketchSource source(SketchAllTilesParallel(sketcher_, grid_));
  QueryEngine engine(nullptr, &source, &estimator_, {});
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kDistance, 1, 2, 0},
      QueryRequest{QueryRequest::Kind::kKnn, 0, 0, 2}};
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(results->size(), 2u);
}

// ---------------------------------------------------------------------------
// Quantized filter-refine: the tentpole guarantee is that --quant never
// changes a single output byte, across widths, thread counts, cache
// policies, refine, and NaN-poisoned data.

TEST_F(QueryEngineTest, QuantIsByteIdenticalToOffEverywhere) {
  const std::vector<QueryRequest> batch = MixedBatch();
  QueryEngine reference_engine(&grid_, &cache_, &estimator_, {});
  auto reference = reference_engine.Run(batch);
  ASSERT_TRUE(reference.ok());

  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};
  core::LruSketchCache::Options tiny;
  tiny.capacity_bytes = 1;
  core::LruSketchCache lru(&sketcher_, &grid_, tiny);
  for (core::QuantKind kind :
       {core::QuantKind::kInt8, core::QuantKind::kInt16}) {
    auto pool = core::QuantizedCodePool::Build(&cache_, kind, params,
                                               grid_.tile_rows(),
                                               grid_.tile_cols());
    ASSERT_TRUE(pool.ok()) << pool.status().ToString();
    for (core::TileSketchCache* cache :
         {static_cast<core::TileSketchCache*>(&cache_),
          static_cast<core::TileSketchCache*>(&lru)}) {
      for (size_t threads : {size_t{1}, size_t{4}}) {
        QueryEngineOptions options;
        options.threads = threads;
        options.quant = kind;
        QueryEngine engine(&grid_, cache, &estimator_, options, &*pool);
        auto results = engine.Run(batch);
        ASSERT_TRUE(results.ok()) << results.status().ToString();
        EXPECT_EQ(*results, *reference)
            << core::QuantKindName(kind) << " threads=" << threads;
      }
    }
  }
}

TEST_F(QueryEngineTest, QuantRefinedKnnIsByteIdenticalToOff) {
  const std::vector<QueryRequest> batch = MixedBatch();
  QueryEngineOptions reference_options;
  reference_options.refine = true;
  QueryEngine reference_engine(&grid_, &cache_, &estimator_,
                               reference_options);
  auto reference = reference_engine.Run(batch);
  ASSERT_TRUE(reference.ok());

  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};
  auto pool = core::QuantizedCodePool::Build(&cache_, core::QuantKind::kInt8,
                                             params, grid_.tile_rows(),
                                             grid_.tile_cols());
  ASSERT_TRUE(pool.ok());
  QueryEngineOptions options;
  options.refine = true;
  options.quant = core::QuantKind::kInt8;
  QueryEngine engine(&grid_, &cache_, &estimator_, options, &*pool);
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(*results, *reference);
}

TEST_F(QueryEngineTest, QuantHandlesNaNDataIdentically) {
  // Poison two tiles so their sketches go non-finite: the code tier flags
  // them unusable (NaN code distances, always kept as candidates) and the
  // answers must still match the unquantized engine byte for byte.
  table::Matrix poisoned = data_;
  poisoned.Row(0)[0] = std::numeric_limits<double>::quiet_NaN();
  poisoned.Row(7)[13] = std::numeric_limits<double>::quiet_NaN();
  auto grid = table::TileGrid::Create(&poisoned, 6, 6);
  ASSERT_TRUE(grid.ok());
  core::LruSketchCache cache(&sketcher_, &*grid, {.capacity_bytes = 0});
  const std::vector<QueryRequest> batch = MixedBatch();
  QueryEngine reference_engine(&*grid, &cache, &estimator_, {});
  auto reference = reference_engine.Run(batch);
  ASSERT_TRUE(reference.ok());

  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};
  auto pool = core::QuantizedCodePool::Build(&cache, core::QuantKind::kInt8,
                                             params, grid->tile_rows(),
                                             grid->tile_cols());
  ASSERT_TRUE(pool.ok());
  EXPECT_FALSE(pool->tile_usable(0)) << "NaN tile must be flagged";
  QueryEngineOptions options;
  options.quant = core::QuantKind::kInt8;
  QueryEngine engine(&*grid, &cache, &estimator_, options, &*pool);
  auto results = engine.Run(batch);
  ASSERT_TRUE(results.ok()) << results.status().ToString();
  EXPECT_EQ(*results, *reference);
}

TEST_F(QueryEngineTest, QuantValidatesPoolWiring) {
  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kKnn, 0, 0, 2}};
  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};

  // Quant requested but no pool attached.
  QueryEngineOptions options;
  options.quant = core::QuantKind::kInt8;
  QueryEngine no_pool(&grid_, &cache_, &estimator_, options);
  EXPECT_FALSE(no_pool.Run(batch).ok());

  // Pool width disagrees with the requested kind.
  auto pool16 = core::QuantizedCodePool::Build(&cache_, core::QuantKind::kInt16,
                                               params, grid_.tile_rows(),
                                               grid_.tile_cols());
  ASSERT_TRUE(pool16.ok());
  QueryEngine mismatched(&grid_, &cache_, &estimator_, options, &*pool16);
  EXPECT_FALSE(mismatched.Run(batch).ok());

  // Pool built over a different tile count.
  table::Matrix small = RandomTable(12, 12, 10);
  auto small_grid = table::TileGrid::Create(&small, 6, 6);
  ASSERT_TRUE(small_grid.ok());
  core::LruSketchCache small_cache(&sketcher_, &*small_grid,
                                  {.capacity_bytes = 0});
  auto small_pool = core::QuantizedCodePool::Build(
      &small_cache, core::QuantKind::kInt8, params, 6, 6);
  ASSERT_TRUE(small_pool.ok());
  QueryEngine wrong_count(&grid_, &cache_, &estimator_, options, &*small_pool);
  EXPECT_FALSE(wrong_count.Run(batch).ok());
}

/// A TileSketchCache that logs every Get in call order and serves from a
/// fixed set. For one-thread engines only.
class RecordingSketchCache : public core::TileSketchCache {
 public:
  explicit RecordingSketchCache(std::vector<Sketch> sketches)
      : source_(std::move(sketches)) {}

  std::shared_ptr<const Sketch> Get(size_t index, bool* computed) override {
    log_.push_back(index);
    return source_.Get(index, computed);
  }
  size_t num_tiles() const override { return source_.num_tiles(); }
  size_t computed() const override { return 0; }
  size_t hits() const override { return source_.hits(); }

  std::vector<size_t> TakeLog() { return std::exchange(log_, {}); }

 private:
  core::FixedSketchSource source_;
  std::vector<size_t> log_;
};

/// The order a knn request fetched sketches in before the shared candidate
/// scan: the query's first; then with no codes every other tile in index
/// order, and with codes the filter's survivors in the order
/// nth_element(want - 1, NeighborBefore) left them over {index, code
/// distance}. An LRU under a tight budget hits more in this order than in a
/// global index order (DESIGN.md §13).
std::vector<size_t> ExpectedLookups(size_t query, size_t want, size_t n,
                                    const core::QuantizedCodePool* codes,
                                    const core::DistanceEstimator& estimator) {
  std::vector<size_t> order = {query};
  if (codes == nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (i != query) order.push_back(i);
    }
    return order;
  }
  const bool l2 = estimator.kind() == core::EstimatorKind::kL2;
  const double inv_scale = 1.0 / estimator.scale();
  core::kernels::CodeScratch scratch;
  std::vector<core::Neighbor> scanned;
  for (size_t i = 0; i < n; ++i) {
    if (i == query) continue;
    scanned.push_back(core::Neighbor{
        i, codes->CodeEstimate(query, i, l2, &scratch) * inv_scale});
  }
  double threshold = std::numeric_limits<double>::infinity();
  if (scanned.size() > want) {
    std::nth_element(scanned.begin(),
                     scanned.begin() + static_cast<ptrdiff_t>(want - 1),
                     scanned.end(), core::NeighborBefore);
    threshold = scanned[want - 1].distance + 2.0 * codes->Slack(estimator);
  }
  for (const core::Neighbor& candidate : scanned) {
    if (candidate.distance > threshold) continue;
    order.push_back(candidate.index);
  }
  return order;
}

TEST(KnnLookupOrderTest, KnnFetchesSketchesInTheFilterOrder) {
  // 256 tiles of 4x4, so the code filter prunes and nth_element leaves its
  // survivors out of index order.
  const table::Matrix data = RandomTable(64, 64, 21);
  const table::TileGrid grid = *table::TileGrid::Create(&data, 4, 4);
  const core::SketchParams params{.p = 1.0, .k = 64, .seed = 5};
  const core::Sketcher sketcher = core::Sketcher::Create(params).value();
  const core::DistanceEstimator estimator =
      core::DistanceEstimator::Create(params).value();
  RecordingSketchCache cache(core::SketchAllTilesParallel(sketcher, grid));
  const size_t n = grid.num_tiles();

  bool any_out_of_index_order = false;
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8,
        core::QuantKind::kInt16}) {
    std::optional<core::QuantizedCodePool> pool;
    if (quant != core::QuantKind::kOff) {
      pool = core::QuantizedCodePool::Build(&cache, quant, params, 4, 4)
                 .value();
      cache.TakeLog();
    }
    for (const bool refine : {false, true}) {
      QueryEngineOptions options;
      options.quant = quant;
      options.refine = refine;
      QueryEngine engine(&grid, &cache, &estimator, options,
                         pool ? &*pool : nullptr);
      for (const auto& [query, k] : {std::pair<size_t, size_t>{0, 1},
                                     {37, 3},
                                     {128, 8},
                                     {255, 40},
                                     {200, n - 1}}) {
        SCOPED_TRACE(::testing::Message()
                     << core::QuantKindName(quant) << " refine=" << refine
                     << " knn " << query << " " << k);
        const std::vector<QueryRequest> batch = {
            QueryRequest{QueryRequest::Kind::kKnn, query, 0, k}};
        ASSERT_TRUE(engine.Run(batch).ok());
        const size_t want =
            refine ? std::min(std::max(3 * k, k + 8), n - 1) : k;
        const std::vector<size_t> expected = ExpectedLookups(
            query, want, n, pool ? &*pool : nullptr, estimator);
        EXPECT_EQ(cache.TakeLog(), expected);
        any_out_of_index_order =
            any_out_of_index_order ||
            !std::is_sorted(expected.begin() + 1, expected.end());
      }
    }
  }
  // Otherwise this test could not tell the filter order from index order.
  EXPECT_TRUE(any_out_of_index_order);
}

}  // namespace
}  // namespace tabsketch::serve
