#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "core/quantized_sketch.h"
#include "core/sketch_cache.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/tiling.h"

namespace tabsketch::core {
namespace {

std::vector<Sketch> RandomSketches(size_t count, size_t k, uint64_t seed,
                                   double lo = -50.0, double hi = 50.0) {
  rng::Xoshiro256 gen(seed);
  std::vector<Sketch> sketches(count);
  for (auto& sketch : sketches) {
    sketch.values.resize(k);
    for (double& v : sketch.values) {
      v = lo + gen.NextDouble() * (hi - lo);
    }
  }
  return sketches;
}

/// A pool over in-memory sketches, through BuildFromGetter.
util::Result<QuantizedCodePool> BuildFromSketches(
    std::span<const Sketch> sketches, QuantKind kind,
    const SketchParams& params, size_t object_rows, size_t object_cols) {
  return QuantizedCodePool::BuildFromGetter(
      [sketches](size_t i) -> std::span<const double> {
        return sketches[i].values;
      },
      sketches.size(), kind, params, object_rows, object_cols);
}

QuantizedCodePool BuildPool(const std::vector<Sketch>& sketches,
                            QuantKind kind, const SketchParams& params) {
  auto pool = BuildFromSketches(sketches, kind, params, 4, 4);
  EXPECT_TRUE(pool.ok()) << pool.status().ToString();
  return std::move(pool).value();
}

TEST(QuantKindTest, ParseAndName) {
  EXPECT_EQ(ParseQuantKind("off").value(), QuantKind::kOff);
  EXPECT_EQ(ParseQuantKind("int8").value(), QuantKind::kInt8);
  EXPECT_EQ(ParseQuantKind("int16").value(), QuantKind::kInt16);
  EXPECT_FALSE(ParseQuantKind("int32").ok());
  EXPECT_FALSE(ParseQuantKind("").ok());
  EXPECT_STREQ(QuantKindName(QuantKind::kInt8), "int8");
  EXPECT_STREQ(QuantKindName(QuantKind::kInt16), "int16");
  EXPECT_EQ(QuantCodeBytes(QuantKind::kOff), 0u);
  EXPECT_EQ(QuantCodeBytes(QuantKind::kInt8), 1u);
  EXPECT_EQ(QuantCodeBytes(QuantKind::kInt16), 2u);
}

TEST(QuantizedCodePoolTest, AffineMapCoversPoolRange) {
  const SketchParams params{.p = 1.0, .k = 8, .seed = 3};
  std::vector<Sketch> sketches(2);
  sketches[0].values = {0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0};
  sketches[1].values = {10.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 255.0};
  const QuantizedCodePool pool =
      BuildPool(sketches, QuantKind::kInt8, params);
  EXPECT_EQ(pool.count(), 2u);
  EXPECT_EQ(pool.k(), 8u);
  EXPECT_EQ(pool.offset(), 0.0);
  EXPECT_EQ(pool.scale(), 255.0 / 255.0);
  EXPECT_TRUE(pool.tile_usable(0));
  EXPECT_TRUE(pool.tile_usable(1));
  // Values land exactly on code levels here, so codes recover them exactly.
  const auto& codes = pool.raw_codes();
  EXPECT_EQ(codes[0], 0);
  EXPECT_EQ(codes[7], 7);
  EXPECT_EQ(codes[15], 255);
}

TEST(QuantizedCodePoolTest, PoolBytesAccounting) {
  EXPECT_EQ(QuantizedCodePool::PoolBytes(QuantKind::kInt8, 10, 64),
            10u * 64 + 10);
  EXPECT_EQ(QuantizedCodePool::PoolBytes(QuantKind::kInt16, 10, 64),
            10u * 64 * 2 + 10);
  const SketchParams params{.p = 1.0, .k = 16, .seed = 9};
  const auto sketches = RandomSketches(7, 16, 11);
  const QuantizedCodePool pool =
      BuildPool(sketches, QuantKind::kInt16, params);
  EXPECT_EQ(pool.bytes(), 7u * 16 * 2 + 7);
}

TEST(QuantizedCodePoolTest, DegeneratePoolsAreSafe) {
  const SketchParams params{.p = 1.0, .k = 4, .seed = 1};
  // Constant pool: scale 0, every code 0, distances exactly 0.
  std::vector<Sketch> constant(3);
  for (auto& s : constant) s.values = {5.0, 5.0, 5.0, 5.0};
  const QuantizedCodePool pool =
      BuildPool(constant, QuantKind::kInt8, params);
  EXPECT_EQ(pool.scale(), 0.0);
  kernels::CodeScratch scratch;
  EXPECT_EQ(pool.CodeEstimate(0, 1, /*l2=*/false, &scratch), 0.0);
  const auto est = DistanceEstimator::Create(params).value();
  EXPECT_EQ(pool.Slack(est), 0.0);

  // Empty pool builds (count 0).
  auto empty = BuildFromSketches(std::span<const Sketch>{}, QuantKind::kInt8,
                                 params, 4, 4);
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty->count(), 0u);
}

TEST(QuantizedCodePoolTest, NonFiniteTilesAreFlaggedUnusable) {
  const SketchParams params{.p = 1.0, .k = 4, .seed = 1};
  std::vector<Sketch> sketches(3);
  sketches[0].values = {0.0, 1.0, 2.0, 3.0};
  sketches[1].values = {0.0, std::nan(""), 2.0, 3.0};
  sketches[2].values = {4.0, 5.0, 6.0,
                        std::numeric_limits<double>::infinity()};
  const QuantizedCodePool pool =
      BuildPool(sketches, QuantKind::kInt16, params);
  EXPECT_TRUE(pool.tile_usable(0));
  EXPECT_FALSE(pool.tile_usable(1));
  EXPECT_FALSE(pool.tile_usable(2));
  kernels::CodeScratch scratch;
  EXPECT_TRUE(std::isnan(pool.CodeEstimate(0, 1, false, &scratch)));
  EXPECT_TRUE(std::isnan(pool.CodeEstimate(1, 2, false, &scratch)));
  EXPECT_FALSE(std::isnan(pool.CodeEstimate(0, 0, false, &scratch)));
}

/// The tentpole guarantee: for usable tiles, the reconstructed code estimate
/// is within Slack() of the true sketch estimate — for both widths and both
/// estimators. This is the inequality every filter threshold builds on.
void CheckErrorBound(double p, EstimatorKind ekind, QuantKind qkind,
                     uint64_t seed) {
  const size_t k = 32;
  const size_t count = 24;
  const SketchParams params{.p = p, .k = k, .seed = seed};
  const auto sketches = RandomSketches(count, k, seed);
  const QuantizedCodePool pool = BuildPool(sketches, qkind, params);
  const auto est = DistanceEstimator::Create(params, ekind).value();
  const bool l2 = est.kind() == EstimatorKind::kL2;
  const double slack = pool.Slack(est);
  ASSERT_GT(slack, 0.0);
  kernels::CodeScratch scratch;
  std::vector<double> est_scratch;
  for (size_t a = 0; a < count; ++a) {
    for (size_t b = a + 1; b < count; ++b) {
      const double exact = est.EstimateWithScratch(
          sketches[a].values, sketches[b].values, &est_scratch);
      const double approx =
          pool.CodeEstimate(a, b, l2, &scratch) / est.scale();
      EXPECT_LE(std::abs(exact - approx), slack)
          << "p=" << p << " pair (" << a << "," << b << ")";
    }
  }
}

TEST(QuantizedCodePoolTest, ErrorBoundHoldsMedianInt8) {
  CheckErrorBound(1.0, EstimatorKind::kMedian, QuantKind::kInt8, 21);
}
TEST(QuantizedCodePoolTest, ErrorBoundHoldsMedianInt16) {
  CheckErrorBound(0.5, EstimatorKind::kMedian, QuantKind::kInt16, 22);
}
TEST(QuantizedCodePoolTest, ErrorBoundHoldsL2Int8) {
  CheckErrorBound(2.0, EstimatorKind::kL2, QuantKind::kInt8, 23);
}
TEST(QuantizedCodePoolTest, ErrorBoundHoldsL2Int16) {
  CheckErrorBound(2.0, EstimatorKind::kL2, QuantKind::kInt16, 24);
}

TEST(QuantizedCodePoolTest, QuantizeAcceptsInRangeRejectsOutOfRange) {
  const SketchParams params{.p = 1.0, .k = 4, .seed = 5};
  std::vector<Sketch> sketches(2);
  sketches[0].values = {0.0, 10.0, 20.0, 30.0};
  sketches[1].values = {5.0, 15.0, 25.0, 100.0};
  const QuantizedCodePool pool =
      BuildPool(sketches, QuantKind::kInt16, params);

  // Convex combinations of pool values are in range.
  const QuantizedVector mid = pool.Quantize(std::vector<double>{
      2.5, 12.5, 22.5, 65.0});
  EXPECT_TRUE(mid.usable);
  EXPECT_EQ(mid.codes.size(), 4u * 2);

  // Out-of-range by more than half a step -> unusable.
  const QuantizedVector above = pool.Quantize(std::vector<double>{
      0.0, 10.0, 20.0, 100.0 + pool.scale()});
  EXPECT_FALSE(above.usable);
  const QuantizedVector below = pool.Quantize(std::vector<double>{
      -pool.scale(), 10.0, 20.0, 30.0});
  EXPECT_FALSE(below.usable);

  // Non-finite component -> unusable.
  const QuantizedVector bad = pool.Quantize(std::vector<double>{
      0.0, std::nan(""), 20.0, 30.0});
  EXPECT_FALSE(bad.usable);

  // Wrong length -> unusable.
  const QuantizedVector wrong = pool.Quantize(std::vector<double>{0.0, 1.0});
  EXPECT_FALSE(wrong.usable);

  // Code distance against a usable vector matches the symmetric in-pool
  // computation; against an unusable vector it is NaN.
  kernels::CodeScratch scratch;
  EXPECT_FALSE(std::isnan(pool.CodeEstimateAgainst(0, mid, false, &scratch)));
  EXPECT_TRUE(std::isnan(pool.CodeEstimateAgainst(0, bad, false, &scratch)));
}

TEST(QuantizedCodePoolTest, BuildIsDeterministic) {
  const SketchParams params{.p = 1.0, .k = 16, .seed = 77};
  const auto sketches = RandomSketches(9, 16, 42);
  const QuantizedCodePool a = BuildPool(sketches, QuantKind::kInt8, params);
  const QuantizedCodePool b = BuildPool(sketches, QuantKind::kInt8, params);
  EXPECT_EQ(a.raw_codes(), b.raw_codes());
  EXPECT_EQ(a.usable_flags(), b.usable_flags());
  EXPECT_EQ(a.scale(), b.scale());
  EXPECT_EQ(a.offset(), b.offset());
}

/// Pools equal in every byte, the map's doubles included (so -0.0 != 0.0).
void ExpectSamePool(const QuantizedCodePool& expected,
                    const QuantizedCodePool& actual) {
  EXPECT_EQ(expected.raw_codes(), actual.raw_codes());
  EXPECT_EQ(expected.usable_flags(), actual.usable_flags());
  const double expected_map[] = {expected.offset(), expected.scale()};
  const double actual_map[] = {actual.offset(), actual.scale()};
  EXPECT_EQ(std::memcmp(expected_map, actual_map, sizeof(expected_map)), 0)
      << "offset " << actual.offset() << " vs " << expected.offset()
      << ", scale " << actual.scale() << " vs " << expected.scale();
}

TEST(QuantizedCodePoolTest, ParallelBuildMatchesOneThreadOverAnLru) {
  // 5 x 6 tiles of 8 x 8; tile 7 holds a NaN, so its sketch is unusable.
  rng::Xoshiro256 gen(12);
  table::Matrix data(40, 48);
  for (double& value : data.Values()) value = gen.NextDouble() * 90.0 - 30.0;
  data(9, 12) = std::numeric_limits<double>::quiet_NaN();
  const table::TileGrid grid = table::TileGrid::Create(&data, 8, 8).value();
  const SketchParams params{.p = 1.0, .k = 32, .seed = 5};
  const Sketcher sketcher = Sketcher::Create(params).value();
  const QuantizedCodePool reference =
      BuildFromSketches(SketchAllTilesParallel(sketcher, grid),
                        QuantKind::kInt16, params, 8, 8)
          .value();
  ASSERT_EQ(reference.usable_flags()[7], 0u);
  // Budget 0 keeps every tile; a budget of one byte keeps none.
  for (const size_t budget : {size_t{0}, size_t{1}}) {
    for (const size_t threads : {size_t{1}, size_t{4}}) {
      LruSketchCache cache(&sketcher, &grid, budget);
      const QuantizedCodePool pool =
          QuantizedCodePool::Build(&cache, QuantKind::kInt16, params, 8, 8,
                                   threads)
              .value();
      SCOPED_TRACE(::testing::Message()
                   << "budget " << budget << ", " << threads << " threads");
      ExpectSamePool(reference, pool);
      if (budget == 0) {
        // Each tile is sketched once: the encode pass hits the cache.
        EXPECT_EQ(cache.computed(), grid.num_tiles());
      }
    }
  }
}

TEST(QuantizedCodePoolTest, ParallelBuildKeepsTheFirstSignedZeroExtreme) {
  // The pool minimum is zero, met as +0.0 and -0.0 in different runs of a
  // 4-thread build: the offset keeps the sign of the first, as one scan does.
  const SketchParams params{.p = 1.0, .k = 2, .seed = 1};
  for (const bool negative_first : {false, true}) {
    std::vector<Sketch> sketches(8, Sketch{{1.0, 3.0}});
    sketches[1].values[0] = negative_first ? -0.0 : 0.0;
    sketches[6].values[1] = negative_first ? 0.0 : -0.0;
    const QuantizedCodePool reference =
        BuildFromSketches(sketches, QuantKind::kInt8, params, 1, 1).value();
    EXPECT_EQ(std::signbit(reference.offset()), negative_first);
    FixedSketchSource source(sketches);
    ExpectSamePool(reference,
                   QuantizedCodePool::Build(&source, QuantKind::kInt8, params,
                                            1, 1, 4)
                       .value());
  }
}

TEST(QuantizedCodePoolTest, ParallelBuildRejectsAWrongLengthSketch) {
  const SketchParams params{.p = 1.0, .k = 4, .seed = 1};
  std::vector<Sketch> sketches = RandomSketches(9, 4, 3);
  sketches[6].values.pop_back();
  FixedSketchSource source(sketches);
  const auto pool =
      QuantizedCodePool::Build(&source, QuantKind::kInt16, params, 1, 1, 4);
  ASSERT_FALSE(pool.ok());
  EXPECT_EQ(pool.status().code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tabsketch::core
