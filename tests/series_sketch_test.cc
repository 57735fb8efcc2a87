#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/series_sketch.h"
#include "core/sketcher.h"
#include "fft/correlate.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  std::vector<double> out(n);
  for (double& value : out) value = gen.NextDouble() * 20.0 - 10.0;
  return out;
}

TEST(SeriesSketcherTest, CreateValidates) {
  EXPECT_FALSE(SeriesSketcher::Create({.p = 0.0, .k = 4, .seed = 1}).ok());
  EXPECT_TRUE(SeriesSketcher::Create({.p = 1.0, .k = 4, .seed = 1}).ok());
}

TEST(SeriesSketcherTest, MatchesSingleRowTableSketch) {
  // The documented cross-compatibility invariant: a length-n window sketch
  // equals the 2-D sketch of the same data as a 1 x n subtable.
  SketchParams params{.p = 0.5, .k = 8, .seed = 33};
  auto series_sketcher = SeriesSketcher::Create(params);
  auto table_sketcher = Sketcher::Create(params);
  ASSERT_TRUE(series_sketcher.ok() && table_sketcher.ok());

  const std::vector<double> window = RandomSeries(17, 2);
  table::Matrix as_table(1, window.size(),
                         std::vector<double>(window.begin(), window.end()));
  const Sketch from_series = series_sketcher->SketchOf(window);
  const Sketch from_table = table_sketcher->SketchOf(as_table.View());
  ASSERT_EQ(from_series.size(), from_table.size());
  for (size_t i = 0; i < from_series.size(); ++i) {
    EXPECT_DOUBLE_EQ(from_series.values[i], from_table.values[i]);
  }
}

TEST(SeriesSketcherTest, AllPositionsMatchSingleRowTableBitForBit) {
  // The 1-D layer runs the 2-D all-positions path over the series as a
  // 1 x n table, so every algorithm gives the same bits either way.
  const std::vector<double> series = RandomSeries(100, 4);
  const table::Matrix as_table(1, series.size(), series);
  for (const double sparsity : {1.0, 0.2}) {
    const SketchParams params{
        .p = 1.0, .k = 5, .seed = 17, .sparsity = sparsity};
    auto series_sketcher = SeriesSketcher::Create(params);
    auto table_sketcher = Sketcher::Create(params);
    ASSERT_TRUE(series_sketcher.ok() && table_sketcher.ok());
    for (const SketchAlgorithm algorithm :
         {SketchAlgorithm::kNaive, SketchAlgorithm::kFft,
          SketchAlgorithm::kAuto}) {
      auto from_series =
          series_sketcher->SketchAllPositions(series, 12, algorithm);
      auto from_table =
          table_sketcher->SketchAllPositions(as_table, 1, 12, algorithm);
      ASSERT_TRUE(from_series.ok() && from_table.ok());
      ASSERT_EQ(from_series->positions(), from_table->position_cols());
      for (size_t pos = 0; pos < from_series->positions(); ++pos) {
        EXPECT_EQ(from_series->SketchAt(pos).values,
                  from_table->SketchAt(0, pos).values)
            << "sparsity=" << sparsity
            << " algorithm=" << static_cast<int>(algorithm) << " pos=" << pos;
      }
    }
  }
}

TEST(SeriesSketcherTest, FieldMatchesDirectSketches) {
  SketchParams params{.p = 1.0, .k = 5, .seed = 7};
  auto sketcher = SeriesSketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const std::vector<double> series = RandomSeries(64, 9);
  constexpr size_t kWindow = 12;
  auto field_or = sketcher->SketchAllPositions(series, kWindow,
                                               SketchAlgorithm::kNaive);
  ASSERT_TRUE(field_or.ok());
  const SeriesSketchField& field = *field_or;
  ASSERT_EQ(field.positions(), series.size() - kWindow + 1);
  for (size_t pos = 0; pos < field.positions(); pos += 7) {
    const Sketch direct = sketcher->SketchOf(
        std::span<const double>(series).subspan(pos, kWindow));
    const Sketch from_field = field.SketchAt(pos);
    for (size_t i = 0; i < params.k; ++i) {
      EXPECT_NEAR(direct.values[i], from_field.values[i], 1e-9);
    }
  }
}

TEST(SeriesSketcherTest, FftFieldMatchesNaiveField) {
  SketchParams params{.p = 1.5, .k = 4, .seed = 13};
  auto sketcher = SeriesSketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const std::vector<double> series = RandomSeries(100, 21);
  const auto naive =
      sketcher->SketchAllPositions(series, 16, SketchAlgorithm::kNaive);
  const auto fft =
      sketcher->SketchAllPositions(series, 16, SketchAlgorithm::kFft);
  ASSERT_TRUE(naive.ok());
  ASSERT_TRUE(fft.ok());
  ASSERT_EQ(naive->positions(), fft->positions());
  for (size_t pos = 0; pos < naive->positions(); ++pos) {
    const Sketch a = naive->SketchAt(pos);
    const Sketch b = fft->SketchAt(pos);
    for (size_t i = 0; i < params.k; ++i) {
      EXPECT_NEAR(a.values[i], b.values[i], 1e-8);
    }
  }
}

TEST(SeriesSketcherTest, OversizedWindowIsInvalidArgument) {
  // A window longer than the series used to trip a CHECK inside the FFT
  // plan; it must surface as a recoverable status with a 1-based message.
  SketchParams params{.p = 1.0, .k = 2, .seed = 9};
  auto sketcher = SeriesSketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const std::vector<double> series = RandomSeries(16, 10);
  for (const SketchAlgorithm algorithm :
       {SketchAlgorithm::kNaive, SketchAlgorithm::kFft,
        SketchAlgorithm::kAuto}) {
    auto oversized = sketcher->SketchAllPositions(series, 17, algorithm);
    ASSERT_FALSE(oversized.ok());
    EXPECT_EQ(oversized.status().code(), util::StatusCode::kInvalidArgument);
    EXPECT_NE(oversized.status().message().find("does not fit"),
              std::string::npos)
        << oversized.status().message();
    auto zero = sketcher->SketchAllPositions(series, 0, algorithm);
    ASSERT_FALSE(zero.ok());
    EXPECT_EQ(zero.status().code(), util::StatusCode::kInvalidArgument);
  }
}

TEST(SeriesSketcherTest, EstimateTracksExactDistance) {
  SketchParams params{.p = 1.0, .k = 400, .seed = 3};
  auto sketcher = SeriesSketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(sketcher.ok() && estimator.ok());
  const std::vector<double> x = RandomSeries(256, 51);
  const std::vector<double> y = RandomSeries(256, 52);
  const double exact = LpDistance(x, y, 1.0);
  const double approx =
      estimator->Estimate(sketcher->SketchOf(x), sketcher->SketchOf(y));
  EXPECT_NEAR(approx / exact, 1.0, 0.2);
}

TEST(SeriesSketchPoolTest, BuildAndEnumerate) {
  const std::vector<double> series = RandomSeries(200, 61);
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, {.p = 1.0, .k = 4, .seed = 2},
                                      options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->CanonicalLengths(), (std::vector<size_t>{8, 16, 32, 64,
                                                           128}));
  EXPECT_TRUE(pool->Covers(8));
  EXPECT_TRUE(pool->Covers(200));
  EXPECT_FALSE(pool->Covers(7));
}

TEST(SeriesSketchPoolTest, BuildConstructsExactlyOnePlan) {
  // Like the 2-D pool: one forward FFT of the series serves every canonical
  // length and kernel.
  const std::vector<double> series = RandomSeries(200, 67);
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  const size_t before = fft::CorrelationPlan::plans_constructed();
  auto pool = SeriesSketchPool::Build(series, {.p = 1.0, .k = 5, .seed = 7},
                                      options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(fft::CorrelationPlan::plans_constructed() - before, 1u);
}

TEST(SeriesSketchPoolTest, BuildRejectsImpossibleOptions) {
  const std::vector<double> series = RandomSeries(16, 62);
  SeriesSketchPool::Options options;
  options.log2_min = 6;  // 64 > 16
  EXPECT_FALSE(SeriesSketchPool::Build(series,
                                       {.p = 1.0, .k = 4, .seed = 2},
                                       options)
                   .ok());
}

TEST(SeriesSketchPoolTest, CanonicalMatchesDirect) {
  const std::vector<double> series = RandomSeries(100, 63);
  SketchParams params{.p = 1.0, .k = 6, .seed = 5};
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, params, options);
  auto sketcher = SeriesSketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  auto canonical = pool->CanonicalSketchAt(11, 16);
  ASSERT_TRUE(canonical.ok());
  const Sketch direct = sketcher->SketchOf(
      std::span<const double>(series).subspan(11, 16));
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(canonical->values[i], direct.values[i], 1e-9);
  }
}

TEST(SeriesSketchPoolTest, QueryErrors) {
  const std::vector<double> series = RandomSeries(64, 64);
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, {.p = 1.0, .k = 2, .seed = 5},
                                      options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->Query(0, 0).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(pool->Query(60, 10).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(pool->Query(0, 5).status().code(), util::StatusCode::kNotFound);
  EXPECT_TRUE(pool->Query(3, 10).ok());
}

TEST(SeriesSketchPoolTest, DyadicQueryIsTwiceCanonical) {
  const std::vector<double> series = RandomSeries(64, 65);
  SketchParams params{.p = 1.0, .k = 5, .seed = 5};
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, params, options);
  ASSERT_TRUE(pool.ok());
  auto compound = pool->Query(4, 16);
  auto canonical = pool->CanonicalSketchAt(4, 16);
  ASSERT_TRUE(compound.ok() && canonical.ok());
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(compound->values[i], 2.0 * canonical->values[i], 1e-9);
  }
}

TEST(SeriesSketchPoolTest, CompoundIsSumOfTwoAnchors) {
  const std::vector<double> series = RandomSeries(128, 66);
  SketchParams params{.p = 1.0, .k = 4, .seed = 6};
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, params, options);
  auto sketcher = SeriesSketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  const size_t start = 10, length = 21;  // canonical 16
  auto compound = pool->Query(start, length);
  ASSERT_TRUE(compound.ok());
  auto span = std::span<const double>(series);
  Sketch expected = sketcher->SketchOf(span.subspan(start, 16));
  expected.Add(sketcher->SketchOf(span.subspan(start + length - 16, 16)));
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(compound->values[i], expected.values[i], 1e-9);
  }
}

TEST(SeriesSketchPoolTest, CompoundDistancesPreserveNearVsFar) {
  // Two sine-like regimes; same-regime windows are closer than cross-regime
  // under compound estimates of equal length.
  std::vector<double> series(256);
  for (size_t i = 0; i < 256; ++i) {
    series[i] = (i < 128) ? 10.0 + std::sin(0.3 * static_cast<double>(i))
                          : 200.0 + std::sin(0.3 * static_cast<double>(i));
  }
  SketchParams params{.p = 1.0, .k = 128, .seed = 7};
  SeriesSketchPool::Options options;
  options.log2_min = 3;
  auto pool = SeriesSketchPool::Build(series, params, options);
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(pool.ok() && estimator.ok());
  auto low1 = pool->Query(5, 20);
  auto low2 = pool->Query(70, 20);
  auto high = pool->Query(150, 20);
  ASSERT_TRUE(low1.ok() && low2.ok() && high.ok());
  EXPECT_LT(estimator->Estimate(*low1, *low2),
            estimator->Estimate(*low1, *high));
}

}  // namespace
}  // namespace tabsketch::core
