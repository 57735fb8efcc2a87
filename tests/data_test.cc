#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <vector>

#include "data/call_volume.h"
#include "data/six_region.h"
#include "table/tiling.h"

namespace tabsketch::data {
namespace {

TEST(CallVolumeTest, ValidatesOptions) {
  CallVolumeOptions options;
  options.num_stations = 0;
  EXPECT_FALSE(GenerateCallVolume(options).ok());
  options = CallVolumeOptions{};
  options.noise_sigma = -1.0;
  EXPECT_FALSE(GenerateCallVolume(options).ok());
  options = CallVolumeOptions{};
  options.coast_shift_hours = 25.0;
  EXPECT_FALSE(GenerateCallVolume(options).ok());
}

TEST(CallVolumeTest, ShapeMatchesOptions) {
  CallVolumeOptions options;
  options.num_stations = 64;
  options.bins_per_day = 48;
  options.num_days = 3;
  auto table = GenerateCallVolume(options);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->rows(), 64u);
  EXPECT_EQ(table->cols(), 48u * 3u);
}

TEST(CallVolumeTest, DeterministicPerSeed) {
  CallVolumeOptions options;
  options.num_stations = 32;
  options.bins_per_day = 48;
  auto a = GenerateCallVolume(options);
  auto b = GenerateCallVolume(options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(*a == *b);
  options.seed ^= 1;
  auto c = GenerateCallVolume(options);
  ASSERT_TRUE(c.ok());
  EXPECT_FALSE(*a == *c);
}

TEST(CallVolumeTest, AllValuesNonNegative) {
  CallVolumeOptions options;
  options.num_stations = 64;
  options.bins_per_day = 96;
  auto table = GenerateCallVolume(options);
  ASSERT_TRUE(table.ok());
  for (double value : table->Values()) EXPECT_GE(value, 0.0);
}

TEST(CallVolumeTest, DiurnalShapeNightBelowMidday) {
  CallVolumeOptions options;
  options.num_stations = 128;
  options.bins_per_day = 144;
  options.noise_sigma = 0.0;
  auto table = GenerateCallVolume(options);
  ASSERT_TRUE(table.ok());
  // 3am bin vs 1pm bin, averaged over all stations.
  const size_t night_bin = 144 * 3 / 24;
  const size_t midday_bin = 144 * 13 / 24;
  double night = 0.0;
  double midday = 0.0;
  for (size_t s = 0; s < table->rows(); ++s) {
    night += table->At(s, night_bin);
    midday += table->At(s, midday_bin);
  }
  EXPECT_GT(midday, 10.0 * night);
}

TEST(CallVolumeTest, CoastShiftDelaysWesternMorning) {
  CallVolumeOptions options;
  options.num_stations = 200;
  options.bins_per_day = 144;
  options.noise_sigma = 0.0;
  options.coast_shift_hours = 3.0;
  auto table = GenerateCallVolume(options);
  ASSERT_TRUE(table.ok());
  // At 8am Eastern the East (row 0) is ramping up while the West (last row,
  // 5am local) is still asleep. Compare volume normalized by each station's
  // own daily peak to cancel population differences.
  auto normalized_at = [&](size_t station, size_t bin) {
    double peak = 0.0;
    for (size_t b = 0; b < 144; ++b) {
      peak = std::max(peak, table->At(station, b));
    }
    return table->At(station, bin) / peak;
  };
  const size_t bin_8am = 144 * 8 / 24;
  EXPECT_GT(normalized_at(0, bin_8am), 3.0 * normalized_at(199, bin_8am));
}

TEST(CallVolumeTest, MetrosCreateSpatialVolumeVariation) {
  CallVolumeOptions options;
  options.num_stations = 256;
  options.bins_per_day = 48;
  options.noise_sigma = 0.0;
  auto table = GenerateCallVolume(options);
  ASSERT_TRUE(table.ok());
  // Total daily volume per station should vary by more than an order of
  // magnitude between the busiest and quietest stations.
  double min_total = 1e300;
  double max_total = 0.0;
  for (size_t s = 0; s < table->rows(); ++s) {
    double total = 0.0;
    for (double v : table->Row(s)) total += v;
    min_total = std::min(min_total, total);
    max_total = std::max(max_total, total);
  }
  EXPECT_GT(max_total, 10.0 * min_total);
}

TEST(SixRegionTest, ValidatesOptions) {
  SixRegionOptions options;
  options.rows = 3;  // fewer than six regions
  EXPECT_FALSE(GenerateSixRegion(options).ok());
  options = SixRegionOptions{};
  options.outlier_fraction = 1.5;
  EXPECT_FALSE(GenerateSixRegion(options).ok());
}

TEST(SixRegionTest, RegionSizesMatchFractions) {
  SixRegionOptions options;
  options.rows = 256;
  options.cols = 64;
  auto data = GenerateSixRegion(options);
  ASSERT_TRUE(data.ok());
  std::array<int, kNumRegions> counts{};
  for (int region : data->region_of_row) ++counts[region];
  EXPECT_EQ(counts[0], 64);  // 1/4 of 256
  EXPECT_EQ(counts[1], 64);
  EXPECT_EQ(counts[2], 64);
  EXPECT_EQ(counts[3], 32);  // 1/8
  EXPECT_EQ(counts[4], 16);  // 1/16
  EXPECT_EQ(counts[5], 16);  // 1/16
}

TEST(SixRegionTest, NonOutlierValuesNearRegionMean) {
  SixRegionOptions options;
  options.rows = 128;
  options.cols = 64;
  options.outlier_fraction = 0.0;
  auto data = GenerateSixRegion(options);
  ASSERT_TRUE(data.ok());
  for (size_t r = 0; r < data->table.rows(); ++r) {
    const double mean = kRegionMeans[data->region_of_row[r]];
    for (double value : data->table.Row(r)) {
      EXPECT_GE(value, mean - options.uniform_half_width);
      EXPECT_LE(value, mean + options.uniform_half_width);
    }
  }
}

TEST(SixRegionTest, OutlierFractionApproximatelyRespected) {
  SixRegionOptions options;
  options.rows = 256;
  options.cols = 256;
  options.outlier_fraction = 0.01;
  auto data = GenerateSixRegion(options);
  ASSERT_TRUE(data.ok());
  size_t outliers = 0;
  for (size_t r = 0; r < data->table.rows(); ++r) {
    const double mean = kRegionMeans[data->region_of_row[r]];
    for (double value : data->table.Row(r)) {
      if (std::fabs(value - mean) > options.uniform_half_width) ++outliers;
    }
  }
  const double fraction =
      static_cast<double>(outliers) / static_cast<double>(data->table.size());
  EXPECT_NEAR(fraction, 0.01, 0.003);
}

TEST(SixRegionTest, DeterministicPerSeed) {
  SixRegionOptions options;
  options.rows = 64;
  options.cols = 32;
  auto a = GenerateSixRegion(options);
  auto b = GenerateSixRegion(options);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(a->table == b->table);
}

TEST(SixRegionTest, GroundTruthForTilesUsesCenterRow) {
  SixRegionOptions options;
  options.rows = 64;
  options.cols = 64;
  options.outlier_fraction = 0.0;
  auto data = GenerateSixRegion(options);
  ASSERT_TRUE(data.ok());
  auto grid = table::TileGrid::Create(&data->table, 8, 8);
  ASSERT_TRUE(grid.ok());
  const auto truth = GroundTruthForTiles(*data, *grid);
  ASSERT_EQ(truth.size(), grid->num_tiles());
  // First tile row (rows 0-7) lies inside region 0 (rows 0-15).
  EXPECT_EQ(truth[0], 0);
  // Last tile row (rows 56-63) lies inside region 5 (rows 60-63)?
  // Region boundaries for 64 rows: starts at 0,16,32,48,56,60.
  EXPECT_EQ(truth[truth.size() - 1], 5);
}

}  // namespace
}  // namespace tabsketch::data
