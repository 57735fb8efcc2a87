#ifndef TABSKETCH_DATA_CALL_VOLUME_H_
#define TABSKETCH_DATA_CALL_VOLUME_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::data {

/// Parameters of the synthetic national call-volume table.
///
/// This generator stands in for the proprietary AT&T dataset (paper
/// Section 4.2: ~20,000 collection stations ordered by zip code on the
/// y-axis, 10-minute call-volume bins over a day on the x-axis). It
/// reproduces the structural features the paper's experiments detect:
///   - spatially coherent population zones (metro cores with dense traffic,
///     flanked by suburbs, over a rural background) — the "clusters of
///     darker colors flanked by lighter colors" of Figure 5;
///   - a strong diurnal curve: negligible volume before ~6am, a business-
///     hours plateau, gradual decay toward midnight;
///   - a mixture of business-like (9am-6pm) and residential-like (9am-9pm)
///     daily profiles per station;
///   - a 3-hour East-to-West phase shift across the station axis (the
///     coast-to-coast time-zone effect the paper observes);
///   - multiplicative log-normal noise.
struct CallVolumeOptions {
  /// Stations, ordered geographically East (row 0) to West (last row).
  size_t num_stations = 1024;
  /// Bins per day; 144 = 10-minute bins as in the paper.
  size_t bins_per_day = 144;
  /// Days of data; columns are day-major (day 0's bins, then day 1's, ...),
  /// the paper's "stitching consecutive days".
  size_t num_days = 1;
  /// Metro cores placed along the station axis.
  size_t num_metros = 8;
  /// Westward diurnal phase shift across the whole axis, in hours.
  double coast_shift_hours = 3.0;
  /// Standard deviation of the log-normal noise (0 disables noise).
  double noise_sigma = 0.15;
  /// Base call volume of a rural station at peak, in calls per bin.
  double rural_peak = 40.0;
  /// Peak multiplier at the center of a metro core.
  double metro_boost = 60.0;
  uint64_t seed = 0xca11f01dULL;

  util::Status Validate() const;
};

/// Generates the table: num_stations rows x (bins_per_day * num_days) cols.
util::Result<table::Matrix> GenerateCallVolume(const CallVolumeOptions& options);

}  // namespace tabsketch::data

#endif  // TABSKETCH_DATA_CALL_VOLUME_H_
