#include "data/call_volume.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "rng/distributions.h"
#include "rng/splitmix64.h"
#include "rng/xoshiro256.h"
#include "util/logging.h"

namespace tabsketch::data {
namespace {

/// Smooth bump rising from 0 at `start` to 1 at `start + ramp` and falling
/// back to 0 between `end - ramp` and `end` (hours on a 24h clock, no wrap).
double Plateau(double hour, double start, double end, double ramp) {
  if (hour <= start || hour >= end) return 0.0;
  if (hour < start + ramp) {
    const double t = (hour - start) / ramp;
    return 0.5 - 0.5 * std::cos(std::numbers::pi * t);
  }
  if (hour > end - ramp) {
    const double t = (end - hour) / ramp;
    return 0.5 - 0.5 * std::cos(std::numbers::pi * t);
  }
  return 1.0;
}

/// Business profile: sharp 9am-6pm plateau.
double BusinessProfile(double hour) { return Plateau(hour, 8.0, 18.5, 1.5); }

/// Residential profile: wider 8am-9pm activity with a gentle evening decay
/// toward midnight.
double ResidentialProfile(double hour) {
  const double day = Plateau(hour, 7.0, 21.5, 2.5);
  const double evening = 0.35 * Plateau(hour, 18.0, 24.0, 2.0);
  return std::min(1.0, day + evening);
}

}  // namespace

util::Status CallVolumeOptions::Validate() const {
  if (num_stations == 0 || bins_per_day == 0 || num_days == 0) {
    return util::Status::InvalidArgument(
        "stations, bins_per_day and num_days must be positive");
  }
  if (noise_sigma < 0.0) {
    return util::Status::InvalidArgument("noise_sigma must be >= 0");
  }
  if (coast_shift_hours < 0.0 || coast_shift_hours >= 24.0) {
    return util::Status::InvalidArgument(
        "coast_shift_hours must be in [0, 24)");
  }
  return util::Status::OK();
}

util::Result<table::Matrix> GenerateCallVolume(
    const CallVolumeOptions& options) {
  TABSKETCH_RETURN_IF_ERROR(options.Validate());
  rng::Xoshiro256 gen(options.seed);
  rng::GaussianSampler gaussian;

  const size_t stations = options.num_stations;

  // Per-station population weight: rural background plus Gaussian-profile
  // metro cores at random positions along the axis. Width varies per metro.
  std::vector<double> population(stations, 1.0);
  for (size_t m = 0; m < options.num_metros; ++m) {
    const double center =
        gen.NextDouble() * static_cast<double>(stations);
    const double width =
        (0.6 + 1.8 * gen.NextDouble()) * static_cast<double>(stations) /
        (8.0 * static_cast<double>(std::max<size_t>(options.num_metros, 1)));
    const double boost = options.metro_boost * (0.5 + gen.NextDouble());
    for (size_t s = 0; s < stations; ++s) {
      const double d = (static_cast<double>(s) - center) / width;
      population[s] += boost * std::exp(-0.5 * d * d);
    }
  }

  // Per-station business/residential mix: metro cores skew business-heavy,
  // with per-station jitter.
  std::vector<double> business_fraction(stations);
  for (size_t s = 0; s < stations; ++s) {
    const double urbanness =
        std::min(1.0, (population[s] - 1.0) / options.metro_boost);
    double mix = 0.25 + 0.55 * urbanness + 0.15 * gaussian.Sample(gen);
    business_fraction[s] = std::clamp(mix, 0.0, 1.0);
  }

  // Per-station time-zone shift: East at row 0, West at the last row.
  std::vector<double> shift_hours(stations);
  for (size_t s = 0; s < stations; ++s) {
    const double west_fraction =
        stations == 1 ? 0.0
                      : static_cast<double>(s) /
                            static_cast<double>(stations - 1);
    // Quantize to whole hours: time zones, not a continuous gradient.
    shift_hours[s] =
        std::floor(west_fraction * options.coast_shift_hours + 0.5);
  }

  const size_t total_bins = options.bins_per_day * options.num_days;
  table::Matrix out(stations, total_bins);
  const double bins_per_hour =
      static_cast<double>(options.bins_per_day) / 24.0;

  for (size_t s = 0; s < stations; ++s) {
    auto row = out.Row(s);
    // Day-to-day per-station level wobble, drawn once per day.
    for (size_t day = 0; day < options.num_days; ++day) {
      const double day_level =
          1.0 + 0.1 * gaussian.Sample(gen);
      for (size_t bin = 0; bin < options.bins_per_day; ++bin) {
        const double local_hour =
            static_cast<double>(bin) / bins_per_hour - shift_hours[s];
        const double hour = local_hour < 0.0 ? local_hour + 24.0 : local_hour;
        const double shape =
            business_fraction[s] * BusinessProfile(hour) +
            (1.0 - business_fraction[s]) * ResidentialProfile(hour);
        double value =
            options.rural_peak * population[s] * shape * day_level;
        // Small additive floor so off-hours are low but not identically 0.
        value += 0.02 * options.rural_peak * population[s];
        if (options.noise_sigma > 0.0) {
          value *= std::exp(options.noise_sigma * gaussian.Sample(gen));
        }
        row[day * options.bins_per_day + bin] = value;
      }
    }
  }
  return out;
}

}  // namespace tabsketch::data
