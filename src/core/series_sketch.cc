#include "core/series_sketch.h"

#include <bit>
#include <sstream>
#include <utility>

#include "table/matrix.h"
#include "util/logging.h"

namespace tabsketch::core {
namespace {

/// The series as a 1 x n table. The copy is O(n), next to the k
/// correlations it feeds.
table::Matrix AsRow(std::span<const double> series) {
  return table::Matrix(1, series.size(),
                       std::vector<double>(series.begin(), series.end()));
}

}  // namespace

SeriesSketchField::SeriesSketchField(SketchField field)
    : field_(std::move(field)) {
  TABSKETCH_CHECK(field_.window_rows() == 1 && field_.position_rows() == 1)
      << "a series field is one row of 1 x window sketches";
}

Sketch SeriesSketchField::SketchAt(size_t pos) const {
  TABSKETCH_CHECK(pos < positions()) << pos << " out of " << positions();
  return field_.SketchAt(0, pos);
}

void SeriesSketchField::AccumulateAt(size_t pos, Sketch* sum) const {
  TABSKETCH_CHECK(pos < positions()) << pos << " out of " << positions();
  field_.AccumulateAt(0, pos, sum);
}

util::Result<SeriesSketcher> SeriesSketcher::Create(
    const SketchParams& params) {
  TABSKETCH_ASSIGN_OR_RETURN(Sketcher sketcher, Sketcher::Create(params));
  return SeriesSketcher(std::move(sketcher));
}

SeriesSketcher::SeriesSketcher(Sketcher sketcher)
    : sketcher_(std::move(sketcher)) {}

Sketch SeriesSketcher::SketchOf(std::span<const double> window) const {
  return sketcher_.SketchOf(
      table::TableView(window.data(), 1, window.size(), window.size()));
}

util::Result<SeriesSketchField> SeriesSketcher::SketchAllPositions(
    std::span<const double> series, size_t window,
    SketchAlgorithm algorithm) const {
  TABSKETCH_ASSIGN_OR_RETURN(
      SketchField field,
      sketcher_.SketchAllPositions(AsRow(series), 1, window, algorithm));
  return SeriesSketchField(std::move(field));
}

SeriesSketchPool::SeriesSketchPool(SketchPool pool) : pool_(std::move(pool)) {}

util::Result<SeriesSketchPool> SeriesSketchPool::Build(
    std::span<const double> series, const SketchParams& params,
    const Options& options) {
  PoolOptions pool_options;
  pool_options.log2_min_rows = 0;
  pool_options.log2_max_rows = 0;
  pool_options.log2_min_cols = options.log2_min;
  pool_options.log2_max_cols = options.log2_max;
  TABSKETCH_ASSIGN_OR_RETURN(
      SketchPool pool, SketchPool::Build(AsRow(series), params, pool_options));
  return SeriesSketchPool(std::move(pool));
}

std::vector<size_t> SeriesSketchPool::CanonicalLengths() const {
  std::vector<size_t> out;
  for (const auto& [rows, cols] : pool_.CanonicalSizes()) out.push_back(cols);
  return out;
}

bool SeriesSketchPool::Covers(size_t length) const {
  return pool_.Covers(1, length);
}

util::Result<Sketch> SeriesSketchPool::Query(size_t start,
                                             size_t length) const {
  if (length == 0) {
    return util::Status::InvalidArgument("query window must be non-empty");
  }
  if (start + length > series_length()) {
    std::ostringstream msg;
    msg << "query [" << start << ", " << start + length
        << ") exceeds series length " << series_length();
    return util::Status::OutOfRange(msg.str());
  }
  const size_t a = std::bit_floor(length);
  auto it = pool_.fields().find({1, a});
  if (it == pool_.fields().end()) {
    std::ostringstream msg;
    msg << "canonical length " << a << " not in pool";
    return util::Status::NotFound(msg.str());
  }
  Sketch sum;
  sum.values.assign(params().k, 0.0);
  it->second.AccumulateAt(0, start, &sum);
  it->second.AccumulateAt(0, start + length - a, &sum);
  return sum;
}

util::Result<Sketch> SeriesSketchPool::CanonicalSketchAt(
    size_t start, size_t length) const {
  return pool_.CanonicalSketchAt(0, start, 1, length);
}

}  // namespace tabsketch::core
