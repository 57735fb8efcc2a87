#include "core/sketch_pool.h"

#include <bit>
#include <sstream>
#include <utility>

#include "util/metrics.h"
#include "util/trace.h"

namespace tabsketch::core {

SketchPool::SketchPool(const SketchParams& params, size_t data_rows,
                       size_t data_cols)
    : params_(params), data_rows_(data_rows), data_cols_(data_cols) {}

util::Result<SketchPool> SketchPool::Build(const table::Matrix& data,
                                           const SketchParams& params,
                                           const PoolOptions& options) {
  TABSKETCH_RETURN_IF_ERROR(params.Validate());
  if (data.empty()) {
    return util::Status::InvalidArgument("cannot build a pool over an empty "
                                         "table");
  }
  TABSKETCH_ASSIGN_OR_RETURN(Sketcher sketcher, Sketcher::Create(params));

  std::vector<Sketcher::WindowShape> sizes;
  for (size_t i = options.log2_min_rows;
       i <= options.log2_max_rows && (static_cast<size_t>(1) << i) <= data.rows();
       ++i) {
    const size_t window_rows = static_cast<size_t>(1) << i;
    for (size_t j = options.log2_min_cols;
         j <= options.log2_max_cols &&
         (static_cast<size_t>(1) << j) <= data.cols();
         ++j) {
      sizes.emplace_back(window_rows, static_cast<size_t>(1) << j);
    }
  }
  if (sizes.empty()) {
    return util::Status::InvalidArgument(
        "no canonical dyadic size fits the table under the given options");
  }
  TABSKETCH_TRACE_SPAN("pool.build");
  TABSKETCH_METRIC_GAUGE_SET("pool.build.canonical_sizes", sizes.size());

  // Per-canonical-size busy-time histograms, resolved before the fan-out so
  // workers record through cached pointers instead of the registry lock. One
  // observation per work item (a kernel pair), so `sum` is the size's total
  // correlation time across threads and `count` its number of work items.
  std::vector<util::Histogram*> size_histograms;
  if (util::MetricsRegistry::Enabled()) {
    size_histograms.reserve(sizes.size());
    for (const auto& [window_rows, window_cols] : sizes) {
      std::ostringstream name;
      name << "span.pool.build.size_" << window_rows << "x" << window_cols
           << ".seconds";
      size_histograms.push_back(
          util::MetricsRegistry::Global().GetHistogram(name.str()));
    }
  }

  TABSKETCH_ASSIGN_OR_RETURN(
      std::vector<SketchField> fields,
      sketcher.SketchAllPositions(data, sizes, options.algorithm,
                                  options.threads, size_histograms));
  SketchPool pool(params, data.rows(), data.cols());
  for (size_t s = 0; s < sizes.size(); ++s) {
    pool.fields_.emplace(sizes[s], std::move(fields[s]));
  }
  return pool;
}

util::Result<SketchPool> SketchPool::FromParts(
    const SketchParams& params, size_t data_rows, size_t data_cols,
    std::map<std::pair<size_t, size_t>, SketchField> fields) {
  TABSKETCH_RETURN_IF_ERROR(params.Validate());
  if (fields.empty()) {
    return util::Status::InvalidArgument("a pool needs at least one field");
  }
  SketchPool pool(params, data_rows, data_cols);
  pool.fields_ = std::move(fields);
  return pool;
}

std::vector<std::pair<size_t, size_t>> SketchPool::CanonicalSizes() const {
  std::vector<std::pair<size_t, size_t>> out;
  out.reserve(fields_.size());
  for (const auto& entry : fields_) out.push_back(entry.first);
  return out;
}

util::Result<Sketch> SketchPool::Query(size_t row, size_t col, size_t rows,
                                       size_t cols) const {
  if (rows == 0 || cols == 0) {
    return util::Status::InvalidArgument("query rectangle must be non-empty");
  }
  if (row + rows > data_rows_ || col + cols > data_cols_) {
    std::ostringstream msg;
    msg << "query (" << row << "," << col << ")+" << rows << "x" << cols
        << " exceeds table " << data_rows_ << "x" << data_cols_;
    return util::Status::OutOfRange(msg.str());
  }
  const size_t a = std::bit_floor(rows);
  const size_t b = std::bit_floor(cols);
  auto it = fields_.find({a, b});
  if (it == fields_.end()) {
    std::ostringstream msg;
    msg << "canonical size " << a << "x" << b << " not in pool";
    return util::Status::NotFound(msg.str());
  }
  const SketchField& field = it->second;

  // Four-corner compound sketch (Definition 4). With c = rows, d = cols the
  // anchors are (row, col), (row + c - a, col), (row, col + d - b) and the
  // diagonal corner; a <= c < 2a guarantees the shifted windows still overlap
  // the rectangle and tile it completely.
  Sketch sum;
  sum.values.assign(params_.k, 0.0);
  const size_t row2 = row + rows - a;
  const size_t col2 = col + cols - b;
  field.AccumulateAt(row, col, &sum);
  field.AccumulateAt(row2, col, &sum);
  field.AccumulateAt(row, col2, &sum);
  field.AccumulateAt(row2, col2, &sum);
  return sum;
}

util::Result<Sketch> SketchPool::CanonicalSketchAt(size_t row, size_t col,
                                                   size_t rows,
                                                   size_t cols) const {
  auto it = fields_.find({rows, cols});
  if (it == fields_.end()) {
    std::ostringstream msg;
    msg << rows << "x" << cols << " is not a stored canonical size";
    return util::Status::NotFound(msg.str());
  }
  if (row + rows > data_rows_ || col + cols > data_cols_) {
    return util::Status::OutOfRange("canonical window exceeds the table");
  }
  return it->second.SketchAt(row, col);
}

}  // namespace tabsketch::core
