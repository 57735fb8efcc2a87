#include "core/sketcher.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <tuple>
#include <utility>

#include "core/code_kernels.h"
#include "core/stable_matrix.h"
#include "fft/correlate.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace tabsketch::core {
namespace {

/// The satellite-crash fix: window-fit problems surface as InvalidArgument
/// with 1-based sizes (a "1x1 window" is the smallest, matching how users
/// write --tile-rows/--min-log2), instead of dying on a CHECK.
util::Status WindowFitError(size_t window_rows, size_t window_cols,
                            size_t data_rows, size_t data_cols) {
  std::ostringstream msg;
  msg << "window " << window_rows << "x" << window_cols
      << " does not fit the " << data_rows << "x" << data_cols
      << " table: window sides must be between 1 and the table's sides";
  return util::Status::InvalidArgument(msg.str());
}

using kernels::kBlockKernels;

/// What Sketcher::kernel_sets_generated() reports.
std::atomic<size_t> kernel_sets{0};

/// The kernels of shape (rows, cols) in `map`, made by `generate` on first
/// use: the entry is inserted under `mutex` and filled outside it, once.
template <typename Map, typename Generate>
const auto& Cached(std::mutex* mutex, Map* map, size_t rows, size_t cols,
                   const Generate& generate) {
  typename Map::mapped_type* entry;
  {
    std::lock_guard<std::mutex> lock(*mutex);
    entry = &(*map)[{rows, cols}];
  }
  std::call_once(entry->once, [&] {
    entry->kernels = generate();
    kernel_sets.fetch_add(1, std::memory_order_relaxed);
  });
  return entry->kernels;
}

/// SketchEach's fan-out unit: at most 16 tiles, which share each block
/// while it sits in cache (DESIGN.md Section 5).
constexpr size_t kGroupTiles = 16;

/// The dense walk over `views` (at most kGroupTiles, one shape): for each
/// block of `blocked` in turn, every view's sums against it, written into
/// the matching `out` sketch. A padded lane of the last block may sum to
/// NaN (inf * 0); it is dropped.
void SumGroup(std::span<const table::TableView> views,
              const std::vector<double>& blocked, size_t k,
              std::span<Sketch> out) {
  const size_t rows = views.front().rows();
  const size_t cols = views.front().cols();
  std::vector<const double*> tile_rows;
  tile_rows.reserve(views.size() * rows);
  for (const table::TableView& view : views) {
    for (size_t r = 0; r < rows; ++r) tile_rows.push_back(view.Row(r).data());
  }
  for (Sketch& sketch : out) sketch.values.resize(k);
  const size_t block_values = rows * cols * kBlockKernels;
  double sums[kGroupTiles * kBlockKernels];
  for (size_t first = 0; first < k; first += kBlockKernels) {
    kernels::SumBlock(tile_rows.data(), views.size(), rows, cols,
                      blocked.data() + first / kBlockKernels * block_values,
                      sums);
    const size_t width = std::min(kBlockKernels, k - first);
    for (size_t t = 0; t < views.size(); ++t) {
      std::copy_n(sums + t * kBlockKernels, width,
                  out[t].values.begin() + static_cast<std::ptrdiff_t>(first));
    }
  }
}

}  // namespace

void Sketch::Add(const Sketch& other) {
  TABSKETCH_CHECK(values.size() == other.values.size())
      << "adding sketches of different sizes";
  for (size_t i = 0; i < values.size(); ++i) {
    values[i] += other.values[i];
  }
}

void Sketch::Scale(double factor) {
  for (double& value : values) value *= factor;
}

SketchField::SketchField(size_t window_rows, size_t window_cols,
                         std::vector<table::Matrix> planes)
    : window_rows_(window_rows),
      window_cols_(window_cols),
      planes_(std::move(planes)) {
  TABSKETCH_CHECK(!planes_.empty()) << "sketch field needs at least one plane";
  for (const auto& plane : planes_) {
    TABSKETCH_CHECK(plane.rows() == planes_.front().rows() &&
                    plane.cols() == planes_.front().cols())
        << "sketch field planes must share dimensions";
  }
}

Sketch SketchField::SketchAt(size_t row, size_t col) const {
  Sketch out;
  out.values.resize(planes_.size());
  for (size_t i = 0; i < planes_.size(); ++i) {
    out.values[i] = planes_[i].At(row, col);
  }
  return out;
}

void SketchField::AccumulateAt(size_t row, size_t col, Sketch* sum) const {
  TABSKETCH_CHECK(sum->values.size() == planes_.size())
      << "accumulator size " << sum->values.size() << " != k "
      << planes_.size();
  for (size_t i = 0; i < planes_.size(); ++i) {
    sum->values[i] += planes_[i].At(row, col);
  }
}

util::Result<Sketcher> Sketcher::Create(const SketchParams& params) {
  TABSKETCH_RETURN_IF_ERROR(params.Validate());
  return Sketcher(params);
}

Sketcher::Sketcher(const SketchParams& params)
    : params_(params), cache_(std::make_shared<MatrixCache>()) {}

const std::vector<table::Matrix>& Sketcher::MatricesFor(size_t rows,
                                                        size_t cols) const {
  return Cached(&cache_->mutex, &cache_->dense, rows, cols,
                [&] { return StableRandomMatrices(params_, rows, cols); });
}

const std::vector<SparseKernel>& Sketcher::SparseKernelsFor(
    size_t rows, size_t cols) const {
  return Cached(&cache_->mutex, &cache_->sparse, rows, cols,
                [&] { return SparseStableKernels(params_, rows, cols); });
}

const std::vector<double>& Sketcher::BlockedKernelsFor(size_t rows,
                                                       size_t cols,
                                                       size_t threads) const {
  return Cached(&cache_->mutex, &cache_->blocked, rows, cols, [&] {
    // Kernel by kernel from the generator, so no row-major set is built
    // (StableMatrixTest.BatchMatchesIndividual: these are MatricesFor's).
    const size_t elements = rows * cols;
    const size_t blocks = (params_.k + kBlockKernels - 1) / kBlockKernels;
    std::vector<double> blocked(blocks * elements * kBlockKernels, 0.0);
    util::ParallelFor(params_.k, threads, [&](size_t i) {
      const table::Matrix kernel = StableRandomMatrix(params_, i, rows, cols);
      double* out = blocked.data() +
                    (i / kBlockKernels) * elements * kBlockKernels +
                    i % kBlockKernels;
      for (const double value : kernel.Values()) {
        *out = value;
        out += kBlockKernels;
      }
    });
    return blocked;
  });
}

size_t Sketcher::kernel_sets_generated() {
  return kernel_sets.load(std::memory_order_relaxed);
}

Sketch Sketcher::SketchOf(const table::TableView& view) const {
  TABSKETCH_CHECK(!view.empty()) << "cannot sketch an empty subtable";
  TABSKETCH_METRIC_COUNT("sketcher.sketch_of.calls");
  Sketch out;
  out.values.resize(params_.k);
  if (params_.sparsity < 1.0) {
    // O(nnz) walk over the kernels' support in storage (row-major) order —
    // bit-identical to the dense walk below, which only adds exact-zero
    // products on top of the same accumulation sequence.
    TABSKETCH_METRIC_COUNT("sparse.sketch_of.calls");
    const auto& kernels = SparseKernelsFor(view.rows(), view.cols());
    for (size_t i = 0; i < params_.k; ++i) {
      const SparseKernel& kernel = kernels[i];
      double acc = 0.0;
      for (size_t e = 0; e < kernel.nnz(); ++e) {
        acc += view.At(kernel.entry_rows[e], kernel.entry_cols[e]) *
               kernel.values[e];
      }
      out.values[i] = acc;
    }
    return out;
  }
  SumGroup({&view, 1}, BlockedKernelsFor(view.rows(), view.cols(), 1),
           params_.k, {&out, 1});
  return out;
}

std::vector<Sketch> Sketcher::SketchEach(
    std::span<const table::TableView> views, size_t threads) const {
  std::vector<Sketch> out(views.size());
  if (params_.sparsity < 1.0 || views.empty()) {
    util::ParallelFor(views.size(), threads,
                      [&](size_t i) { out[i] = SketchOf(views[i]); });
    return out;
  }
  const size_t rows = views.front().rows();
  const size_t cols = views.front().cols();
  for (const table::TableView& view : views) {
    TABSKETCH_CHECK(!view.empty()) << "cannot sketch an empty subtable";
    TABSKETCH_CHECK(view.rows() == rows && view.cols() == cols)
        << "SketchEach over views of different shapes";
  }
  TABSKETCH_METRIC_COUNT_N("sketcher.sketch_of.calls", views.size());
  const std::vector<double>& blocked = BlockedKernelsFor(rows, cols, threads);
  const size_t groups = (views.size() + kGroupTiles - 1) / kGroupTiles;
  util::ParallelFor(groups, threads, [&](size_t g) {
    const size_t first = g * kGroupTiles;
    const size_t count = std::min(kGroupTiles, views.size() - first);
    SumGroup(views.subspan(first, count), blocked, params_.k,
             std::span<Sketch>(out).subspan(first, count));
  });
  return out;
}

util::Result<std::vector<SketchField>> Sketcher::SketchAllPositions(
    const table::Matrix& data, std::span<const WindowShape> shapes,
    SketchAlgorithm algorithm, size_t threads,
    std::span<util::Histogram* const> busy) const {
  for (const auto& [window_rows, window_cols] : shapes) {
    if (window_rows < 1 || window_cols < 1 || window_rows > data.rows() ||
        window_cols > data.cols()) {
      return WindowFitError(window_rows, window_cols, data.rows(),
                            data.cols());
    }
  }
  TABSKETCH_CHECK(busy.empty() || busy.size() == shapes.size())
      << busy.size() << " busy histograms for " << shapes.size() << " shapes";
  TABSKETCH_TRACE_SPAN("sketcher.all_positions");

  // Route every kernel once, before the fan-out. Under kAuto a sparse
  // family's kernel goes direct iff its predicted O(nnz) walk undercuts its
  // FFT pass (DESIGN.md Section 16); a dense family's kAuto is exactly kFft.
  enum class Route : uint8_t { kNaive, kFft, kDirect };
  const size_t k = params_.k;
  std::vector<std::vector<Route>> routes(
      shapes.size(),
      std::vector<Route>(k, algorithm == SketchAlgorithm::kNaive
                                ? Route::kNaive
                                : Route::kFft));
  if (algorithm == SketchAlgorithm::kAuto && params_.sparsity < 1.0) {
    size_t direct_kernels = 0;
    for (size_t s = 0; s < shapes.size(); ++s) {
      const auto [window_rows, window_cols] = shapes[s];
      const auto& kernels = SparseKernelsFor(window_rows, window_cols);
      const size_t positions = (data.rows() - window_rows + 1) *
                               (data.cols() - window_cols + 1);
      for (size_t i = 0; i < k; ++i) {
        if (PreferSparsePath(kernels[i].nnz(), positions, data.rows(),
                             data.cols())) {
          routes[s][i] = Route::kDirect;
          ++direct_kernels;
        }
      }
    }
    TABSKETCH_METRIC_COUNT_N("sparse.pool.direct_kernels", direct_kernels);
    TABSKETCH_METRIC_COUNT_N("sparse.pool.fft_kernels",
                             shapes.size() * k - direct_kernels);
  }

  // Materialize the dense matrices of every shape with a kernel off the
  // direct walk, so workers only read the cache and generation stays out of
  // their busy histograms.
  // One forward FFT of the data then serves every shape and kernel that
  // rides the plan; Correlate is const and concurrency-safe.
  const auto reads_dense = [](Route route) { return route != Route::kDirect; };
  const auto rides_plan = [](Route route) { return route == Route::kFft; };
  bool any_fft = false;
  for (size_t s = 0; s < shapes.size(); ++s) {
    if (std::ranges::any_of(routes[s], reads_dense)) {
      MatricesFor(shapes[s].first, shapes[s].second);
    }
    any_fft = any_fft || std::ranges::any_of(routes[s], rides_plan);
  }
  std::unique_ptr<const fft::CorrelationPlan> plan;
  if (any_fft) plan = std::make_unique<const fft::CorrelationPlan>(data);

  // Flat fan-out over (shape x kernel pair): work item w computes kernels
  // 2j and 2j+1 of shape w / pairs, where j = w % pairs. Two kernels that
  // both ride the plan share one forward/inverse transform (CorrelatePair
  // real-pair packing); any other pair, and an odd k's last kernel, runs
  // kernel by kernel. The pairing is fixed by index and every item writes
  // distinct slots, so the result is bit-identical for any thread count.
  const size_t pairs = (k + 1) / 2;
  std::vector<std::vector<table::Matrix>> planes(
      shapes.size(), std::vector<table::Matrix>(k));
  util::ParallelFor(shapes.size() * pairs, threads, [&](size_t w) {
    const util::WallTimer item_timer;
    const size_t s = w / pairs;
    const auto [window_rows, window_cols] = shapes[s];
    const std::vector<Route>& route = routes[s];
    std::vector<table::Matrix>& out = planes[s];
    const size_t first = 2 * (w % pairs);
    const size_t end = std::min(first + 2, k);
    if (end - first == 2 && route[first] == Route::kFft &&
        route[first + 1] == Route::kFft) {
      const auto& matrices = MatricesFor(window_rows, window_cols);
      std::tie(out[first], out[first + 1]) =
          plan->CorrelatePair(matrices[first], matrices[first + 1]);
    } else {
      for (size_t i = first; i < end; ++i) {
        switch (route[i]) {
          case Route::kNaive:
            out[i] = fft::CrossCorrelateNaive(
                data, MatricesFor(window_rows, window_cols)[i]);
            break;
          case Route::kFft:
            out[i] = plan->Correlate(MatricesFor(window_rows, window_cols)[i]);
            break;
          case Route::kDirect:
            out[i] = CrossCorrelateSparse(
                data, SparseKernelsFor(window_rows, window_cols)[i]);
            break;
        }
      }
    }
    if (!busy.empty()) busy[s]->Observe(item_timer.ElapsedSeconds());
  });

  std::vector<SketchField> fields;
  fields.reserve(shapes.size());
  for (size_t s = 0; s < shapes.size(); ++s) {
    fields.emplace_back(shapes[s].first, shapes[s].second,
                        std::move(planes[s]));
  }
  return fields;
}

util::Result<SketchField> Sketcher::SketchAllPositions(
    const table::Matrix& data, size_t window_rows, size_t window_cols,
    SketchAlgorithm algorithm, size_t threads) const {
  const WindowShape shape{window_rows, window_cols};
  TABSKETCH_ASSIGN_OR_RETURN(
      std::vector<SketchField> fields,
      SketchAllPositions(data, {&shape, 1}, algorithm, threads));
  return std::move(fields.front());
}

}  // namespace tabsketch::core
