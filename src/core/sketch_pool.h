#ifndef TABSKETCH_CORE_SKETCH_POOL_H_
#define TABSKETCH_CORE_SKETCH_POOL_H_

#include <cstddef>
#include <map>
#include <vector>

#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::core {

/// Which canonical dyadic window sizes a pool precomputes.
struct PoolOptions {
  /// Canonical window heights are 2^i for log2_min_rows <= i <=
  /// log2_max_rows (clamped so windows fit the table). Same for widths.
  size_t log2_min_rows = 3;  // 8
  size_t log2_max_rows = 63;  // effectively "up to the table height"
  size_t log2_min_cols = 3;
  size_t log2_max_cols = 63;

  /// Algorithm for the all-positions precompute, passed to the multi-shape
  /// Sketcher::SketchAllPositions. kAuto is exactly kFft for dense families
  /// (sparsity = 1); for sparse families each kernel is routed between the
  /// shared FFT plan and the O(nnz) sparse-direct path by predicted cost
  /// (DESIGN.md Section 16).
  SketchAlgorithm algorithm = SketchAlgorithm::kAuto;

  /// Worker threads for the precompute: all canonical sizes go to one
  /// Sketcher::SketchAllPositions call, which fans the flat (canonical size
  /// x kernel pair) work list over util::ParallelFor and shares one
  /// CorrelationPlan, i.e. the forward FFT of the data is computed exactly
  /// once per build. The pool is bit-identical for every thread count.
  size_t threads = 1;
};

/// Precomputed sketches for every position of every canonical dyadic window
/// size 2^i x 2^j over one table (paper Theorem 6), answering sketch queries
/// for *arbitrary* rectangles in O(k) by compound-sketch assembly
/// (Definition 4 / Theorem 5).
///
/// A compound sketch for a c x d rectangle with canonical size a x b
/// (a <= c < 2a, b <= d < 2b) is the component-wise sum of the four canonical
/// sketches anchored at the rectangle's corners:
///   s(i,j) + s(i+c-a, j) + s(i, j+d-b) + s(i+c-a, j+d-b).
/// The union of the four windows tiles the rectangle with cells covered 1, 2
/// or 4 times. Because all four windows re-use the same random matrices at
/// different alignments, the distance between two equal-dimension compound
/// sketches estimates the Lp norm of the *folded* difference (each canonical
/// offset accumulates the 1-4 rectangle cells it covers). This yields the
/// 4(1+eps) upper band of Theorem 5; for p < 1, sign cancellation inside the
/// fold can also deflate the estimate. Either way, compound estimates for
/// equal-dimension rectangles remain mutually comparable, which is all
/// clustering needs (the paper's own use).
///
/// Memory: k doubles per position per canonical size; pick PoolOptions ranges
/// accordingly for large tables.
class SketchPool {
 public:
  /// Precomputes all canonical sketch fields for `data`.
  /// Returns InvalidArgument if no canonical size fits the options.
  static util::Result<SketchPool> Build(const table::Matrix& data,
                                        const SketchParams& params,
                                        const PoolOptions& options);

  const SketchParams& params() const { return params_; }
  size_t data_rows() const { return data_rows_; }
  size_t data_cols() const { return data_cols_; }

  /// The canonical (height, width) pairs this pool holds, sorted.
  std::vector<std::pair<size_t, size_t>> CanonicalSizes() const;

  /// Compound sketch of the rectangle anchored at (row, col) spanning
  /// rows x cols. Always the four-corner sum, even when the rectangle is
  /// exactly canonical (the four anchors coincide and the sketch is 4x one
  /// canonical sketch), so that all equal-dimension query results are
  /// directly comparable.
  ///
  /// Returns OutOfRange if the rectangle does not fit the table, NotFound if
  /// the required canonical size is not in the pool.
  util::Result<Sketch> Query(size_t row, size_t col, size_t rows,
                             size_t cols) const;

  /// Direct canonical sketch (no compounding) for a window whose dimensions
  /// are exactly a stored canonical size. Comparable with single-object
  /// Sketcher::SketchOf output for the same family and shape.
  util::Result<Sketch> CanonicalSketchAt(size_t row, size_t col, size_t rows,
                                         size_t cols) const;

  /// All stored canonical fields, keyed by (height, width). Exposed for
  /// serialization (core/pool_io.h).
  const std::map<std::pair<size_t, size_t>, SketchField>& fields() const {
    return fields_;
  }

  /// Reassembles a pool from previously stored parts (deserialization
  /// path). Validates params; field consistency is the caller's contract.
  static util::Result<SketchPool> FromParts(
      const SketchParams& params, size_t data_rows, size_t data_cols,
      std::map<std::pair<size_t, size_t>, SketchField> fields);

 private:
  SketchPool(const SketchParams& params, size_t data_rows, size_t data_cols);

  SketchParams params_;
  size_t data_rows_;
  size_t data_cols_;
  std::map<std::pair<size_t, size_t>, SketchField> fields_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SKETCH_POOL_H_
