#ifndef TABSKETCH_CORE_SKETCHER_H_
#define TABSKETCH_CORE_SKETCHER_H_

#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "core/sketch_params.h"
#include "core/sparse_kernel.h"
#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::util {
class Histogram;
}  // namespace tabsketch::util

namespace tabsketch::core {

/// An Lp sketch: the k dot products of one object (a subtable, linearized
/// row-major) with the k random stable matrices of a sketch family
/// (paper Section 3.2). Constant-size regardless of the object's size —
/// that is the entire point.
struct Sketch {
  std::vector<double> values;

  size_t size() const { return values.size(); }

  /// Component-wise sum, used to assemble compound sketches (Definition 4)
  /// and, via linearity of the dot product, sketches of sums of objects.
  void Add(const Sketch& other);

  /// Multiplies every component by `factor` (linearity: the sketch of c*X is
  /// c*sketch(X)), used e.g. for centroid sketches as means of member
  /// sketches.
  void Scale(double factor);
};

/// Which all-positions algorithm to use (paper Section 3.3).
enum class SketchAlgorithm {
  /// Direct dot products at every position: O(k N M).
  kNaive,
  /// FFT cross-correlation: O(k N log M) (Theorem 3).
  kFft,
  /// Per-kernel predicted-cost choice between the FFT path and the O(nnz)
  /// sparse-direct path (core/sparse_kernel.h). For dense families
  /// (sparsity = 1) this is exactly kFft; the decision depends only on
  /// sizes and each kernel's nnz, never on threads, so results stay
  /// bit-identical across thread counts.
  kAuto,
};

/// All-positions sketch data for one window shape over one table: plane i
/// holds, at (r, c), the dot product of R[i] with the window whose top-left
/// corner is (r, c). SketchAt gathers one position's k values into a Sketch.
class SketchField {
 public:
  SketchField(size_t window_rows, size_t window_cols,
              std::vector<table::Matrix> planes);

  size_t window_rows() const { return window_rows_; }
  size_t window_cols() const { return window_cols_; }
  /// Number of valid window positions per dimension.
  size_t position_rows() const { return planes_.front().rows(); }
  size_t position_cols() const { return planes_.front().cols(); }
  size_t k() const { return planes_.size(); }

  const table::Matrix& plane(size_t i) const { return planes_[i]; }

  /// The sketch of the window anchored at (row, col).
  Sketch SketchAt(size_t row, size_t col) const;

  /// Appends the window's sketch values at (row, col) component-wise into
  /// `sum->values` (which must have size k). Allocation-free accumulation
  /// path for compound sketches.
  void AccumulateAt(size_t row, size_t col, Sketch* sum) const;

 private:
  size_t window_rows_;
  size_t window_cols_;
  std::vector<table::Matrix> planes_;
};

/// Produces Lp sketches for a fixed parameter family. The random stable
/// matrices for each window shape are generated deterministically from the
/// family seed on first use and cached, so every Sketcher (and SketchPool)
/// with equal params yields mutually comparable sketches.
///
/// Thread-safe for concurrent SketchOf calls. Each shape's kernels are
/// generated once per layout, however many threads ask for them first: the
/// first caller generates and the others wait, so callers need no pre-warm.
class Sketcher {
 public:
  /// Validates `params` and builds a sketcher.
  static util::Result<Sketcher> Create(const SketchParams& params);

  Sketcher(Sketcher&&) = default;
  Sketcher& operator=(Sketcher&&) = default;

  const SketchParams& params() const { return params_; }

  /// Sketch of a single subtable: O(k * size) dense dot products — the
  /// "sketch on demand" cost of the paper's clustering scenario (2) — or
  /// O(k * nnz) sparse-kernel walks when the family's sparsity < 1,
  /// bit-identical to the dense walk (the skipped entries are exact zeros).
  ///
  /// The dense walk reads the view once per block of 16 kernels and keeps
  /// 16 independent sums, one per kernel. Each sum starts at +0.0 and adds
  /// the rounded product of every element in row-major order, with no
  /// fused multiply-add, so it equals the one-kernel-at-a-time dot product
  /// bit for bit (DESIGN.md Section 5). It is SketchEach's one-view case.
  Sketch SketchOf(const table::TableView& view) const;

  /// SketchOf of every view, bit for bit, over `threads`; the views must
  /// share one shape. The dense walk first generates the shape's kernels
  /// over `threads` if no caller has, then fans groups of up to 16 views
  /// over `threads` and sums each group against one block of kernels at a
  /// time, so a block is read from memory once per group rather than once
  /// per view. A sparse family runs SketchOf on each view. Counts one
  /// sketcher.sketch_of.calls per view.
  std::vector<Sketch> SketchEach(std::span<const table::TableView> views,
                                 size_t threads = 1) const;

  /// A window shape: (rows, cols).
  using WindowShape = std::pair<size_t, size_t>;

  /// Sketches of all positions of every window shape in `shapes` over `data`
  /// (paper Theorems 3 and 6), one field per shape in order. This is the
  /// one all-positions path: the single-shape overload and SketchPool::Build
  /// both run through it.
  ///
  /// Each kernel's path is picked once, up front: kNaive correlates
  /// directly; kFft rides one CorrelationPlan of `data`, built at most once
  /// and shared by every shape and kernel; kAuto is kFft for dense families
  /// and, for sparse ones, sends each kernel to the plan or the O(nnz)
  /// direct walk by PreferSparsePath (DESIGN.md Section 16). Adjacent
  /// kernels that both ride the plan share one transform pair through
  /// CorrelatePair. The flat (shape x kernel pair) work list fans out over
  /// `threads`; routing and pairing depend only on sizes and nnz, so the
  /// result is bit-identical for every thread count. When `busy` is
  /// non-empty it holds one histogram per shape, and each work item
  /// observes its wall seconds into its shape's histogram.
  ///
  /// Returns InvalidArgument if some window is empty or does not fit.
  util::Result<std::vector<SketchField>> SketchAllPositions(
      const table::Matrix& data, std::span<const WindowShape> shapes,
      SketchAlgorithm algorithm, size_t threads = 1,
      std::span<util::Histogram* const> busy = {}) const;

  /// The single-shape case of the above. The FFT path and the naive path
  /// agree to floating-point rounding.
  util::Result<SketchField> SketchAllPositions(const table::Matrix& data,
                                               size_t window_rows,
                                               size_t window_cols,
                                               SketchAlgorithm algorithm,
                                               size_t threads = 1) const;

  /// The k random matrices for a window shape (cached). SketchOf does not
  /// read them, so a shape that is only ever sketched one view at a time
  /// never builds this copy.
  const std::vector<table::Matrix>& MatricesFor(size_t rows,
                                                size_t cols) const;

  /// The k kernels of a window shape in sparse CSR-style form (cached).
  /// Bit-identical in content to MatricesFor (same derivation, zeros
  /// dropped); only worth storing for sparse families.
  const std::vector<SparseKernel>& SparseKernelsFor(size_t rows,
                                                    size_t cols) const;

  /// Process-wide count of kernel sets generated so far: one per shape and
  /// layout (row-major, sparse, blocked) per sketcher cache. Test hook: any
  /// number of concurrent first uses of a shape raise it by one.
  static size_t kernel_sets_generated();

 private:
  /// One shape's kernels in one layout. The entry is inserted under the
  /// cache mutex and filled outside it under `once`, so concurrent first
  /// users generate the kernels once and the others wait for them.
  template <typename Kernels>
  struct CacheEntry {
    std::once_flag once;
    Kernels kernels;
  };
  template <typename Kernels>
  using ShapeMap = std::map<std::pair<size_t, size_t>, CacheEntry<Kernels>>;

  // Shape-keyed cache of generated stable matrices, shared so that Sketcher
  // remains cheap to move while the cache (which can hold tens of MB for
  // large windows) is built once. Entries are never erased, and std::map
  // never moves them, so references to their kernels stay valid.
  struct MatrixCache {
    std::mutex mutex;
    ShapeMap<std::vector<table::Matrix>> dense;
    ShapeMap<std::vector<SparseKernel>> sparse;
    /// SketchOf's dense layout: kernel 16b + j at row-major element e is
    /// value (b * elements + e) * 16 + j; the last block is zero-padded.
    ShapeMap<std::vector<double>> blocked;
  };

  explicit Sketcher(const SketchParams& params);

  /// The k kernels of a window shape in SketchOf's blocked layout (cached),
  /// generated over `threads` by whichever caller comes first. Each kernel
  /// fills only its own lanes, so the bytes do not depend on `threads`.
  const std::vector<double>& BlockedKernelsFor(size_t rows, size_t cols,
                                               size_t threads) const;

  SketchParams params_;
  std::shared_ptr<MatrixCache> cache_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SKETCHER_H_
