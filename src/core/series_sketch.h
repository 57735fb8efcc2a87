#ifndef TABSKETCH_CORE_SERIES_SKETCH_H_
#define TABSKETCH_CORE_SERIES_SKETCH_H_

#include <cstddef>
#include <span>
#include <vector>

#include "core/sketch_params.h"
#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "util/result.h"

namespace tabsketch::core {

/// All-positions sketches of one window length over a 1-D series: entry
/// (i, pos) is the dot product of random vector R[i] with
/// series[pos .. pos + window). A view of the 1 x window SketchField over
/// the series as a 1 x n table.
class SeriesSketchField {
 public:
  /// `field` must be a 1 x window field.
  explicit SeriesSketchField(SketchField field);

  size_t window() const { return field_.window_cols(); }
  size_t positions() const { return field_.position_cols(); }
  size_t k() const { return field_.k(); }

  /// The sketch of the window starting at `pos`.
  Sketch SketchAt(size_t pos) const;

  /// Adds the window sketch at `pos` into `sum` component-wise (`sum` must
  /// have size k). Allocation-free path for compound sketches.
  void AccumulateAt(size_t pos, Sketch* sum) const;

 private:
  SketchField field_;
};

/// Lp sketches for windows of a 1-D time series — the machinery of the
/// paper's predecessor [Indyk, Koudas, Muthukrishnan, VLDB 2000]
/// ("identifying representative trends"), which the tabular paper extends
/// to two dimensions.
///
/// A thin adapter over the 2-D Sketcher: a length-n series is sketched as
/// a 1 x n table, so series sketches are bit-identical to single-row table
/// sketches of the same family (tested invariant).
class SeriesSketcher {
 public:
  static util::Result<SeriesSketcher> Create(const SketchParams& params);

  const SketchParams& params() const { return sketcher_.params(); }

  /// Sketch of one window: O(k * window) dense dot products, or O(k * nnz)
  /// sparse walks when the family's sparsity < 1 (bit-identical to dense).
  Sketch SketchOf(std::span<const double> window) const;

  /// Sketches of every window position over `series` (1-D Theorem 3):
  /// Sketcher::SketchAllPositions over the series as a 1 x n table, so
  /// O(k N log N) with the FFT algorithm, O(k N M) naive, and per-kernel
  /// cost-routed FFT vs O(nnz N) sparse-direct under kAuto. Returns
  /// InvalidArgument if the window is empty or longer than the series.
  util::Result<SeriesSketchField> SketchAllPositions(
      std::span<const double> series, size_t window,
      SketchAlgorithm algorithm) const;

 private:
  explicit SeriesSketcher(Sketcher sketcher);

  Sketcher sketcher_;
};

/// Canonical dyadic window lengths over one series, answering sketch
/// queries for arbitrary-length windows in O(k) via the 1-D compound
/// construction: a window of length L with canonical length a
/// (a <= L < 2a) is covered by the two canonical windows anchored at its
/// ends, summed component-wise — the 1-D analog of Definition 4, with an
/// up-to-2x (instead of 4x) inflation band. Built as a SketchPool with
/// default options over the series as a 1 x n table.
class SeriesSketchPool {
 public:
  struct Options {
    size_t log2_min = 3;   // smallest canonical length 8
    size_t log2_max = 63;  // effectively "up to the series length"
  };

  static util::Result<SeriesSketchPool> Build(std::span<const double> series,
                                              const SketchParams& params,
                                              const Options& options);

  const SketchParams& params() const { return pool_.params(); }
  size_t series_length() const { return pool_.data_cols(); }
  std::vector<size_t> CanonicalLengths() const;

  /// True if windows of this length can be answered.
  bool Covers(size_t length) const;

  /// Compound sketch of series[start .. start + length): the two-anchor
  /// sum. Returns OutOfRange / NotFound analogous to SketchPool::Query.
  util::Result<Sketch> Query(size_t start, size_t length) const;

  /// Direct canonical sketch for an exactly-canonical window length.
  util::Result<Sketch> CanonicalSketchAt(size_t start, size_t length) const;

 private:
  explicit SeriesSketchPool(SketchPool pool);

  SketchPool pool_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_SERIES_SKETCH_H_
