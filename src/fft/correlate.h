#ifndef TABSKETCH_FFT_CORRELATE_H_
#define TABSKETCH_FFT_CORRELATE_H_

#include <complex>
#include <cstddef>
#include <utility>
#include <vector>

#include "table/matrix.h"

namespace tabsketch::fft {

/// Valid-mode 2-D cross-correlation computed directly in O(N * M):
///   out(i, j) = sum_{u < kr, v < kc} data(i+u, j+v) * kernel(u, v)
/// for all positions where the kernel fits inside the data. Output size is
/// (data.rows - kernel.rows + 1) x (data.cols - kernel.cols + 1).
///
/// This is the O(k N M) baseline of paper Section 3.3; the FFT plan below is
/// the O(k N log M) improvement of Theorem 3. Kernel must fit in data.
table::Matrix CrossCorrelateNaive(const table::Matrix& data,
                                  const table::Matrix& kernel);

/// Reusable FFT plan for cross-correlating one data table against many
/// kernels of varying sizes (the k random stable matrices of a sketch).
///
/// The forward transform of the zero-padded data is computed once at
/// construction (and stored in transposed layout, which is what the engine
/// multiplies against); each Correlate() call then costs one forward
/// transform of the kernel, a pointwise multiply, and one inverse transform.
/// CorrelatePair() halves that again: two real kernels ride in the real and
/// imaginary halves of ONE complex grid, their spectra are separated by
/// conjugate symmetry, and both correlations come back through one inverse
/// transform — two kernels per forward/inverse pair.
///
/// The engine prunes the row passes: the forward transform only runs over
/// the kernel's nonzero rows and the inverse only over the valid output
/// rows, which together cost one full row pass instead of two. Column passes
/// run as cache-blocked transposes + contiguous transforms.
///
/// Thread safety: Correlate()/CorrelatePair() are const and use thread-local
/// workspaces (allocation-free after each thread's first call at a given
/// padded size), so any number of threads may correlate different kernels
/// against one shared plan concurrently. This is what lets a whole dyadic
/// pool build (all canonical sizes, all k kernels) share a single forward
/// FFT of the data. Results depend only on the kernel arguments, never on
/// which thread runs the call, keeping pool builds bit-identical across
/// thread counts.
///
/// Wrap-around correctness: positions are only read from the valid region
/// i <= rows-kr, j <= cols-kc, where the circular convolution at padded size
/// >= data size never wraps, so the result equals the naive computation up to
/// floating-point rounding.
class CorrelationPlan {
 public:
  /// Builds the plan; transforms `data` padded to the next powers of two.
  explicit CorrelationPlan(const table::Matrix& data);

  CorrelationPlan(const CorrelationPlan&) = delete;
  CorrelationPlan& operator=(const CorrelationPlan&) = delete;
  CorrelationPlan(CorrelationPlan&&) = default;
  CorrelationPlan& operator=(CorrelationPlan&&) = default;

  size_t data_rows() const { return data_rows_; }
  size_t data_cols() const { return data_cols_; }

  /// Valid-mode cross-correlation of the planned data with `kernel`.
  /// `kernel` must fit inside the data. Safe to call concurrently.
  table::Matrix Correlate(const table::Matrix& kernel) const;

  /// Valid-mode cross-correlations of the planned data with `kernel_a` and
  /// `kernel_b`, computed with ONE forward and ONE inverse 2-D transform via
  /// real-pair packing (a in the real half, b in the imaginary half; spectra
  /// split by conjugate symmetry). Equivalent to
  /// {Correlate(kernel_a), Correlate(kernel_b)} up to floating-point
  /// rounding, at about half the FFT cost. The kernels may have different
  /// shapes; each output has its own valid size. Safe to call concurrently.
  std::pair<table::Matrix, table::Matrix> CorrelatePair(
      const table::Matrix& kernel_a, const table::Matrix& kernel_b) const;

  /// Process-wide count of plans constructed so far (moves excluded). Test
  /// hook: a pool build over one table must raise this by exactly one, i.e.
  /// the data's forward FFT is computed once and shared.
  static size_t plans_constructed();

 private:
  size_t data_rows_;
  size_t data_cols_;
  size_t padded_rows_;
  size_t padded_cols_;
  /// Forward spectrum of the zero-padded data in TRANSPOSED (padded_cols x
  /// padded_rows) row-major layout — the layout the pointwise multiply and
  /// the inverse column pass consume, saving two transposes per Correlate.
  std::vector<std::complex<double>> data_freq_t_;
};

}  // namespace tabsketch::fft

#endif  // TABSKETCH_FFT_CORRELATE_H_
