#include "core/sparse_kernel.h"

#include <algorithm>
#include <cmath>

#include "core/stable_matrix.h"
#include "rng/splitmix64.h"
#include "rng/stable.h"
#include "util/logging.h"

namespace tabsketch::core {
namespace {

/// Smallest power of two >= n, matching the padding CorrelationPlan applies
/// to the data before its forward transform (computed locally so the cost
/// model stays a pure size function).
size_t NextPowerOfTwoAtLeast(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

table::Matrix SparseKernel::Dense() const {
  table::Matrix out(rows, cols);
  for (size_t e = 0; e < values.size(); ++e) {
    out.At(entry_rows[e], entry_cols[e]) = values[e];
  }
  return out;
}

SparseKernel SparseStableKernel(const SketchParams& params, size_t index,
                                size_t rows, size_t cols) {
  TABSKETCH_CHECK(params.Validate().ok()) << params.Validate();
  TABSKETCH_CHECK(index < params.k)
      << "kernel index " << index << " out of range k=" << params.k;
  TABSKETCH_CHECK(rows <= UINT32_MAX && cols <= UINT32_MAX)
      << "kernel shape exceeds 32-bit coordinates";
  // The same counter walk as StableRandomMatrix: for gated-out entries the
  // sparse sampler only pays the (cheap) gate mix, never a stable draw, so
  // extraction costs O(rows * cols) mixes + O(nnz) stable samples.
  const uint64_t matrix_seed =
      StableMatrixSeed(params.seed, index, rows, cols);
  SparseKernel kernel;
  kernel.rows = rows;
  kernel.cols = cols;
  uint64_t counter = 0;
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double value = rng::SampleSparseStableAt(
          params.p, params.sparsity, rng::MixSeeds(matrix_seed, counter++));
      if (value != 0.0) {
        kernel.entry_rows.push_back(static_cast<uint32_t>(r));
        kernel.entry_cols.push_back(static_cast<uint32_t>(c));
        kernel.values.push_back(value);
      }
    }
  }
  return kernel;
}

std::vector<SparseKernel> SparseStableKernels(const SketchParams& params,
                                              size_t rows, size_t cols) {
  std::vector<SparseKernel> out;
  out.reserve(params.k);
  for (size_t i = 0; i < params.k; ++i) {
    out.push_back(SparseStableKernel(params, i, rows, cols));
  }
  return out;
}

// Aligned to a cache line so its hot loop sits at the same offset from a
// 64-byte boundary in every binary: with identical object code, the sparse
// pool build ran up to ~45% slower when the link put that loop across a line.
[[gnu::aligned(64)]] table::Matrix CrossCorrelateSparse(
    const table::Matrix& data, const SparseKernel& kernel) {
  TABSKETCH_CHECK(kernel.rows >= 1 && kernel.cols >= 1 &&
                  kernel.rows <= data.rows() && kernel.cols <= data.cols())
      << "kernel " << kernel.rows << "x" << kernel.cols
      << " does not fit table " << data.rows() << "x" << data.cols();
  const size_t out_rows = data.rows() - kernel.rows + 1;
  const size_t out_cols = data.cols() - kernel.cols + 1;
  table::Matrix out(out_rows, out_cols);
  // Row-blocked accumulation: for each output row, stream every nonzero's
  // shifted data row across the whole output row (contiguous, vectorizable).
  // Each output element still receives its contributions in nonzero-storage
  // order, exactly like a per-position walk, keeping the result independent
  // of the blocking.
  for (size_t r = 0; r < out_rows; ++r) {
    double* out_row = out.Row(r).data();
    for (size_t e = 0; e < kernel.nnz(); ++e) {
      const double value = kernel.values[e];
      const double* data_row =
          data.Row(r + kernel.entry_rows[e]).data() + kernel.entry_cols[e];
      for (size_t c = 0; c < out_cols; ++c) {
        out_row[c] += value * data_row[c];
      }
    }
  }
  return out;
}

bool PreferSparsePath(size_t nnz, size_t positions, size_t data_rows,
                      size_t data_cols) {
  // Effective-FMA cost of one kernel on the shared FFT plan, calibrated
  // against bench/micro_sparse on 1024^2 tables: one kernel forward + one
  // inverse pass over the padded grid, ~ 2 * P * log2(P) fused
  // multiply-add-equivalents (real-pair packing already halves the raw
  // transform count; the blocked passes run below peak scalar throughput,
  // which the factor absorbs).
  constexpr double kFftKernelCostFactor = 2.0;
  const double padded =
      static_cast<double>(NextPowerOfTwoAtLeast(data_rows)) *
      static_cast<double>(NextPowerOfTwoAtLeast(data_cols));
  const double fft_cost =
      kFftKernelCostFactor * padded * std::log2(std::max(padded, 2.0));
  const double sparse_cost =
      static_cast<double>(nnz) * static_cast<double>(positions);
  return sparse_cost < fft_cost;
}

}  // namespace tabsketch::core
