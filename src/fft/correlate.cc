#include "fft/correlate.h"

#include <algorithm>
#include <atomic>
#include <span>

#include "fft/complex_fft.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/trace.h"

namespace tabsketch::fft {
namespace {

std::atomic<size_t> plan_constructions{0};

// 32x32 complex<double> tiles are 16 KB for the source plus 16 KB for the
// destination — comfortably inside L1/L2 — while amortizing the strided side
// of the copy over a full cache line.
constexpr size_t kTransposeBlock = 32;

/// Cache-blocked out-of-place transpose: `dst` (cols x rows, row-major)
/// receives the transpose of `src` (rows x cols, row-major). Tiled so both
/// the source reads and destination writes stay within a few cache lines per
/// tile; this is what turns the 2-D column pass into contiguous row
/// transforms. `src` and `dst` must not alias.
void TransposeInto(const std::complex<double>* src, size_t rows, size_t cols,
                   std::complex<double>* dst) {
  for (size_t rb = 0; rb < rows; rb += kTransposeBlock) {
    const size_t rend = std::min(rows, rb + kTransposeBlock);
    for (size_t cb = 0; cb < cols; cb += kTransposeBlock) {
      const size_t cend = std::min(cols, cb + kTransposeBlock);
      for (size_t r = rb; r < rend; ++r) {
        const std::complex<double>* src_row = src + r * cols;
        for (size_t c = cb; c < cend; ++c) {
          dst[c * rows + r] = src_row[c];
        }
      }
    }
  }
}

/// Per-thread scratch for the correlation engine. Reused across calls, so a
/// pool build's steady state allocates nothing per correlation: `time` holds
/// the R x C spatial grid, `freq_t` the C x R transposed spectrum.
struct CorrelateWorkspace {
  std::vector<std::complex<double>> time;
  std::vector<std::complex<double>> freq_t;
};

CorrelateWorkspace& ThreadWorkspace() {
  thread_local CorrelateWorkspace workspace;
  return workspace;
}

/// Forward 2-D transform of `time` (R x C, rows >= active_rows all zero) into
/// the transposed spectrum layout `freq_t` (C x R). The row pass is pruned to
/// the nonzero rows; zero rows transform to zero, so skipping them is exact.
void ForwardIntoTransposed(size_t padded_rows, size_t padded_cols,
                           size_t active_rows,
                           std::vector<std::complex<double>>* time,
                           std::vector<std::complex<double>>* freq_t) {
  for (size_t r = 0; r < active_rows; ++r) {
    Transform(std::span(time->data() + r * padded_cols, padded_cols),
              /*inverse=*/false);
  }
  freq_t->resize(padded_rows * padded_cols);
  TransposeInto(time->data(), padded_rows, padded_cols, freq_t->data());
  for (size_t c = 0; c < padded_cols; ++c) {
    Transform(std::span(freq_t->data() + c * padded_rows, padded_rows),
              /*inverse=*/false);
  }
}

/// Inverse of ForwardIntoTransposed: back-transforms the transposed spectrum
/// in `freq_t` (C x R) into `time` (R x C), running the final row pass only
/// over the `needed_rows` rows the caller will read. The two prunings
/// together (kernel rows forward, valid rows inverse) cost about one full
/// row pass per correlation instead of two.
void InverseFromTransposed(size_t padded_rows, size_t padded_cols,
                           size_t needed_rows,
                           std::vector<std::complex<double>>* freq_t,
                           std::vector<std::complex<double>>* time) {
  for (size_t c = 0; c < padded_cols; ++c) {
    Transform(std::span(freq_t->data() + c * padded_rows, padded_rows),
              /*inverse=*/true);
  }
  time->resize(padded_rows * padded_cols);
  TransposeInto(freq_t->data(), padded_cols, padded_rows, time->data());
  for (size_t r = 0; r < needed_rows; ++r) {
    Transform(std::span(time->data() + r * padded_cols, padded_cols),
              /*inverse=*/true);
  }
}

/// Zeroes the spatial grid and copies `kernel` into the real (imag == false)
/// or imaginary (imag == true) components of its top-left corner.
void PackKernel(const table::Matrix& kernel, size_t padded_cols, bool imag,
                std::vector<std::complex<double>>* time) {
  for (size_t r = 0; r < kernel.rows(); ++r) {
    auto row = kernel.Row(r);
    std::complex<double>* out = time->data() + r * padded_cols;
    if (imag) {
      for (size_t c = 0; c < kernel.cols(); ++c) {
        out[c] = {out[c].real(), row[c]};
      }
    } else {
      for (size_t c = 0; c < kernel.cols(); ++c) {
        out[c] = {row[c], out[c].imag()};
      }
    }
  }
}

}  // namespace

size_t CorrelationPlan::plans_constructed() {
  return plan_constructions.load(std::memory_order_relaxed);
}

table::Matrix CrossCorrelateNaive(const table::Matrix& data,
                                  const table::Matrix& kernel) {
  TABSKETCH_CHECK(kernel.rows() <= data.rows() &&
                  kernel.cols() <= data.cols())
      << "kernel " << kernel.rows() << "x" << kernel.cols()
      << " exceeds data " << data.rows() << "x" << data.cols();
  const size_t out_rows = data.rows() - kernel.rows() + 1;
  const size_t out_cols = data.cols() - kernel.cols() + 1;
  table::Matrix out(out_rows, out_cols);
  for (size_t i = 0; i < out_rows; ++i) {
    for (size_t j = 0; j < out_cols; ++j) {
      double acc = 0.0;
      for (size_t u = 0; u < kernel.rows(); ++u) {
        const double* data_row = data.Row(i + u).data() + j;
        const double* kernel_row = kernel.Row(u).data();
        for (size_t v = 0; v < kernel.cols(); ++v) {
          acc += data_row[v] * kernel_row[v];
        }
      }
      out(i, j) = acc;
    }
  }
  return out;
}

CorrelationPlan::CorrelationPlan(const table::Matrix& data)
    : data_rows_(data.rows()),
      data_cols_(data.cols()),
      padded_rows_(NextPowerOfTwo(data.rows())),
      padded_cols_(NextPowerOfTwo(data.cols())) {
  TABSKETCH_CHECK(!data.empty()) << "cannot plan over an empty table";
  plan_constructions.fetch_add(1, std::memory_order_relaxed);
  TABSKETCH_METRIC_COUNT("fft.plan.constructions");
  TABSKETCH_TRACE_SPAN("fft.plan");
  std::vector<std::complex<double>> time(padded_rows_ * padded_cols_);
  for (size_t r = 0; r < data_rows_; ++r) {
    auto row = data.Row(r);
    std::complex<double>* out = time.data() + r * padded_cols_;
    for (size_t c = 0; c < data_cols_; ++c) out[c] = row[c];
  }
  ForwardIntoTransposed(padded_rows_, padded_cols_, data_rows_, &time,
                        &data_freq_t_);
}

table::Matrix CorrelationPlan::Correlate(const table::Matrix& kernel) const {
  TABSKETCH_CHECK(kernel.rows() <= data_rows_ && kernel.cols() <= data_cols_)
      << "kernel " << kernel.rows() << "x" << kernel.cols()
      << " exceeds data " << data_rows_ << "x" << data_cols_;
  TABSKETCH_METRIC_COUNT("fft.correlate.calls");
  TABSKETCH_TRACE_SPAN("fft.correlate");

  CorrelateWorkspace& workspace = ThreadWorkspace();
  workspace.time.assign(padded_rows_ * padded_cols_, {0.0, 0.0});
  PackKernel(kernel, padded_cols_, /*imag=*/false, &workspace.time);
  ForwardIntoTransposed(padded_rows_, padded_cols_, kernel.rows(),
                        &workspace.time, &workspace.freq_t);

  // Cross-correlation theorem: R = IFFT( FFT(data) .* conj(FFT(kernel)) ),
  // elementwise in the shared transposed layout.
  std::complex<double>* freq = workspace.freq_t.data();
  const std::complex<double>* data_freq = data_freq_t_.data();
  const size_t total = padded_rows_ * padded_cols_;
  for (size_t i = 0; i < total; ++i) {
    const double dr = data_freq[i].real();
    const double di = data_freq[i].imag();
    const double kr = freq[i].real();
    const double ki = freq[i].imag();
    // d * conj(f)
    freq[i] = {dr * kr + di * ki, di * kr - dr * ki};
  }

  const size_t out_rows = data_rows_ - kernel.rows() + 1;
  const size_t out_cols = data_cols_ - kernel.cols() + 1;
  InverseFromTransposed(padded_rows_, padded_cols_, out_rows,
                        &workspace.freq_t, &workspace.time);

  table::Matrix out(out_rows, out_cols);
  for (size_t i = 0; i < out_rows; ++i) {
    const std::complex<double>* row = workspace.time.data() + i * padded_cols_;
    for (size_t j = 0; j < out_cols; ++j) {
      out(i, j) = row[j].real();
    }
  }
  return out;
}

std::pair<table::Matrix, table::Matrix> CorrelationPlan::CorrelatePair(
    const table::Matrix& kernel_a, const table::Matrix& kernel_b) const {
  TABSKETCH_CHECK(kernel_a.rows() <= data_rows_ &&
                  kernel_a.cols() <= data_cols_ &&
                  kernel_b.rows() <= data_rows_ &&
                  kernel_b.cols() <= data_cols_)
      << "kernel pair " << kernel_a.rows() << "x" << kernel_a.cols() << " / "
      << kernel_b.rows() << "x" << kernel_b.cols() << " exceeds data "
      << data_rows_ << "x" << data_cols_;
  TABSKETCH_METRIC_COUNT("fft.correlate_pair.calls");
  TABSKETCH_TRACE_SPAN("fft.correlate");

  CorrelateWorkspace& workspace = ThreadWorkspace();
  workspace.time.assign(padded_rows_ * padded_cols_, {0.0, 0.0});
  PackKernel(kernel_a, padded_cols_, /*imag=*/false, &workspace.time);
  PackKernel(kernel_b, padded_cols_, /*imag=*/true, &workspace.time);
  const size_t packed_rows = std::max(kernel_a.rows(), kernel_b.rows());
  ForwardIntoTransposed(padded_rows_, padded_cols_, packed_rows,
                        &workspace.time, &workspace.freq_t);

  // With x = a + i*b packed into one grid, conjugate symmetry of the real
  // transforms recovers both spectra from F = FFT(x):
  //   A(k) = (F(k) + conj(F(-k))) / 2
  //   B(k) = (F(k) - conj(F(-k))) / (2i)
  // and the two correlations travel back through ONE inverse transform as
  //   Z(k) = D(k) * (conj(A(k)) + i * conj(B(k)))
  // whose inverse FFT is y_a + i*y_b (both y are real, so the real half is
  // a's correlation and the imaginary half is b's). Indices are paired once:
  // each iteration handles (u, v) and its negated partner (-u, -v).
  std::complex<double>* freq = workspace.freq_t.data();
  const std::complex<double>* data_freq = data_freq_t_.data();
  const size_t grid_rows = padded_cols_;  // transposed layout
  const size_t grid_cols = padded_rows_;
  for (size_t u = 0; u < grid_rows; ++u) {
    const size_t u_bar = (grid_rows - u) & (grid_rows - 1);
    if (u > u_bar) continue;  // handled as the partner of an earlier row
    const bool self_row = (u == u_bar);
    for (size_t v = 0; v < grid_cols; ++v) {
      const size_t v_bar = (grid_cols - v) & (grid_cols - 1);
      if (self_row && v > v_bar) continue;
      const size_t k = u * grid_cols + v;
      const size_t k_bar = u_bar * grid_cols + v_bar;
      const double fr = freq[k].real(), fi = freq[k].imag();
      const double gr = freq[k_bar].real(), gi = freq[k_bar].imag();
      // A(k) and B(k) via the split above (G = F(-k)).
      const double ar = 0.5 * (fr + gr), ai = 0.5 * (fi - gi);
      const double br = 0.5 * (fi + gi), bi = 0.5 * (gr - fr);
      // M(k) = conj(A) + i*conj(B) = (Ar + Bi) + i(Br - Ai).
      const double mr = ar + bi, mi = br - ai;
      const double dr = data_freq[k].real(), di = data_freq[k].imag();
      freq[k] = {dr * mr - di * mi, dr * mi + di * mr};
      if (!self_row || v != v_bar) {
        // Partner frequency: A(-k) = conj(A(k)) and B(-k) = conj(B(k)), so
        // M(-k) = A(k) + i*B(k) = (Ar - Bi) + i(Ai + Br).
        const double mr2 = ar - bi, mi2 = ai + br;
        const double dr2 = data_freq[k_bar].real();
        const double di2 = data_freq[k_bar].imag();
        freq[k_bar] = {dr2 * mr2 - di2 * mi2, dr2 * mi2 + di2 * mr2};
      }
    }
  }

  const size_t out_rows_a = data_rows_ - kernel_a.rows() + 1;
  const size_t out_cols_a = data_cols_ - kernel_a.cols() + 1;
  const size_t out_rows_b = data_rows_ - kernel_b.rows() + 1;
  const size_t out_cols_b = data_cols_ - kernel_b.cols() + 1;
  InverseFromTransposed(padded_rows_, padded_cols_,
                        std::max(out_rows_a, out_rows_b), &workspace.freq_t,
                        &workspace.time);

  table::Matrix out_a(out_rows_a, out_cols_a);
  for (size_t i = 0; i < out_rows_a; ++i) {
    const std::complex<double>* row = workspace.time.data() + i * padded_cols_;
    for (size_t j = 0; j < out_cols_a; ++j) out_a(i, j) = row[j].real();
  }
  table::Matrix out_b(out_rows_b, out_cols_b);
  for (size_t i = 0; i < out_rows_b; ++i) {
    const std::complex<double>* row = workspace.time.data() + i * padded_cols_;
    for (size_t j = 0; j < out_cols_b; ++j) out_b(i, j) = row[j].imag();
  }
  return {std::move(out_a), std::move(out_b)};
}

}  // namespace tabsketch::fft
