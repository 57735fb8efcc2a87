// AVX2 variants of the two kernels a workload pays for: the sketch walk's
// block sums and the median estimator's rejection count. This translation
// unit is the only one compiled with -mavx2 (see src/CMakeLists.txt); it is
// added to the build only when TABSKETCH_SIMD is ON and the target is
// x86-64, and its entry points are only called after a runtime
// __builtin_cpu_supports check (kernels::Avx2Active), so no AVX2 instruction
// can leak onto an older CPU.
//
// Every kernel is bit-identical to its scalar reference — the property the
// sketch, query and k-means byte-identity guarantees rest on. The sketch
// walk rounds each product and then each sum, in the plain walk's order and
// never fused (no -mfma here, and -ffp-contract=off); the rejection count
// compares the same rounded |a - b| the plain count does.

#include "core/code_kernels_avx2.h"

#if defined(TABSKETCH_HAVE_AVX2)

#include <immintrin.h>

namespace tabsketch::core::kernels::avx2 {
namespace {

// One register pass of the sketch walk: tile a, and tile b when kPair, each
// against the block's 16 kernels in four registers of sums. Every step is a
// multiply, then an add with the running sum as the first operand, so a NaN
// sum keeps its payload as the one-kernel loop's does. The block is read
// with unaligned loads, which need no alignment from its storage.
template <bool kPair>
void SumPass(const double* const* rows_a, const double* const* rows_b,
             size_t rows, size_t cols, const double* block, double* sums_a,
             double* sums_b) {
  __m256d a0 = _mm256_setzero_pd(), a1 = a0, a2 = a0, a3 = a0;
  __m256d b0 = a0, b1 = a0, b2 = a0, b3 = a0;
  for (size_t r = 0; r < rows; ++r) {
    const double* xa = rows_a[r];
    const double* xb = kPair ? rows_b[r] : nullptr;
    for (size_t c = 0; c < cols; ++c, block += kBlockKernels) {
      const __m256d k0 = _mm256_loadu_pd(block);
      const __m256d k1 = _mm256_loadu_pd(block + 4);
      const __m256d k2 = _mm256_loadu_pd(block + 8);
      const __m256d k3 = _mm256_loadu_pd(block + 12);
      const __m256d x = _mm256_broadcast_sd(xa + c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(x, k0));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(x, k1));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(x, k2));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(x, k3));
      if constexpr (kPair) {
        const __m256d y = _mm256_broadcast_sd(xb + c);
        b0 = _mm256_add_pd(b0, _mm256_mul_pd(y, k0));
        b1 = _mm256_add_pd(b1, _mm256_mul_pd(y, k1));
        b2 = _mm256_add_pd(b2, _mm256_mul_pd(y, k2));
        b3 = _mm256_add_pd(b3, _mm256_mul_pd(y, k3));
      }
    }
  }
  _mm256_storeu_pd(sums_a, a0);
  _mm256_storeu_pd(sums_a + 4, a1);
  _mm256_storeu_pd(sums_a + 8, a2);
  _mm256_storeu_pd(sums_a + 12, a3);
  if constexpr (kPair) {
    _mm256_storeu_pd(sums_b, b0);
    _mm256_storeu_pd(sums_b + 4, b1);
    _mm256_storeu_pd(sums_b + 8, b2);
    _mm256_storeu_pd(sums_b + 12, b3);
  }
}

}  // namespace

void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums) {
  size_t t = 0;
  for (; t + 2 <= tiles; t += 2) {
    SumPass<true>(tile_rows + t * rows, tile_rows + (t + 1) * rows, rows,
                  cols, block, sums + t * kBlockKernels,
                  sums + (t + 1) * kBlockKernels);
  }
  if (t < tiles) {
    SumPass<false>(tile_rows + t * rows, nullptr, rows, cols, block,
                   sums + t * kBlockKernels, nullptr);
  }
}

size_t CountAbove(const double* a, const double* b, size_t k,
                  double threshold, bool* nan) {
  // |a - b| is the difference with its sign bit cleared, as fabs does. A NaN
  // compares false against the threshold, so an unordered self-compare
  // flags it instead.
  const __m256d sign = _mm256_set1_pd(-0.0);
  const __m256d bound = _mm256_set1_pd(threshold);
  __m256d unordered = _mm256_setzero_pd();
  size_t above = 0;
  size_t i = 0;
  for (; i + 4 <= k; i += 4) {
    const __m256d d = _mm256_andnot_pd(
        sign, _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
    above += static_cast<size_t>(__builtin_popcount(static_cast<unsigned>(
        _mm256_movemask_pd(_mm256_cmp_pd(d, bound, _CMP_GT_OQ)))));
    unordered = _mm256_or_pd(unordered, _mm256_cmp_pd(d, d, _CMP_UNORD_Q));
  }
  bool any_nan = _mm256_movemask_pd(unordered) != 0;
  for (; i < k; ++i) {
    const double d = __builtin_fabs(a[i] - b[i]);
    any_nan = any_nan || d != d;
    above += d > threshold;
  }
  *nan = any_nan;
  return above;
}

}  // namespace tabsketch::core::kernels::avx2

#endif  // TABSKETCH_HAVE_AVX2
