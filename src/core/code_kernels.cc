#include "core/code_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/logging.h"

#if defined(TABSKETCH_HAVE_AVX2)
#include "core/code_kernels_avx2.h"
#endif

namespace tabsketch::core::kernels {

namespace scalar {

void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k,
               uint16_t* out) {
  for (size_t i = 0; i < k; ++i) {
    const int d = static_cast<int>(a[i]) - static_cast<int>(b[i]);
    out[i] = static_cast<uint16_t>(d < 0 ? -d : d);
  }
}

uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k) {
  uint64_t sum = 0;
  for (size_t i = 0; i < k; ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - static_cast<int64_t>(b[i]);
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k) {
  uint64_t sum = 0;
  for (size_t i = 0; i < k; ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - static_cast<int64_t>(b[i]);
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums) {
  // When a NaN sum meets a NaN product, x86 keeps the first operand's
  // payload. The one-kernel loop, built at -O3, and the AVX2 walk add the
  // product to the sum; GCC vectorizes this loop's adds with the operands
  // swapped, so it keeps a NaN sum explicitly.
  for (size_t t = 0; t < tiles; ++t, sums += kBlockKernels) {
    double acc[kBlockKernels] = {};
    const double* kernels = block;
    for (size_t r = 0; r < rows; ++r) {
      const double* row = tile_rows[t * rows + r];
      for (size_t c = 0; c < cols; ++c, kernels += kBlockKernels) {
        const double x = row[c];
        for (size_t j = 0; j < kBlockKernels; ++j) {
          acc[j] = std::isnan(acc[j]) ? acc[j] : acc[j] + x * kernels[j];
        }
      }
    }
    std::copy_n(acc, kBlockKernels, sums);
  }
}

std::optional<size_t> CountAbove(const double* a, const double* b, size_t k,
                                 double threshold) {
  size_t above = 0;
  for (size_t i = 0; i < k; ++i) {
    const double d = std::fabs(a[i] - b[i]);
    if (std::isnan(d)) return std::nullopt;
    above += d > threshold;
  }
  return above;
}

}  // namespace scalar

bool Avx2CompiledIn() {
#if defined(TABSKETCH_HAVE_AVX2)
  return true;
#else
  return false;
#endif
}

bool Avx2Active() {
#if defined(TABSKETCH_HAVE_AVX2)
  static const bool active = __builtin_cpu_supports("avx2") > 0;
  return active;
#else
  return false;
#endif
}

void AbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
             std::vector<uint16_t>* diff) {
  diff->resize(k);
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    avx2::AbsDiff8(a, b, k, diff->data());
    return;
  }
#endif
  scalar::AbsDiff8(a, b, k, diff->data());
}

void AbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
             std::vector<uint16_t>* diff) {
  diff->resize(k);
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    avx2::AbsDiff16(a, b, k, diff->data());
    return;
  }
#endif
  scalar::AbsDiff16(a, b, k, diff->data());
}

uint64_t SumSquaredDiff(const uint8_t* a, const uint8_t* b, size_t k) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) return avx2::SumSquaredDiff8(a, b, k);
#endif
  return scalar::SumSquaredDiff8(a, b, k);
}

uint64_t SumSquaredDiff(const uint16_t* a, const uint16_t* b, size_t k) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) return avx2::SumSquaredDiff16(a, b, k);
#endif
  return scalar::SumSquaredDiff16(a, b, k);
}

void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums) {
#if defined(TABSKETCH_HAVE_AVX2)
  static_assert(kBlockKernels == avx2::kBlockKernels);
  if (Avx2Active()) {
    avx2::SumBlock(tile_rows, tiles, rows, cols, block, sums);
    return;
  }
#endif
  scalar::SumBlock(tile_rows, tiles, rows, cols, block, sums);
}

std::optional<size_t> CountAbove(const double* a, const double* b, size_t k,
                                 double threshold) {
#if defined(TABSKETCH_HAVE_AVX2)
  if (Avx2Active()) {
    bool nan = false;
    const size_t above = avx2::CountAbove(a, b, k, threshold, &nan);
    if (nan) return std::nullopt;
    return above;
  }
#endif
  return scalar::CountAbove(a, b, k, threshold);
}

namespace {

/// The value holding the r0-th and r1-th order statistics (0-based,
/// r0 <= r1, both < total count) of a 256-bucket count histogram, averaged.
/// Selection over exact integer counts: deterministic however the counts
/// were produced.
double SelectPairFromHistogram(const uint32_t* hist, size_t r0, size_t r1) {
  size_t cumulative = 0;
  size_t v0 = 256;  // sentinel: "not found yet"
  for (size_t value = 0; value < 256; ++value) {
    cumulative += hist[value];
    if (v0 == 256 && cumulative > r0) v0 = value;
    if (cumulative > r1) {
      return 0.5 * static_cast<double>(v0 + value);
    }
  }
  TABSKETCH_CHECK(false);  // ranks were < total count by construction
  std::abort();
}

}  // namespace

double MedianOfDiffs8(const uint16_t* diff, size_t k, CodeScratch* scratch) {
  TABSKETCH_CHECK(k > 0);
  scratch->hist_hi.assign(256, 0);
  uint32_t* hist = scratch->hist_hi.data();
  for (size_t i = 0; i < k; ++i) ++hist[diff[i]];
  return SelectPairFromHistogram(hist, (k - 1) / 2, k / 2);
}

double MedianOfDiffs16(const uint16_t* diff, size_t k, CodeScratch* scratch) {
  TABSKETCH_CHECK(k > 0);
  const size_t r0 = (k - 1) / 2;
  const size_t r1 = k / 2;

  // Pass 1: histogram of high bytes locates the bucket(s) holding the two
  // middle order statistics.
  scratch->hist_hi.assign(256, 0);
  uint32_t* hi = scratch->hist_hi.data();
  for (size_t i = 0; i < k; ++i) ++hi[diff[i] >> 8];
  size_t cumulative = 0;
  size_t bucket0 = 256, bucket1 = 256;
  size_t rank0 = 0, rank1 = 0;  // ranks within their buckets
  for (size_t bucket = 0; bucket < 256; ++bucket) {
    const size_t next = cumulative + hi[bucket];
    if (bucket0 == 256 && next > r0) {
      bucket0 = bucket;
      rank0 = r0 - cumulative;
    }
    if (next > r1) {
      bucket1 = bucket;
      rank1 = r1 - cumulative;
      break;
    }
    cumulative = next;
  }
  TABSKETCH_CHECK(bucket0 < 256 && bucket1 < 256);

  // Pass 2: low-byte histograms for just the bucket(s) that matter.
  scratch->hist_lo0.assign(256, 0);
  uint32_t* lo0 = scratch->hist_lo0.data();
  uint32_t* lo1 = lo0;
  if (bucket1 != bucket0) {
    scratch->hist_lo1.assign(256, 0);
    lo1 = scratch->hist_lo1.data();
  }
  for (size_t i = 0; i < k; ++i) {
    const size_t high = diff[i] >> 8;
    if (high == bucket0) {
      ++lo0[diff[i] & 0xff];
    } else if (high == bucket1) {
      ++lo1[diff[i] & 0xff];
    }
  }
  auto low_select = [](const uint32_t* lo, size_t rank) -> size_t {
    size_t seen = 0;
    for (size_t value = 0; value < 256; ++value) {
      seen += lo[value];
      if (seen > rank) return value;
    }
    TABSKETCH_CHECK(false);
    std::abort();
  };
  const size_t v0 = (bucket0 << 8) | low_select(lo0, rank0);
  const size_t v1 = (bucket1 << 8) | low_select(lo1, rank1);
  return 0.5 * static_cast<double>(v0 + v1);
}

double MedianAbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
                     CodeScratch* scratch) {
  AbsDiff(a, b, k, &scratch->diff);
  return MedianOfDiffs8(scratch->diff.data(), k, scratch);
}

double MedianAbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
                     CodeScratch* scratch) {
  AbsDiff(a, b, k, &scratch->diff);
  return MedianOfDiffs16(scratch->diff.data(), k, scratch);
}

}  // namespace tabsketch::core::kernels
