#ifndef TABSKETCH_CORE_CODE_KERNELS_H_
#define TABSKETCH_CORE_CODE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace tabsketch::core::kernels {

/// Reused buffers for the code-distance kernels. One per thread: the median
/// kernels fill `diff` with per-component |a - b| and select by counting
/// into the small histograms, so a warm scratch makes every call
/// allocation-free.
struct CodeScratch {
  std::vector<uint16_t> diff;
  std::vector<uint32_t> hist_hi;
  std::vector<uint32_t> hist_lo0;
  std::vector<uint32_t> hist_lo1;
};

/// median(|a - b|) over k codes, selected by exact counting (one 256-bucket
/// pass for 8-bit codes, a two-level high/low-byte radix for 16-bit). Even k
/// averages the two middle order statistics, so the result is always an
/// exact x.0 or x.5 — no float accumulation, hence the same on every
/// platform. k must be > 0.
double MedianAbsDiff(const uint8_t* a, const uint8_t* b, size_t k,
                     CodeScratch* scratch);
double MedianAbsDiff(const uint16_t* a, const uint16_t* b, size_t k,
                     CodeScratch* scratch);

/// sum_i (a_i - b_i)^2 with exact 64-bit integer accumulation (no overflow
/// for any k below 2^32 even at the 16-bit extremes).
uint64_t SumSquaredDiff(const uint8_t* a, const uint8_t* b, size_t k);
uint64_t SumSquaredDiff(const uint16_t* a, const uint16_t* b, size_t k);

/// Kernels per block of SketchOf's dense walk (core/sketcher.h). A block
/// holds 16 kernels interleaved element by element: kernel j's value at
/// row-major element e is block[e * kBlockKernels + j].
inline constexpr size_t kBlockKernels = 16;

/// The dense walk over one block: sums[t * kBlockKernels + j] is the dot
/// product of tile t with kernel j, for `tiles` tiles of rows x cols whose
/// row r starts at tile_rows[t * rows + r]. Each sum starts at +0.0 and adds
/// x * kernel for every element x in row-major order, rounding the product
/// and then the sum, as a one-kernel dot product does; a NaN sum keeps its
/// payload. The AVX2 walk reads the block once per two tiles, and is
/// bit-identical to the plain one.
void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums);

/// How many |a_i - b_i| exceed `threshold`, over k components, or nullopt
/// when some difference is NaN. The median estimator's rejection count
/// (DistanceEstimator::ProvablyGreater).
std::optional<size_t> CountAbove(const double* a, const double* b, size_t k,
                                 double threshold);

/// True when the AVX2 kernels are compiled in (TABSKETCH_SIMD=ON on an
/// x86-64 toolchain) AND this CPU supports AVX2 — i.e. SumBlock and
/// CountAbove take the vector path.
bool Avx2Active();

/// Scalar references for the two dispatched kernels, always available: the
/// plain loops a TABSKETCH_SIMD=OFF build and a CPU without AVX2 run. The
/// dispatched entry points above must produce bit-identical results; the
/// sketch and count tests assert exactly that on whatever hardware they run.
namespace scalar {
void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums);
std::optional<size_t> CountAbove(const double* a, const double* b, size_t k,
                                 double threshold);
}  // namespace scalar

}  // namespace tabsketch::core::kernels

#endif  // TABSKETCH_CORE_CODE_KERNELS_H_
