#ifndef TABSKETCH_CORE_CODE_KERNELS_AVX2_H_
#define TABSKETCH_CORE_CODE_KERNELS_AVX2_H_

// Internal declarations for the AVX2 kernel translation unit
// (code_kernels_avx2.cc, compiled with -mavx2). Only code_kernels.cc may
// include this header, and only under TABSKETCH_HAVE_AVX2 — the symbols do
// not exist in a TABSKETCH_SIMD=OFF build. The entry points take raw
// pointers only: an inline library function instantiated in that TU would
// carry AVX2 instructions into whichever copy the linker keeps.

#include <cstddef>
#include <cstdint>

namespace tabsketch::core::kernels::avx2 {

void AbsDiff8(const uint8_t* a, const uint8_t* b, size_t k, uint16_t* out);
void AbsDiff16(const uint16_t* a, const uint16_t* b, size_t k, uint16_t* out);
uint64_t SumSquaredDiff8(const uint8_t* a, const uint8_t* b, size_t k);
uint64_t SumSquaredDiff16(const uint16_t* a, const uint16_t* b, size_t k);

/// The sketch walk's block width: four registers of four doubles.
inline constexpr size_t kBlockKernels = 16;
void SumBlock(const double* const* tile_rows, size_t tiles, size_t rows,
              size_t cols, const double* block, double* sums);
/// Sets *nan when some difference is NaN; the count is then meaningless.
size_t CountAbove(const double* a, const double* b, size_t k,
                  double threshold, bool* nan);

}  // namespace tabsketch::core::kernels::avx2

#endif  // TABSKETCH_CORE_CODE_KERNELS_AVX2_H_
