#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/code_kernels.h"
#include "rng/xoshiro256.h"

namespace tabsketch::core::kernels {
namespace {

// Lengths that cross every vector width a compiler may pick: sub-vector
// tails, exact widths, one-past widths, and large k.
const size_t kLengths[] = {1, 2, 3, 7, 8, 15, 16, 17, 31, 32,
                           33, 64, 255, 256, 257, 1000, 4096};

std::vector<uint8_t> RandomCodes8(rng::Xoshiro256* gen, size_t k,
                                  bool extremes) {
  std::vector<uint8_t> codes(k);
  for (auto& c : codes) {
    c = static_cast<uint8_t>(gen->NextBounded(256));
  }
  if (extremes && k >= 2) {
    codes[0] = 0;
    codes[k - 1] = 255;
  }
  return codes;
}

std::vector<uint16_t> RandomCodes16(rng::Xoshiro256* gen, size_t k,
                                    bool extremes) {
  std::vector<uint16_t> codes(k);
  for (auto& c : codes) {
    c = static_cast<uint16_t>(gen->NextBounded(65536));
  }
  if (extremes && k >= 2) {
    codes[0] = 0;
    codes[k - 1] = 65535;
  }
  return codes;
}

/// |a_i - b_i| for every component, by the obvious loop.
template <typename Code>
std::vector<uint16_t> AbsDiffs(const std::vector<Code>& a,
                               const std::vector<Code>& b) {
  std::vector<uint16_t> diffs(a.size());
  for (size_t i = 0; i < a.size(); ++i) {
    diffs[i] = static_cast<uint16_t>(a[i] > b[i] ? a[i] - b[i] : b[i] - a[i]);
  }
  return diffs;
}

/// Reference median via sorting: even k averages the two middle order
/// statistics, matching the documented contract of MedianAbsDiff.
double SortMedian(std::vector<uint16_t> diffs) {
  std::sort(diffs.begin(), diffs.end());
  const size_t k = diffs.size();
  if (k % 2 == 1) return static_cast<double>(diffs[k / 2]);
  return 0.5 * (static_cast<double>(diffs[k / 2 - 1]) +
                static_cast<double>(diffs[k / 2]));
}

/// sum (a_i - b_i)^2 in u64, one component at a time.
template <typename Code>
uint64_t NaiveSumSquares(const std::vector<Code>& a,
                         const std::vector<Code>& b) {
  uint64_t sum = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    const int64_t d = static_cast<int64_t>(a[i]) - b[i];
    sum += static_cast<uint64_t>(d * d);
  }
  return sum;
}

TEST(CodeKernelsTest, SumSquaredDiff8MatchesNaive) {
  rng::Xoshiro256 gen(303);
  for (size_t k : kLengths) {
    const auto a = RandomCodes8(&gen, k, /*extremes=*/true);
    const auto b = RandomCodes8(&gen, k, /*extremes=*/true);
    EXPECT_EQ(SumSquaredDiff(a.data(), b.data(), k), NaiveSumSquares(a, b))
        << "k=" << k;
  }
  const size_t k = 4096;
  const std::vector<uint8_t> full(k, 255), zero(k, 0);
  EXPECT_EQ(SumSquaredDiff(full.data(), zero.data(), k),
            uint64_t{255} * 255 * k);
}

TEST(CodeKernelsTest, SumSquaredDiff16MatchesNaive) {
  rng::Xoshiro256 gen(404);
  for (size_t k : kLengths) {
    const auto a = RandomCodes16(&gen, k, /*extremes=*/true);
    const auto b = RandomCodes16(&gen, k, /*extremes=*/true);
    EXPECT_EQ(SumSquaredDiff(a.data(), b.data(), k), NaiveSumSquares(a, b))
        << "k=" << k;
  }
}

TEST(CodeKernelsTest, SumSquaredDiff16MaxMagnitudeDoesNotOverflow) {
  // 65535^2 * k at k = 4096 exceeds 2^44; any i32 intermediate would wrap.
  const size_t k = 4096;
  std::vector<uint16_t> a(k, 65535), b(k, 0);
  const uint64_t expected = uint64_t{65535} * 65535 * k;
  EXPECT_EQ(SumSquaredDiff(a.data(), b.data(), k), expected);
}

TEST(CodeKernelsTest, MedianOfDiffs8MatchesSortMedian) {
  // MedianAbsDiff's 256-bucket select over the 8-bit differences.
  rng::Xoshiro256 gen(505);
  CodeScratch scratch;
  for (size_t k : kLengths) {
    const auto a = RandomCodes8(&gen, k, /*extremes=*/true);
    const auto b = RandomCodes8(&gen, k, /*extremes=*/false);
    EXPECT_EQ(MedianAbsDiff(a.data(), b.data(), k, &scratch),
              SortMedian(AbsDiffs(a, b)))
        << "k=" << k;
    // Every difference at its largest.
    const std::vector<uint8_t> full(k, 255), zero(k, 0);
    EXPECT_EQ(MedianAbsDiff(zero.data(), full.data(), k, &scratch), 255.0)
        << "k=" << k;
  }
}

TEST(CodeKernelsTest, MedianOfDiffs16MatchesSortMedian) {
  // MedianAbsDiff's two-level radix select over the 16-bit differences.
  rng::Xoshiro256 gen(606);
  CodeScratch scratch;
  for (size_t k : kLengths) {
    const auto a = RandomCodes16(&gen, k, /*extremes=*/true);
    const auto b = RandomCodes16(&gen, k, /*extremes=*/false);
    EXPECT_EQ(MedianAbsDiff(a.data(), b.data(), k, &scratch),
              SortMedian(AbsDiffs(a, b)))
        << "k=" << k;
    const std::vector<uint16_t> full(k, 65535), zero(k, 0);
    EXPECT_EQ(MedianAbsDiff(zero.data(), full.data(), k, &scratch), 65535.0)
        << "k=" << k;
  }
}

TEST(CodeKernelsTest, EvenKMedianIsExactHalfStep) {
  // Two middle order statistics 3 and 4 -> exactly 3.5, never a float
  // artifact.
  CodeScratch scratch;
  const std::vector<uint8_t> a8 = {1, 3, 4, 9}, b8(4, 0);
  const std::vector<uint16_t> a16 = {0, 3, 4, 9}, b16 = {1, 0, 0, 0};
  EXPECT_EQ(MedianAbsDiff(a8.data(), b8.data(), 4, &scratch), 3.5);
  EXPECT_EQ(MedianAbsDiff(a16.data(), b16.data(), 4, &scratch), 3.5);
}

TEST(CodeKernelsTest, ConstantAndIdenticalInputs) {
  CodeScratch scratch;
  const std::vector<uint8_t> a8(33, 200);
  const std::vector<uint16_t> a16(33, 60000);
  EXPECT_EQ(MedianAbsDiff(a8.data(), a8.data(), a8.size(), &scratch), 0.0);
  EXPECT_EQ(MedianAbsDiff(a16.data(), a16.data(), a16.size(), &scratch), 0.0);
  EXPECT_EQ(SumSquaredDiff(a8.data(), a8.data(), a8.size()), 0u);
  EXPECT_EQ(SumSquaredDiff(a16.data(), a16.data(), a16.size()), 0u);
}

TEST(CodeKernelsTest, ScratchReuseAcrossWidthsAndSizes) {
  // One scratch serving interleaved 8- and 16-bit calls of varying k must
  // never leak state between calls.
  rng::Xoshiro256 gen(707);
  CodeScratch scratch;
  for (int round = 0; round < 4; ++round) {
    for (size_t k : {size_t{5}, size_t{64}, size_t{257}}) {
      const auto a8 = RandomCodes8(&gen, k, false);
      const auto b8 = RandomCodes8(&gen, k, false);
      const auto a16 = RandomCodes16(&gen, k, false);
      const auto b16 = RandomCodes16(&gen, k, false);
      EXPECT_EQ(MedianAbsDiff(a8.data(), b8.data(), k, &scratch),
                SortMedian(AbsDiffs(a8, b8)));
      EXPECT_EQ(MedianAbsDiff(a16.data(), b16.data(), k, &scratch),
                SortMedian(AbsDiffs(a16, b16)));
    }
  }
}

}  // namespace
}  // namespace tabsketch::core::kernels
