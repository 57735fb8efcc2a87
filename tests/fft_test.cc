#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <utility>
#include <vector>

#include "fft/complex_fft.h"
#include "fft/correlate.h"
#include "fft/twiddle.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "util/parallel.h"

namespace tabsketch::fft {
namespace {

using Complex = std::complex<double>;

table::Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 2.0 - 1.0;
  return out;
}

TEST(NextPowerOfTwoTest, KnownValues) {
  EXPECT_EQ(NextPowerOfTwo(1), 1u);
  EXPECT_EQ(NextPowerOfTwo(2), 2u);
  EXPECT_EQ(NextPowerOfTwo(3), 4u);
  EXPECT_EQ(NextPowerOfTwo(17), 32u);
  EXPECT_EQ(NextPowerOfTwo(1024), 1024u);
}

TEST(IsPowerOfTwoTest, KnownValues) {
  EXPECT_TRUE(IsPowerOfTwo(1));
  EXPECT_TRUE(IsPowerOfTwo(64));
  EXPECT_FALSE(IsPowerOfTwo(0));
  EXPECT_FALSE(IsPowerOfTwo(3));
  EXPECT_FALSE(IsPowerOfTwo(96));
}

TEST(ComplexFftTest, SizeOneIsIdentity) {
  std::vector<Complex> data = {Complex(3.0, -2.0)};
  Forward(data);
  EXPECT_DOUBLE_EQ(data[0].real(), 3.0);
  EXPECT_DOUBLE_EQ(data[0].imag(), -2.0);
}

TEST(ComplexFftTest, DeltaTransformsToAllOnes) {
  std::vector<Complex> data(8, Complex(0.0, 0.0));
  data[0] = Complex(1.0, 0.0);
  Forward(data);
  for (const auto& value : data) {
    EXPECT_NEAR(value.real(), 1.0, 1e-12);
    EXPECT_NEAR(value.imag(), 0.0, 1e-12);
  }
}

TEST(ComplexFftTest, ConstantTransformsToScaledDelta) {
  std::vector<Complex> data(8, Complex(1.0, 0.0));
  Forward(data);
  EXPECT_NEAR(data[0].real(), 8.0, 1e-12);
  for (size_t i = 1; i < data.size(); ++i) {
    EXPECT_NEAR(std::abs(data[i]), 0.0, 1e-12);
  }
}

TEST(ComplexFftTest, MatchesDirectDftOnSmallInput) {
  rng::Xoshiro256 gen(5);
  constexpr size_t kN = 16;
  std::vector<Complex> data(kN);
  for (auto& value : data) {
    value = Complex(gen.NextDouble() - 0.5, gen.NextDouble() - 0.5);
  }
  std::vector<Complex> expected(kN);
  for (size_t k = 0; k < kN; ++k) {
    Complex acc(0.0, 0.0);
    for (size_t n = 0; n < kN; ++n) {
      const double angle = -2.0 * M_PI * static_cast<double>(k * n) / kN;
      acc += data[n] * Complex(std::cos(angle), std::sin(angle));
    }
    expected[k] = acc;
  }
  Forward(data);
  for (size_t k = 0; k < kN; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-10);
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-10);
  }
}

/// Naive O(n^2) DFT reference; the k*t product is reduced mod n before the
/// angle so the reference itself stays accurate at the larger lengths.
std::vector<Complex> NaiveDft(const std::vector<Complex>& in) {
  const size_t n = in.size();
  std::vector<Complex> out(n);
  for (size_t k = 0; k < n; ++k) {
    Complex acc(0.0, 0.0);
    for (size_t t = 0; t < n; ++t) {
      const double angle =
          -2.0 * M_PI * static_cast<double>((k * t) % n) / static_cast<double>(n);
      acc += in[t] * Complex(std::cos(angle), std::sin(angle));
    }
    out[k] = acc;
  }
  return out;
}

/// The twiddle-table transform against the naive reference, every
/// power-of-two length up to 2^10.
class TwiddleTableDftTest : public ::testing::TestWithParam<size_t> {};

TEST_P(TwiddleTableDftTest, MatchesNaiveDftReference) {
  const size_t n = GetParam();
  rng::Xoshiro256 gen(7 * n + 1);
  std::vector<Complex> data(n);
  for (auto& value : data) {
    value = Complex(gen.NextDouble() - 0.5, gen.NextDouble() - 0.5);
  }
  const std::vector<Complex> expected = NaiveDft(data);
  Forward(data);
  for (size_t k = 0; k < n; ++k) {
    EXPECT_NEAR(data[k].real(), expected[k].real(), 1e-9) << "n=" << n;
    EXPECT_NEAR(data[k].imag(), expected[k].imag(), 1e-9) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(AllPowersOfTwoTo1024, TwiddleTableDftTest,
                         ::testing::Values(1, 2, 4, 8, 16, 32, 64, 128, 256,
                                           512, 1024));

TEST(TwiddleTableTest, TablesAreCachedAndStable) {
  const FftTables& first = TablesFor(64);
  const FftTables& second = TablesFor(64);
  EXPECT_EQ(&first, &second) << "same length must reuse one table";
  EXPECT_EQ(first.n, 64u);
  ASSERT_EQ(first.twiddles.size(), 32u);
  ASSERT_EQ(first.bit_reverse.size(), 64u);
  // Spot values: w^0 = 1, w^16 = exp(-i*pi/2) = -i; reversing 1 over 6 bits
  // gives 0b100000.
  EXPECT_DOUBLE_EQ(first.twiddles[0].real(), 1.0);
  EXPECT_NEAR(first.twiddles[16].real(), 0.0, 1e-15);
  EXPECT_DOUBLE_EQ(first.twiddles[16].imag(), -1.0);
  EXPECT_EQ(first.bit_reverse[0], 0u);
  EXPECT_EQ(first.bit_reverse[1], 32u);
  EXPECT_GE(CachedTableLengths(), 1u);
}

class FftRoundTripTest : public ::testing::TestWithParam<size_t> {};

TEST_P(FftRoundTripTest, ForwardThenInverseIsIdentity) {
  const size_t n = GetParam();
  rng::Xoshiro256 gen(n);
  std::vector<Complex> data(n);
  for (auto& value : data) {
    value = Complex(gen.NextDouble() - 0.5, gen.NextDouble() - 0.5);
  }
  const std::vector<Complex> original = data;
  Forward(data);
  Inverse(data);
  for (size_t i = 0; i < n; ++i) {
    EXPECT_NEAR(data[i].real(), original[i].real(), 1e-10);
    EXPECT_NEAR(data[i].imag(), original[i].imag(), 1e-10);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, FftRoundTripTest,
                         ::testing::Values(1, 2, 4, 8, 64, 256, 1024, 4096));

TEST(ComplexFftTest, ParsevalEnergyConservation) {
  constexpr size_t kN = 512;
  rng::Xoshiro256 gen(77);
  std::vector<Complex> data(kN);
  double time_energy = 0.0;
  for (auto& value : data) {
    value = Complex(gen.NextDouble() - 0.5, 0.0);
    time_energy += std::norm(value);
  }
  Forward(data);
  double freq_energy = 0.0;
  for (const auto& value : data) freq_energy += std::norm(value);
  EXPECT_NEAR(freq_energy / static_cast<double>(kN), time_energy, 1e-9);
}

TEST(CrossCorrelateNaiveTest, HandComputedExample) {
  table::Matrix data(2, 3, {1, 2, 3,
                            4, 5, 6});
  table::Matrix kernel(1, 2, {1, 10});
  // Valid positions: 2 rows x 2 cols.
  table::Matrix out = CrossCorrelateNaive(data, kernel);
  ASSERT_EQ(out.rows(), 2u);
  ASSERT_EQ(out.cols(), 2u);
  EXPECT_DOUBLE_EQ(out(0, 0), 1 + 20);
  EXPECT_DOUBLE_EQ(out(0, 1), 2 + 30);
  EXPECT_DOUBLE_EQ(out(1, 0), 4 + 50);
  EXPECT_DOUBLE_EQ(out(1, 1), 5 + 60);
}

TEST(CrossCorrelateNaiveTest, KernelSameSizeAsDataGivesDotProduct) {
  table::Matrix data(2, 2, {1, 2, 3, 4});
  table::Matrix kernel(2, 2, {5, 6, 7, 8});
  table::Matrix out = CrossCorrelateNaive(data, kernel);
  ASSERT_EQ(out.rows(), 1u);
  ASSERT_EQ(out.cols(), 1u);
  EXPECT_DOUBLE_EQ(out(0, 0), 5.0 + 12.0 + 21.0 + 32.0);
}

struct XCorrCase {
  size_t data_rows, data_cols, kernel_rows, kernel_cols;
};

class CorrelationPlanTest : public ::testing::TestWithParam<XCorrCase> {};

TEST_P(CorrelationPlanTest, FftMatchesNaive) {
  const XCorrCase c = GetParam();
  const table::Matrix data = RandomMatrix(c.data_rows, c.data_cols, 1234);
  const table::Matrix kernel =
      RandomMatrix(c.kernel_rows, c.kernel_cols, 5678);

  const table::Matrix naive = CrossCorrelateNaive(data, kernel);
  CorrelationPlan plan(data);
  const table::Matrix fast = plan.Correlate(kernel);

  ASSERT_EQ(naive.rows(), fast.rows());
  ASSERT_EQ(naive.cols(), fast.cols());
  for (size_t i = 0; i < naive.rows(); ++i) {
    for (size_t j = 0; j < naive.cols(); ++j) {
      EXPECT_NEAR(fast(i, j), naive(i, j), 1e-8)
          << "at (" << i << "," << j << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CorrelationPlanTest,
    ::testing::Values(XCorrCase{8, 8, 4, 4}, XCorrCase{16, 16, 16, 16},
                      XCorrCase{10, 7, 3, 2},      // non-power-of-two data
                      XCorrCase{33, 65, 8, 16},    // odd data dims
                      XCorrCase{64, 64, 1, 1},     // trivial kernel
                      XCorrCase{5, 31, 5, 4},      // full-height kernel
                      XCorrCase{128, 32, 32, 32},
                      XCorrCase{1, 100, 1, 5},     // 1-D series as 1 x n
                      XCorrCase{1, 33, 1, 1}));

TEST(CorrelationPlanTest, PlanReusedAcrossKernels) {
  const table::Matrix data = RandomMatrix(24, 24, 42);
  CorrelationPlan plan(data);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    const table::Matrix kernel = RandomMatrix(6, 9, seed);
    const table::Matrix naive = CrossCorrelateNaive(data, kernel);
    const table::Matrix fast = plan.Correlate(kernel);
    for (size_t i = 0; i < naive.rows(); ++i) {
      for (size_t j = 0; j < naive.cols(); ++j) {
        EXPECT_NEAR(fast(i, j), naive(i, j), 1e-9);
      }
    }
  }
}

TEST(CorrelationPlanTest, ConcurrentCorrelateMatchesSequential) {
  // The pool build shares one plan across worker threads; concurrent
  // Correlate calls must be bit-identical to sequential ones (Correlate is
  // const and owns its workspace).
  const table::Matrix data = RandomMatrix(32, 32, 77);
  const CorrelationPlan plan(data);
  constexpr size_t kKernels = 16;
  std::vector<table::Matrix> kernels;
  kernels.reserve(kKernels);
  for (uint64_t seed = 0; seed < kKernels; ++seed) {
    kernels.push_back(RandomMatrix(8, 8, 1000 + seed));
  }
  std::vector<table::Matrix> sequential(kKernels);
  for (size_t i = 0; i < kKernels; ++i) {
    sequential[i] = plan.Correlate(kernels[i]);
  }
  std::vector<table::Matrix> concurrent(kKernels);
  util::ParallelFor(kKernels, 8, [&](size_t i) {
    concurrent[i] = plan.Correlate(kernels[i]);
  });
  for (size_t i = 0; i < kKernels; ++i) {
    EXPECT_TRUE(concurrent[i] == sequential[i]) << "kernel " << i;
  }
}

void ExpectMatchesNaive(const table::Matrix& data, const table::Matrix& kernel,
                        const table::Matrix& fast, double tolerance,
                        const char* label) {
  const table::Matrix naive = CrossCorrelateNaive(data, kernel);
  ASSERT_EQ(naive.rows(), fast.rows()) << label;
  ASSERT_EQ(naive.cols(), fast.cols()) << label;
  for (size_t i = 0; i < naive.rows(); ++i) {
    for (size_t j = 0; j < naive.cols(); ++j) {
      EXPECT_NEAR(fast(i, j), naive(i, j), tolerance)
          << label << " at (" << i << "," << j << ")";
    }
  }
}

TEST(CorrelatePairTest, OddKernelPairMatchesNaive) {
  const table::Matrix data = RandomMatrix(20, 17, 301);
  const table::Matrix kernel_a = RandomMatrix(3, 5, 302);
  const table::Matrix kernel_b = RandomMatrix(7, 3, 303);
  CorrelationPlan plan(data);
  const auto [fast_a, fast_b] = plan.CorrelatePair(kernel_a, kernel_b);
  ExpectMatchesNaive(data, kernel_a, fast_a, 1e-9, "kernel a");
  ExpectMatchesNaive(data, kernel_b, fast_b, 1e-9, "kernel b");
}

TEST(CorrelatePairTest, MismatchedKernelShapesMatchNaive) {
  // The two halves of the packed grid carry kernels of different shapes, so
  // each output has its own valid size.
  const table::Matrix data = RandomMatrix(24, 31, 311);
  const table::Matrix kernel_a = RandomMatrix(4, 4, 312);
  const table::Matrix kernel_b = RandomMatrix(2, 7, 313);
  CorrelationPlan plan(data);
  const auto [fast_a, fast_b] = plan.CorrelatePair(kernel_a, kernel_b);
  ExpectMatchesNaive(data, kernel_a, fast_a, 1e-9, "4x4 kernel");
  ExpectMatchesNaive(data, kernel_b, fast_b, 1e-9, "2x7 kernel");
}

TEST(CorrelatePairTest, FullSizeAndTrivialKernelPair) {
  // Extremes in one pair: a kernel covering the whole table (1x1 output)
  // packed with a 1x1 kernel (full-size output).
  const table::Matrix data = RandomMatrix(16, 16, 321);
  const table::Matrix kernel_a = RandomMatrix(16, 16, 322);
  const table::Matrix kernel_b = RandomMatrix(1, 1, 323);
  CorrelationPlan plan(data);
  const auto [fast_a, fast_b] = plan.CorrelatePair(kernel_a, kernel_b);
  ExpectMatchesNaive(data, kernel_a, fast_a, 1e-8, "full-size kernel");
  ExpectMatchesNaive(data, kernel_b, fast_b, 1e-9, "1x1 kernel");
}

TEST(CorrelatePairTest, AgreesWithSingleKernelCorrelate) {
  // The pair-packed path and the single-kernel path are different transform
  // pipelines, so they agree to rounding, not bitwise.
  const table::Matrix data = RandomMatrix(33, 65, 331);
  const table::Matrix kernel_a = RandomMatrix(8, 16, 332);
  const table::Matrix kernel_b = RandomMatrix(8, 16, 333);
  CorrelationPlan plan(data);
  const auto [fast_a, fast_b] = plan.CorrelatePair(kernel_a, kernel_b);
  const table::Matrix single_a = plan.Correlate(kernel_a);
  const table::Matrix single_b = plan.Correlate(kernel_b);
  for (size_t i = 0; i < single_a.rows(); ++i) {
    for (size_t j = 0; j < single_a.cols(); ++j) {
      EXPECT_NEAR(fast_a(i, j), single_a(i, j), 1e-9);
      EXPECT_NEAR(fast_b(i, j), single_b(i, j), 1e-9);
    }
  }
}

TEST(CorrelatePairTest, ConcurrentPairsAreBitIdenticalToSequential) {
  // The pool build fans pairs over threads against one shared plan; each
  // pair's arithmetic must not depend on which thread runs it.
  const table::Matrix data = RandomMatrix(32, 32, 341);
  const CorrelationPlan plan(data);
  constexpr size_t kPairs = 8;
  std::vector<table::Matrix> kernels;
  for (uint64_t seed = 0; seed < 2 * kPairs; ++seed) {
    kernels.push_back(RandomMatrix(8, 8, 2000 + seed));
  }
  std::vector<table::Matrix> sequential(2 * kPairs);
  for (size_t j = 0; j < kPairs; ++j) {
    auto [a, b] = plan.CorrelatePair(kernels[2 * j], kernels[2 * j + 1]);
    sequential[2 * j] = std::move(a);
    sequential[2 * j + 1] = std::move(b);
  }
  std::vector<table::Matrix> concurrent(2 * kPairs);
  util::ParallelFor(kPairs, 8, [&](size_t j) {
    auto [a, b] = plan.CorrelatePair(kernels[2 * j], kernels[2 * j + 1]);
    concurrent[2 * j] = std::move(a);
    concurrent[2 * j + 1] = std::move(b);
  });
  for (size_t i = 0; i < 2 * kPairs; ++i) {
    EXPECT_TRUE(concurrent[i] == sequential[i]) << "kernel " << i;
  }
}

TEST(CorrelationPlanTest, ConstructionCounterCountsPlans) {
  const table::Matrix data = RandomMatrix(8, 8, 5);
  const size_t before = CorrelationPlan::plans_constructed();
  {
    CorrelationPlan first(data);
    CorrelationPlan second(data);
    CorrelationPlan moved(std::move(first));  // moves are not constructions
    (void)moved;
  }
  EXPECT_EQ(CorrelationPlan::plans_constructed() - before, 2u);
}

TEST(FftDeathTest, NonPowerOfTwoLengthAborts) {
  std::vector<Complex> data(3);
  EXPECT_DEATH(Forward(data), "not a power of two");
}

}  // namespace
}  // namespace tabsketch::fft
