#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "fft/correlate.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 50.0;
  return out;
}

PoolOptions SmallPool() {
  PoolOptions options;
  options.log2_min_rows = 2;  // 4
  options.log2_min_cols = 2;
  return options;
}

TEST(SketchPoolTest, EnumeratesCanonicalSizes) {
  const table::Matrix data = RandomTable(16, 32, 1);
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 4, .seed = 9},
                                SmallPool());
  ASSERT_TRUE(pool.ok());
  const auto sizes = pool->CanonicalSizes();
  // Heights 4, 8, 16; widths 4, 8, 16, 32 -> 12 combinations.
  EXPECT_EQ(sizes.size(), 12u);
}

TEST(SketchPoolTest, RespectsSizeBounds) {
  const table::Matrix data = RandomTable(32, 32, 2);
  PoolOptions options;
  options.log2_min_rows = 3;
  options.log2_max_rows = 3;
  options.log2_min_cols = 4;
  options.log2_max_cols = 4;
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 2, .seed = 9}, options);
  ASSERT_TRUE(pool.ok());
  const auto sizes = pool->CanonicalSizes();
  ASSERT_EQ(sizes.size(), 1u);
  EXPECT_EQ(sizes[0], (std::make_pair<size_t, size_t>(8, 16)));
}

TEST(SketchPoolTest, FailsWhenNothingFits) {
  const table::Matrix data = RandomTable(4, 4, 3);
  PoolOptions options;
  options.log2_min_rows = 4;  // 16 > 4 rows
  options.log2_min_cols = 2;
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 2, .seed = 9}, options);
  EXPECT_FALSE(pool.ok());
}

TEST(SketchPoolTest, ParallelBuildIsBitIdentical) {
  const table::Matrix data = RandomTable(32, 32, 21);
  SketchParams params{.p = 1.0, .k = 6, .seed = 33};
  PoolOptions sequential_options = SmallPool();
  sequential_options.threads = 1;
  auto sequential = SketchPool::Build(data, params, sequential_options);
  ASSERT_TRUE(sequential.ok());
  for (size_t threads : {2u, 8u}) {
    PoolOptions parallel_options = SmallPool();
    parallel_options.threads = threads;
    auto parallel = SketchPool::Build(data, params, parallel_options);
    ASSERT_TRUE(parallel.ok());
    ASSERT_EQ(parallel->CanonicalSizes(), sequential->CanonicalSizes());
    for (const auto& [size, field] : sequential->fields()) {
      const SketchField& other = parallel->fields().at(size);
      ASSERT_EQ(other.k(), field.k());
      for (size_t i = 0; i < field.k(); ++i) {
        EXPECT_TRUE(other.plane(i) == field.plane(i))
            << "threads=" << threads << " size=" << size.first << "x"
            << size.second << " plane=" << i;
      }
    }
  }
}

TEST(SketchPoolTest, OddKParallelBuildIsBitIdentical) {
  // Odd k leaves one unpaired kernel per canonical size on the single-kernel
  // path while the rest ride CorrelatePair; the split must not depend on the
  // thread count.
  const table::Matrix data = RandomTable(32, 32, 25);
  SketchParams params{.p = 1.0, .k = 5, .seed = 44};
  PoolOptions sequential_options = SmallPool();
  sequential_options.threads = 1;
  auto sequential = SketchPool::Build(data, params, sequential_options);
  ASSERT_TRUE(sequential.ok());
  for (size_t threads : {2u, 8u}) {
    PoolOptions parallel_options = SmallPool();
    parallel_options.threads = threads;
    auto parallel = SketchPool::Build(data, params, parallel_options);
    ASSERT_TRUE(parallel.ok());
    for (const auto& [size, field] : sequential->fields()) {
      const SketchField& other = parallel->fields().at(size);
      for (size_t i = 0; i < field.k(); ++i) {
        EXPECT_TRUE(other.plane(i) == field.plane(i))
            << "threads=" << threads << " size=" << size.first << "x"
            << size.second << " plane=" << i;
      }
    }
  }
}

TEST(SketchPoolTest, OddKFftPlanesMatchNaiveCorrelation) {
  // Every plane of an FFT pool build — paired kernels and the odd leftover —
  // is the valid-mode correlation of the data with that kernel.
  const table::Matrix data = RandomTable(16, 16, 26);
  SketchParams params{.p = 1.0, .k = 5, .seed = 45};
  auto pool = SketchPool::Build(data, params, SmallPool());
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  for (const auto& [size, field] : pool->fields()) {
    const auto& kernels = sketcher->MatricesFor(size.first, size.second);
    for (size_t i = 0; i < field.k(); ++i) {
      const table::Matrix expected =
          fft::CrossCorrelateNaive(data, kernels[i]);
      const table::Matrix& plane = field.plane(i);
      ASSERT_EQ(plane.rows(), expected.rows());
      ASSERT_EQ(plane.cols(), expected.cols());
      for (size_t r = 0; r < expected.rows(); ++r) {
        for (size_t c = 0; c < expected.cols(); ++c) {
          EXPECT_NEAR(plane.At(r, c), expected.At(r, c), 1e-8)
              << "size=" << size.first << "x" << size.second << " plane=" << i;
        }
      }
    }
  }
}

TEST(SketchPoolTest, ParallelNaiveBuildIsBitIdentical) {
  const table::Matrix data = RandomTable(16, 16, 22);
  SketchParams params{.p = 2.0, .k = 4, .seed = 5};
  PoolOptions naive = SmallPool();
  naive.algorithm = SketchAlgorithm::kNaive;
  naive.threads = 1;
  auto sequential = SketchPool::Build(data, params, naive);
  ASSERT_TRUE(sequential.ok());
  naive.threads = 8;
  auto parallel = SketchPool::Build(data, params, naive);
  ASSERT_TRUE(parallel.ok());
  for (const auto& [size, field] : sequential->fields()) {
    const SketchField& other = parallel->fields().at(size);
    for (size_t i = 0; i < field.k(); ++i) {
      EXPECT_TRUE(other.plane(i) == field.plane(i));
    }
  }
}

TEST(SketchPoolTest, FftBuildConstructsExactlyOnePlan) {
  // The whole point of hoisting the plan: one forward FFT of the data per
  // build, no matter how many canonical sizes / kernels / threads.
  const table::Matrix data = RandomTable(32, 32, 23);
  for (size_t threads : {1u, 4u}) {
    PoolOptions options = SmallPool();
    options.threads = threads;
    const size_t before = fft::CorrelationPlan::plans_constructed();
    auto pool =
        SketchPool::Build(data, {.p = 1.0, .k = 5, .seed = 7}, options);
    ASSERT_TRUE(pool.ok());
    EXPECT_EQ(fft::CorrelationPlan::plans_constructed() - before, 1u)
        << "threads=" << threads;
  }
}

TEST(SketchPoolTest, NaiveBuildConstructsNoPlan) {
  const table::Matrix data = RandomTable(8, 8, 24);
  PoolOptions options = SmallPool();
  options.algorithm = SketchAlgorithm::kNaive;
  const size_t before = fft::CorrelationPlan::plans_constructed();
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 3, .seed = 7}, options);
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(fft::CorrelationPlan::plans_constructed() - before, 0u);
}

TEST(SketchPoolTest, CanonicalSketchMatchesDirectSketcher) {
  const table::Matrix data = RandomTable(16, 16, 4);
  SketchParams params{.p = 1.0, .k = 6, .seed = 12};
  auto pool = SketchPool::Build(data, params, SmallPool());
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  for (size_t r : {0u, 3u, 8u}) {
    for (size_t c : {0u, 5u}) {
      auto pooled = pool->CanonicalSketchAt(r, c, 8, 8);
      ASSERT_TRUE(pooled.ok());
      const Sketch direct = sketcher->SketchOf(data.Window(r, c, 8, 8));
      for (size_t i = 0; i < params.k; ++i) {
        EXPECT_NEAR(pooled->values[i], direct.values[i], 1e-7);
      }
    }
  }
}

TEST(SketchPoolTest, CanonicalSketchErrors) {
  const table::Matrix data = RandomTable(16, 16, 4);
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 2, .seed = 12},
                                SmallPool());
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->CanonicalSketchAt(0, 0, 5, 8).status().code(),
            util::StatusCode::kNotFound);
  EXPECT_EQ(pool->CanonicalSketchAt(12, 0, 8, 8).status().code(),
            util::StatusCode::kOutOfRange);
}

TEST(SketchPoolTest, QueryValidation) {
  const table::Matrix data = RandomTable(16, 16, 5);
  auto pool = SketchPool::Build(data, {.p = 1.0, .k = 2, .seed = 12},
                                SmallPool());
  ASSERT_TRUE(pool.ok());
  EXPECT_EQ(pool->Query(0, 0, 0, 4).status().code(),
            util::StatusCode::kInvalidArgument);
  EXPECT_EQ(pool->Query(10, 0, 8, 8).status().code(),
            util::StatusCode::kOutOfRange);
  EXPECT_EQ(pool->Query(0, 0, 2, 4).status().code(),
            util::StatusCode::kNotFound);  // canonical height 2 not stored
  EXPECT_TRUE(pool->Query(0, 0, 8, 8).ok());
}

TEST(SketchPoolTest, DyadicQueryIsFourTimesCanonicalSketch) {
  // When the rectangle is exactly canonical, all four compound anchors
  // coincide, so the compound sketch is 4x the canonical one.
  const table::Matrix data = RandomTable(16, 16, 6);
  SketchParams params{.p = 1.0, .k = 5, .seed = 3};
  auto pool = SketchPool::Build(data, params, SmallPool());
  ASSERT_TRUE(pool.ok());
  auto compound = pool->Query(2, 3, 8, 8);
  auto canonical = pool->CanonicalSketchAt(2, 3, 8, 8);
  ASSERT_TRUE(compound.ok() && canonical.ok());
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(compound->values[i], 4.0 * canonical->values[i], 1e-7);
  }
}

TEST(SketchPoolTest, CompoundSketchEqualsSumOfCoveringSketches) {
  // Definition 4 literally: the compound sketch is the sum of the sketches
  // of the four overlapping canonical rectangles.
  const table::Matrix data = RandomTable(32, 32, 7);
  SketchParams params{.p = 1.0, .k = 4, .seed = 8};
  auto pool = SketchPool::Build(data, params, SmallPool());
  auto sketcher = Sketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());

  const size_t row = 3, col = 5, rows = 11, cols = 13;  // canonical 8x8
  auto compound = pool->Query(row, col, rows, cols);
  ASSERT_TRUE(compound.ok());

  Sketch expected = sketcher->SketchOf(data.Window(row, col, 8, 8));
  expected.Add(sketcher->SketchOf(data.Window(row + rows - 8, col, 8, 8)));
  expected.Add(sketcher->SketchOf(data.Window(row, col + cols - 8, 8, 8)));
  expected.Add(
      sketcher->SketchOf(data.Window(row + rows - 8, col + cols - 8, 8, 8)));
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(compound->values[i], expected.values[i], 1e-7);
  }
}

/// Theorem 5 behavior: a compound sketch of a rectangle equals the canonical
/// sketch of the *folded* rectangle (the four shifted windows re-use the same
/// random matrix), so the estimated distance between two equal-dimension
/// compound sketches is the Lp norm of the folded difference. Overlap cells
/// are counted 1, 2 or 4 times, giving the 4(1+eps) upper band of Theorem 5;
/// for p < 1 sign cancellation in the fold can also pull the ratio below 1.
/// Clustering only needs equal-dimension queries to be mutually comparable,
/// which this construction preserves.
class CompoundApproximationTest : public ::testing::TestWithParam<double> {};

TEST_P(CompoundApproximationTest, RatioWithinTheoremFiveBand) {
  const double p = GetParam();
  const table::Matrix data = RandomTable(64, 64, 10);
  SketchParams params{.p = p, .k = 300, .seed = 31};
  auto pool = SketchPool::Build(data, params, SmallPool());
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(pool.ok() && estimator.ok());

  const size_t rows = 11, cols = 13;
  struct Rect { size_t r, c; };
  const Rect a{1, 2};
  const Rect b{40, 37};
  auto sa = pool->Query(a.r, a.c, rows, cols);
  auto sb = pool->Query(b.r, b.c, rows, cols);
  ASSERT_TRUE(sa.ok() && sb.ok());
  const double approx = estimator->Estimate(*sa, *sb);
  const double exact = LpDistance(data.Window(a.r, a.c, rows, cols),
                                  data.Window(b.r, b.c, rows, cols), p);
  const double ratio = approx / exact;
  // For p >= 1 folding cannot cancel in expectation and the ratio sits in
  // roughly [1, 4]; for p < 1 cancellation deflates it (see class comment),
  // and the worst-case inflation is 4^(1/p). Bands include estimator noise
  // at k = 300.
  const double lower = (p < 1.0) ? 0.15 : 0.7;
  const double upper = (p < 1.0) ? 6.0 : 5.0;
  EXPECT_GT(ratio, lower) << "p=" << p;
  EXPECT_LT(ratio, upper) << "p=" << p;
}

INSTANTIATE_TEST_SUITE_P(Ps, CompoundApproximationTest,
                         ::testing::Values(0.5, 1.0, 1.5, 2.0));

TEST(SketchPoolTest, CompoundDistancesPreserveNearVsFar) {
  // What clustering needs: among equal-dimension rectangles, compound
  // estimates order a near pair before a far pair.
  table::Matrix data(64, 64);
  rng::Xoshiro256 gen(11);
  // Left half ~ N(0,1)-ish noise around 10; right half around 200.
  for (size_t r = 0; r < 64; ++r) {
    for (size_t c = 0; c < 64; ++c) {
      const double base = (c < 32) ? 10.0 : 200.0;
      data(r, c) = base + gen.NextDouble();
    }
  }
  SketchParams params{.p = 1.0, .k = 128, .seed = 5};
  auto pool = SketchPool::Build(data, params, SmallPool());
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(pool.ok() && estimator.ok());

  const size_t rows = 12, cols = 12;
  auto left1 = pool->Query(0, 0, rows, cols);
  auto left2 = pool->Query(40, 10, rows, cols);
  auto right = pool->Query(20, 50, rows, cols);
  ASSERT_TRUE(left1.ok() && left2.ok() && right.ok());
  const double near = estimator->Estimate(*left1, *left2);
  const double far = estimator->Estimate(*left1, *right);
  EXPECT_LT(near, far);
}

TEST(SketchPoolTest, FftAndNaivePoolsAgree) {
  const table::Matrix data = RandomTable(16, 16, 13);
  SketchParams params{.p = 1.0, .k = 3, .seed = 21};
  PoolOptions fft_options = SmallPool();
  PoolOptions naive_options = SmallPool();
  naive_options.algorithm = SketchAlgorithm::kNaive;
  auto fft_pool = SketchPool::Build(data, params, fft_options);
  auto naive_pool = SketchPool::Build(data, params, naive_options);
  ASSERT_TRUE(fft_pool.ok() && naive_pool.ok());
  auto qa = fft_pool->Query(1, 2, 9, 10);
  auto qb = naive_pool->Query(1, 2, 9, 10);
  ASSERT_TRUE(qa.ok() && qb.ok());
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(qa->values[i], qb->values[i], 1e-6);
  }
}

}  // namespace
}  // namespace tabsketch::core
