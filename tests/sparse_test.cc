// Very sparse stable projections (Ping Li; DESIGN.md Section 16):
//   - counter-based derivation: the sparse gate + rescale primitive and its
//     dense (sparsity = 1) bit-identity;
//   - CSR-style kernels: Dense() reproduces StableRandomMatrix bit-for-bit
//     and the O(nnz) correlation paths match the dense walks bit-for-bit;
//   - deterministic FFT-vs-direct path selection and the resulting
//     thread-count byte-identity of sparse pools;
//   - the empirical (eps, delta) envelope of sparse families on the same
//     swept guarantee grid the dense families pass.

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "core/sparse_kernel.h"
#include "core/stable_matrix.h"
#include "fft/correlate.h"
#include "rng/stable.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch {
namespace {

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& v : out.Values()) v = gen.NextDouble() * 20.0 - 10.0;
  return out;
}

// --- counter-based derivation -----------------------------------------------

TEST(SparseStableTest, DenseSparsityIsBitIdenticalToDenseDraw) {
  // sparsity = 1 must short-circuit to the legacy dense draw, bit for bit:
  // every pre-sparsity family is the sparsity = 1 case of the new tier.
  for (const double alpha : {0.5, 1.0, 1.3, 2.0}) {
    for (uint64_t seed = 0; seed < 64; ++seed) {
      EXPECT_EQ(rng::SampleSparseStableAt(alpha, 1.0, seed),
                rng::SampleStableAt(alpha, seed))
          << "alpha=" << alpha << " seed=" << seed;
    }
  }
}

TEST(SparseStableTest, NonzeroDrawsAreRescaledDenseDraws) {
  // A surviving entry is the dense draw times sparsity^(-1/alpha); nothing
  // else about the value changes, so magnitude and membership stay
  // independently derived from the seed.
  const double alpha = 1.0, sparsity = 0.3;
  const double rescale = std::pow(sparsity, -1.0 / alpha);
  size_t nonzero = 0;
  constexpr uint64_t kSeeds = 20000;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    const double value = rng::SampleSparseStableAt(alpha, sparsity, seed);
    if (value == 0.0) continue;
    ++nonzero;
    EXPECT_DOUBLE_EQ(value, rng::SampleStableAt(alpha, seed) * rescale);
  }
  // Support frequency tracks the gate probability (binomial noise on 20000
  // draws is ~0.3% at this level).
  const double rate = static_cast<double>(nonzero) / kSeeds;
  EXPECT_NEAR(rate, sparsity, 0.02);
}

// --- CSR kernels ------------------------------------------------------------

TEST(SparseKernelTest, DenseReconstructionIsBitIdentical) {
  const core::SketchParams params{
      .p = 1.5, .k = 4, .seed = 7, .sparsity = 0.25};
  for (size_t index = 0; index < params.k; ++index) {
    const core::SparseKernel kernel =
        core::SparseStableKernel(params, index, 8, 8);
    const table::Matrix dense = kernel.Dense();
    const table::Matrix bulk = core::StableRandomMatrix(params, index, 8, 8);
    ASSERT_EQ(dense.rows(), bulk.rows());
    ASSERT_EQ(dense.cols(), bulk.cols());
    for (size_t r = 0; r < 8; ++r) {
      for (size_t c = 0; c < 8; ++c) {
        EXPECT_EQ(dense.At(r, c), bulk.At(r, c));
      }
    }
  }
}

TEST(SparseKernelTest, DenseFamilyKernelKeepsEveryEntry) {
  const core::SketchParams params{.p = 1.0, .k = 1, .seed = 3};
  const core::SparseKernel kernel =
      core::SparseStableKernel(params, 0, 5, 4);
  // SaS draws are continuous: a dense family's kernel is all-nonzero.
  EXPECT_EQ(kernel.nnz(), 20u);
}

TEST(SparseKernelTest, SparseCorrelationMatchesNaiveDenseBitForBit) {
  // The documented contract: per output element the sparse walk accumulates
  // in row-major storage order, so skipping exact zeros gives the same bits
  // as the dense naive correlation.
  const core::SketchParams params{
      .p = 1.0, .k = 2, .seed = 21, .sparsity = 0.3};
  const table::Matrix data = RandomTable(12, 10, 5);
  for (size_t index = 0; index < params.k; ++index) {
    const core::SparseKernel kernel =
        core::SparseStableKernel(params, index, 3, 4);
    const table::Matrix sparse = core::CrossCorrelateSparse(data, kernel);
    const table::Matrix naive =
        fft::CrossCorrelateNaive(data, kernel.Dense());
    ASSERT_EQ(sparse.rows(), naive.rows());
    ASSERT_EQ(sparse.cols(), naive.cols());
    for (size_t r = 0; r < sparse.rows(); ++r) {
      for (size_t c = 0; c < sparse.cols(); ++c) {
        EXPECT_EQ(sparse.At(r, c), naive.At(r, c))
            << "index=" << index << " (" << r << "," << c << ")";
      }
    }
  }
}

TEST(SparseKernelTest, PathSelectionIsDeterministicInSizesOnly) {
  // A near-empty kernel over many positions beats the FFT; a full kernel
  // over a padded grid does not. The rule depends only on (nnz, positions,
  // data shape) — asserting both directions pins the cost model's sign.
  EXPECT_TRUE(core::PreferSparsePath(/*nnz=*/2, /*positions=*/100, 64, 64));
  EXPECT_FALSE(
      core::PreferSparsePath(/*nnz=*/4096, /*positions=*/3969, 64, 64));
  // Same inputs, same answer: the selection is a pure function.
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(core::PreferSparsePath(2, 100, 64, 64));
  }
}

// --- sketcher integration ---------------------------------------------------

TEST(SparseSketcherTest, SketchOfMatchesDenseKernelWalk) {
  // A sparse family's single-tile sketch equals the row-major dot product
  // against the densified kernels, bit for bit.
  const core::SketchParams params{
      .p = 0.5, .k = 5, .seed = 17, .sparsity = 0.4};
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  const table::Matrix data = RandomTable(7, 9, 11);
  const core::Sketch sketch = sketcher->SketchOf(data.View());
  ASSERT_EQ(sketch.size(), params.k);
  for (size_t i = 0; i < params.k; ++i) {
    const table::Matrix dense =
        core::SparseStableKernel(params, i, 7, 9).Dense();
    double acc = 0.0;
    for (size_t r = 0; r < 7; ++r) {
      for (size_t c = 0; c < 9; ++c) {
        acc += data.At(r, c) * dense.At(r, c);
      }
    }
    EXPECT_EQ(sketch.values[i], acc) << "component " << i;
  }
}

TEST(SparseSketcherTest, AllAlgorithmsAgreeOnSparseFields) {
  // A 2-D table, and a time series as a 1 x n table (the paper's 1-D
  // predecessor case runs through the same path).
  const core::SketchParams params{
      .p = 1.0, .k = 6, .seed = 29, .sparsity = 0.15};
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  struct Input {
    table::Matrix data;
    size_t window_rows;
    size_t window_cols;
  };
  const Input inputs[] = {{RandomTable(24, 20, 31), 4, 5},
                          {RandomTable(1, 160, 43), 1, 12}};
  for (const Input& input : inputs) {
    auto naive = sketcher->SketchAllPositions(
        input.data, input.window_rows, input.window_cols,
        core::SketchAlgorithm::kNaive);
    auto fft = sketcher->SketchAllPositions(input.data, input.window_rows,
                                            input.window_cols,
                                            core::SketchAlgorithm::kFft);
    auto auto_path = sketcher->SketchAllPositions(
        input.data, input.window_rows, input.window_cols,
        core::SketchAlgorithm::kAuto);
    ASSERT_TRUE(naive.ok() && fft.ok() && auto_path.ok());
    for (size_t r = 0; r < naive->position_rows(); ++r) {
      for (size_t c = 0; c < naive->position_cols(); ++c) {
        const core::Sketch sn = naive->SketchAt(r, c);
        const core::Sketch sf = fft->SketchAt(r, c);
        const core::Sketch sa = auto_path->SketchAt(r, c);
        for (size_t i = 0; i < params.k; ++i) {
          EXPECT_NEAR(sf.values[i], sn.values[i], 1e-9)
              << input.data.rows() << "x" << input.data.cols();
          EXPECT_NEAR(sa.values[i], sn.values[i], 1e-9)
              << input.data.rows() << "x" << input.data.cols();
        }
      }
    }
  }
}

// --- pool byte-identity across thread counts --------------------------------

TEST(SparsePoolTest, BuildIsBitIdenticalAcrossThreadCounts) {
  // Path selection depends only on sizes and nnz, and each (size, kernel)
  // work item is computed identically regardless of which worker runs it —
  // so the pool's bytes cannot depend on the thread count.
  const table::Matrix data = RandomTable(32, 32, 47);
  const core::SketchParams params{
      .p = 1.0, .k = 8, .seed = 53, .sparsity = 0.1};
  core::PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  options.threads = 1;
  auto reference = core::SketchPool::Build(data, params, options);
  ASSERT_TRUE(reference.ok());
  for (const size_t threads : {2u, 3u, 8u}) {
    options.threads = threads;
    auto pool = core::SketchPool::Build(data, params, options);
    ASSERT_TRUE(pool.ok());
    ASSERT_EQ(pool->CanonicalSizes(), reference->CanonicalSizes());
    for (const auto& [shape, field] : reference->fields()) {
      const auto it = pool->fields().find(shape);
      ASSERT_NE(it, pool->fields().end());
      for (size_t plane = 0; plane < field.k(); ++plane) {
        const auto got = it->second.plane(plane).Values();
        const auto want = field.plane(plane).Values();
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got[i], want[i])
              << "threads=" << threads << " plane=" << plane << " i=" << i;
        }
      }
    }
  }
}

TEST(SparsePoolTest, SparseQueriesStayComparableToDirectSketches) {
  // Canonical pool sketches of a sparse family must equal the single-tile
  // sketcher's output for the same window — the cross-producer invariant
  // that makes pools, saved sketch sets and on-demand sketching mutually
  // comparable within one family.
  const table::Matrix data = RandomTable(16, 16, 59);
  const core::SketchParams params{
      .p = 1.0, .k = 4, .seed = 61, .sparsity = 0.3};
  core::PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  auto pool = core::SketchPool::Build(data, params, options);
  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(pool.ok() && sketcher.ok());
  auto canonical = pool->CanonicalSketchAt(3, 5, 4, 4);
  ASSERT_TRUE(canonical.ok());
  const core::Sketch direct = sketcher->SketchOf(data.Window(3, 5, 4, 4));
  for (size_t i = 0; i < params.k; ++i) {
    EXPECT_NEAR(canonical->values[i], direct.values[i], 1e-9) << i;
  }
}

// --- (eps, delta) envelope on the swept guarantee grid ----------------------

/// Sparse counterpart of guarantees_test.cc's EpsilonDeltaGridTest: the same
/// coverage demand, swept over (p, sparsity). Li's analysis (DESIGN.md
/// Section 16) bounds the extra estimator noise of a sparsity-s family by
/// s^(-1/2) in the eps constant for data whose mass is spread over many
/// cells, so the demanded band is eps = C(p)/sqrt(k) * s^(-1/2). For the
/// spread-out random tables used here the empirical inflation is far
/// smaller; the test pins the guarantee, not the typical case.
class SparseEpsilonDeltaGridTest
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(SparseEpsilonDeltaGridTest, CoverageMeetsDelta) {
  const double p = std::get<0>(GetParam());
  const double sparsity = std::get<1>(GetParam());
  constexpr size_t kK = 400;
  const double c = (p < 0.75) ? 6.0 : 4.0;
  const double eps =
      c / std::sqrt(static_cast<double>(kK)) / std::sqrt(sparsity);
  constexpr int kTrials = 120;
  constexpr double kDelta = 0.15;  // 1 - delta = 85% demanded coverage

  rng::Xoshiro256 gen(2027);
  table::Matrix x(12, 12), y(12, 12);
  for (double& v : x.Values()) v = gen.NextDouble() * 100.0;
  for (double& v : y.Values()) v = gen.NextDouble() * 100.0;
  const double exact = core::LpDistance(x.View(), y.View(), p);

  int inside = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::SketchParams params{.p = p, .k = kK,
                              .seed = 7000 + static_cast<uint64_t>(trial),
                              .sparsity = sparsity};
    auto sketcher = core::Sketcher::Create(params);
    auto estimator = core::DistanceEstimator::Create(params);
    ASSERT_TRUE(sketcher.ok() && estimator.ok());
    const double approx = estimator->Estimate(
        sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
    if (std::fabs(approx / exact - 1.0) <= eps) ++inside;
  }
  EXPECT_GE(static_cast<double>(inside) / kTrials, 1.0 - kDelta)
      << "p=" << p << " sparsity=" << sparsity << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(
    PsGrid, SparseEpsilonDeltaGridTest,
    ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                       ::testing::Values(0.5, 0.1)),
    [](const auto& info) {
      const double p = std::get<0>(info.param);
      const double s = std::get<1>(info.param);
      std::string name = "p";
      name += (p == 0.5) ? "05" : (p == 1.0 ? "1" : "2");
      name += (s == 0.5) ? "s05" : "s01";
      return name;
    });

}  // namespace
}  // namespace tabsketch
