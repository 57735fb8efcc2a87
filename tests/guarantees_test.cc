// Theorem-level and regression guarantees:
//   - the (eps, delta) accuracy guarantee of paper Theorems 1-2, verified
//     empirically over many independent sketch draws;
//   - golden values pinning the deterministic random-number pipeline, so
//     accidental changes to seeding/derivation (which would silently break
//     compatibility of persisted sketches) fail loudly;
//   - robustness of the binary readers and the batch-line parser against
//     corrupted and truncated input.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <tuple>
#include <vector>

#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/pool_io.h"
#include "core/sketch_io.h"
#include "core/sketch_pool.h"
#include "core/sketcher.h"
#include "core/stable_matrix.h"
#include "rng/splitmix64.h"
#include "rng/stable.h"
#include "rng/xoshiro256.h"
#include "serve/query_engine.h"
#include "table/matrix.h"
#include "table/table_io.h"

namespace tabsketch {
namespace {

/// Empirical (eps, delta) envelope of paper Theorems 1-2, swept over a
/// (p, k) grid: with k = c/eps^2 * log(1/delta) sketch components, the
/// median estimate is within (1 +- eps) of the exact Lp distance with
/// probability >= 1 - delta over the sketch's randomness. Inverting for
/// fixed k gives eps = C(p)/sqrt(k); the constant is larger for
/// heavy-tailed p (the |SaS(p)| density at its median shrinks as p -> 0,
/// inflating the median-estimator noise). Each grid cell draws many
/// independent sketch families (different seeds) for one fixed pair of
/// objects and counts how often the estimate lands in the band — so one
/// test run checks both the delta coverage at each k and the 1/sqrt(k)
/// scaling of the achievable eps across k.
class EpsilonDeltaGridTest
    : public ::testing::TestWithParam<std::tuple<double, size_t>> {};

TEST_P(EpsilonDeltaGridTest, CoverageMeetsDelta) {
  const double p = std::get<0>(GetParam());
  const size_t k = std::get<1>(GetParam());
  // Empirical noise constants: eps = C(p)/sqrt(k) holds the coverage level
  // across the whole k sweep. C ~ 4 for p >= 1, ~ 6 for p = 0.5.
  const double c = (p < 0.75) ? 6.0 : 4.0;
  const double eps = c / std::sqrt(static_cast<double>(k));
  constexpr int kTrials = 120;
  constexpr double kDelta = 0.15;  // 1 - delta = 85% demanded coverage

  rng::Xoshiro256 gen(2026);
  table::Matrix x(12, 12), y(12, 12);
  for (double& v : x.Values()) v = gen.NextDouble() * 100.0;
  for (double& v : y.Values()) v = gen.NextDouble() * 100.0;
  const double exact = core::LpDistance(x.View(), y.View(), p);

  int inside = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    core::SketchParams params{.p = p, .k = k,
                              .seed = 9000 + static_cast<uint64_t>(trial)};
    auto sketcher = core::Sketcher::Create(params);
    auto estimator = core::DistanceEstimator::Create(params);
    ASSERT_TRUE(sketcher.ok() && estimator.ok());
    const double approx = estimator->Estimate(
        sketcher->SketchOf(x.View()), sketcher->SketchOf(y.View()));
    if (std::fabs(approx / exact - 1.0) <= eps) ++inside;
  }
  // Binomial noise on 120 trials is ~ +-6.5 percentage points at this level;
  // the demanded coverage already absorbs it.
  EXPECT_GE(static_cast<double>(inside) / kTrials, 1.0 - kDelta)
      << "p=" << p << " k=" << k << " eps=" << eps;
}

INSTANTIATE_TEST_SUITE_P(PkGrid, EpsilonDeltaGridTest,
                         ::testing::Combine(::testing::Values(0.5, 1.0, 2.0),
                                            ::testing::Values(size_t{100},
                                                              size_t{400})),
                         [](const auto& info) {
                           const double p = std::get<0>(info.param);
                           const size_t k = std::get<1>(info.param);
                           std::string name = "p";
                           name += (p == 0.5) ? "05" : (p == 1.0 ? "1" : "2");
                           name += 'k';
                           name += std::to_string(k);
                           return name;
                         });

/// Theorem 5's dyadic guarantee, swept over rectangle shapes and anchors:
/// a compound (four-corner) sketch of an arbitrary rectangle behaves like a
/// canonical sketch of the folded rectangle, so the estimated distance
/// between two equal-shape compound sketches lands in a 4(1 +- eps)-style
/// band around the exact Lp distance. Overlap cells are counted 1, 2 or 4
/// times, which bounds the inflation at 4 (up to 4^(1/p) for p < 1, where
/// sign cancellation in the fold can also deflate the ratio below 1). The
/// sweep exercises canonical sizes from 8x8 up to 16x16 with multiple
/// disjoint anchor pairs per shape.
class DyadicFactorSweepTest : public ::testing::TestWithParam<double> {};

TEST_P(DyadicFactorSweepTest, RatioWithinTheoremFiveBandAcrossShapes) {
  const double p = GetParam();
  rng::Xoshiro256 gen(77);
  table::Matrix data(64, 64);
  for (double& v : data.Values()) v = gen.NextDouble() * 50.0;

  core::SketchParams params{.p = p, .k = 256, .seed = 11};
  core::PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  auto pool = core::SketchPool::Build(data, params, options);
  auto estimator = core::DistanceEstimator::Create(params);
  ASSERT_TRUE(pool.ok() && estimator.ok());

  struct Rect { size_t rows, cols; };
  struct AnchorPair { size_t ar, ac, br, bc; };
  const Rect kShapes[] = {{11, 13}, {9, 20}, {16, 16}, {24, 10}};
  const AnchorPair kAnchors[] = {{1, 2, 38, 35}, {20, 3, 5, 44},
                                 {33, 28, 0, 0}};
  // Bands include estimator noise at k = 256 and, versus the single-
  // rectangle check in pool_test.cc, the wider empirical tail of a 12-cell
  // sweep: partial cancellation in the folded difference can pull p >= 1
  // ratios modestly below 1 for unlucky shape/anchor combinations.
  const double lower = (p < 1.0) ? 0.15 : 0.5;
  const double upper = (p < 1.0) ? 6.0 : 5.0;

  for (const Rect& shape : kShapes) {
    for (const AnchorPair& anchors : kAnchors) {
      ASSERT_LE(anchors.ar + shape.rows, data.rows());
      ASSERT_LE(anchors.br + shape.rows, data.rows());
      ASSERT_LE(anchors.ac + shape.cols, data.cols());
      ASSERT_LE(anchors.bc + shape.cols, data.cols());
      auto sa = pool->Query(anchors.ar, anchors.ac, shape.rows, shape.cols);
      auto sb = pool->Query(anchors.br, anchors.bc, shape.rows, shape.cols);
      ASSERT_TRUE(sa.ok() && sb.ok());
      const double approx = estimator->Estimate(*sa, *sb);
      const double exact = core::LpDistance(
          data.Window(anchors.ar, anchors.ac, shape.rows, shape.cols),
          data.Window(anchors.br, anchors.bc, shape.rows, shape.cols), p);
      ASSERT_GT(exact, 0.0);
      const double ratio = approx / exact;
      EXPECT_GT(ratio, lower) << "p=" << p << " shape=" << shape.rows << "x"
                              << shape.cols << " anchors=(" << anchors.ar
                              << "," << anchors.ac << ")/(" << anchors.br
                              << "," << anchors.bc << ")";
      EXPECT_LT(ratio, upper) << "p=" << p << " shape=" << shape.rows << "x"
                              << shape.cols << " anchors=(" << anchors.ar
                              << "," << anchors.ac << ")/(" << anchors.br
                              << "," << anchors.bc << ")";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ps, DyadicFactorSweepTest,
                         ::testing::Values(0.5, 1.0, 2.0));

TEST(GoldenValuesTest, SeedDerivationPipelineIsStable) {
  // These pin the persisted-sketch compatibility contract: if any of them
  // changes, previously saved sketch sets and pools are silently
  // incompatible with newly computed sketches. Bump the sketch-file format
  // version if a change is ever intentional.
  EXPECT_EQ(rng::Mix64(42), 13679457532755275413ULL);
  EXPECT_EQ(rng::MixSeeds(1, 2), 15039531164227991741ULL);
  EXPECT_DOUBLE_EQ(rng::SampleStableAt(1.0, 7), -5.6916814179475681);
  EXPECT_DOUBLE_EQ(rng::SampleStableAt(2.0, 7), 1.1308649617728408);
  EXPECT_DOUBLE_EQ(rng::SampleStableAt(0.5, 7), -9.3463490772798288);

  core::SketchParams params{.p = 1.0, .k = 4, .seed = 123};
  EXPECT_DOUBLE_EQ(core::StableRandomMatrix(params, 1, 3, 3).At(1, 2),
                   6.8965956471859728);

  auto sketcher = core::Sketcher::Create(params);
  ASSERT_TRUE(sketcher.ok());
  table::Matrix m(2, 2, {1.0, 2.0, 3.0, 4.0});
  const core::Sketch sketch = sketcher->SketchOf(m.View());
  ASSERT_EQ(sketch.size(), 4u);
  EXPECT_DOUBLE_EQ(sketch.values[0], 16.029565440631128);
  EXPECT_DOUBLE_EQ(sketch.values[1], 2.8723239132582776);
  EXPECT_DOUBLE_EQ(sketch.values[2], -20.026351346144452);
  EXPECT_DOUBLE_EQ(sketch.values[3], -23.292189934607549);
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::vector<char> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One seeded corruption round: XORs 1-4 random bytes of `bytes` with
/// nonzero masks.
template <typename Bytes>
void FlipRandomBytes(Bytes* bytes, rng::Xoshiro256* fuzz) {
  const size_t flips = 1 + fuzz->NextBounded(4);
  for (size_t f = 0; f < flips; ++f) {
    (*bytes)[fuzz->NextBounded(bytes->size())] ^=
        static_cast<char>(1 + fuzz->NextBounded(255));
  }
}

TEST(CorruptionRobustnessTest, TableReaderNeverCrashes) {
  const std::string path = TempPath("fuzz_table.tbl");
  table::Matrix m(6, 7);
  rng::Xoshiro256 gen(3);
  for (double& v : m.Values()) v = gen.NextDouble();
  ASSERT_TRUE(table::WriteBinary(m, path).ok());
  const std::vector<char> pristine = ReadAll(path);

  rng::Xoshiro256 fuzz(99);
  for (int round = 0; round < 60; ++round) {
    std::vector<char> corrupted = pristine;
    FlipRandomBytes(&corrupted, &fuzz);
    WriteAll(path, corrupted);
    auto loaded = table::ReadBinary(path);
    // Must not crash; on success the shape must be internally consistent.
    if (loaded.ok()) {
      EXPECT_EQ(loaded->size(), loaded->rows() * loaded->cols());
    }
  }
  // Every proper prefix of the file is an error, never a crash.
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    WriteAll(path,
             std::vector<char>(pristine.begin(), pristine.begin() + keep));
    EXPECT_FALSE(table::ReadBinary(path).ok()) << "kept " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(CorruptionRobustnessTest, SketchSetReaderNeverCrashes) {
  const std::string path = TempPath("fuzz_sketches.bin");
  core::SketchSet set;
  set.params = {.p = 0.5, .k = 8, .seed = 4};
  set.object_rows = 4;
  set.object_cols = 4;
  rng::Xoshiro256 gen(5);
  for (int i = 0; i < 6; ++i) {
    core::Sketch sketch;
    sketch.values.resize(8);
    for (double& v : sketch.values) v = gen.NextDouble();
    set.sketches.push_back(std::move(sketch));
  }
  ASSERT_TRUE(core::WriteSketchSet(set, path).ok());
  const std::vector<char> pristine = ReadAll(path);

  rng::Xoshiro256 fuzz(101);
  for (int round = 0; round < 60; ++round) {
    std::vector<char> corrupted = pristine;
    FlipRandomBytes(&corrupted, &fuzz);
    WriteAll(path, corrupted);
    auto loaded = core::ReadSketchSet(path);
    if (loaded.ok()) {
      for (const core::Sketch& sketch : loaded->sketches) {
        EXPECT_EQ(sketch.size(), loaded->params.k);
      }
    }
  }
  for (size_t keep = 0; keep < pristine.size(); ++keep) {
    WriteAll(path,
             std::vector<char>(pristine.begin(), pristine.begin() + keep));
    EXPECT_FALSE(core::ReadSketchSet(path).ok())
        << "kept " << keep << " bytes";
  }
  std::remove(path.c_str());
}

TEST(CorruptionRobustnessTest, PoolReaderNeverCrashes) {
  // Both pool format versions, from the golden fixtures: seeded byte flips
  // (a flipped k, field count or field dimension must not reach an
  // allocation) and every truncation.
  const std::string path = TempPath("fuzz_pool.pool");
  rng::Xoshiro256 fuzz(103);
  for (const char* name : {"pool_v1.pool", "pool_v2.pool"}) {
    const std::vector<char> pristine =
        ReadAll(std::string(TABSKETCH_TEST_GOLDEN_DIR) + "/" + name);
    ASSERT_FALSE(pristine.empty()) << name;
    for (int round = 0; round < 400; ++round) {
      std::vector<char> corrupted = pristine;
      FlipRandomBytes(&corrupted, &fuzz);
      WriteAll(path, corrupted);
      auto loaded = core::ReadSketchPool(path);
      if (!loaded.ok()) continue;
      // A pool that loads must be internally consistent: k planes per field,
      // each spanning every position of its window over the table.
      for (const auto& [window, field] : loaded->fields()) {
        ASSERT_EQ(field.k(), loaded->params().k) << name;
        for (size_t i = 0; i < field.k(); ++i) {
          EXPECT_EQ(field.plane(i).rows(),
                    loaded->data_rows() - window.first + 1);
          EXPECT_EQ(field.plane(i).cols(),
                    loaded->data_cols() - window.second + 1);
        }
      }
    }
    for (size_t keep = 0; keep < pristine.size(); ++keep) {
      WriteAll(path,
               std::vector<char>(pristine.begin(), pristine.begin() + keep));
      EXPECT_FALSE(core::ReadSketchPool(path).ok())
          << name << " kept " << keep << " bytes";
    }
  }
  std::remove(path.c_str());
}

TEST(CorruptionRobustnessTest, BatchLineParserNeverCrashes) {
  // Seeded byte flips of valid request lines: every result is a request, a
  // skipped (blank or comment) line, or an InvalidArgument with the line
  // number.
  const std::string valid[] = {"distance 3 17", "knn 5 4",
                               "  knn 12 3   # nearest three",
                               "distance 0 0\r", "knn 18446744073709551615 1"};
  rng::Xoshiro256 fuzz(107);
  for (int round = 0; round < 2000; ++round) {
    std::string line = valid[fuzz.NextBounded(std::size(valid))];
    FlipRandomBytes(&line, &fuzz);
    auto parsed = serve::ParseBatchLine(line, 7);
    if (parsed.ok()) continue;
    EXPECT_EQ(parsed.status().code(), util::StatusCode::kInvalidArgument)
        << parsed.status().ToString();
    EXPECT_NE(parsed.status().ToString().find("line 7"), std::string::npos)
        << parsed.status().ToString();
  }
}

}  // namespace
}  // namespace tabsketch
