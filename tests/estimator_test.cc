#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

#include "core/code_kernels.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

TEST(EstimatorTest, AutoResolvesToL2ForPTwo) {
  auto estimator = DistanceEstimator::Create({.p = 2.0, .k = 16, .seed = 1});
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(estimator->kind(), EstimatorKind::kL2);
  EXPECT_DOUBLE_EQ(estimator->scale(), 1.0);
}

TEST(EstimatorTest, AutoResolvesToMedianOtherwise) {
  auto estimator = DistanceEstimator::Create({.p = 1.0, .k = 16, .seed = 1});
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(estimator->kind(), EstimatorKind::kMedian);
  EXPECT_DOUBLE_EQ(estimator->scale(), 1.0);  // B(1) = 1
}

TEST(EstimatorTest, L2KindRejectedForOtherP) {
  auto estimator = DistanceEstimator::Create({.p = 1.0, .k = 16, .seed = 1},
                                             EstimatorKind::kL2);
  EXPECT_FALSE(estimator.ok());
  EXPECT_EQ(estimator.status().code(), util::StatusCode::kInvalidArgument);
}

TEST(EstimatorTest, MedianKindAllowedForPTwo) {
  auto estimator = DistanceEstimator::Create({.p = 2.0, .k = 16, .seed = 1},
                                             EstimatorKind::kMedian);
  ASSERT_TRUE(estimator.ok());
  EXPECT_EQ(estimator->kind(), EstimatorKind::kMedian);
  EXPECT_NEAR(estimator->scale(), 0.6744897501960817, 1e-12);
}

TEST(EstimatorTest, RejectsInvalidParams) {
  EXPECT_FALSE(DistanceEstimator::Create({.p = 3.0, .k = 16, .seed = 1}).ok());
  EXPECT_FALSE(DistanceEstimator::Create({.p = 1.0, .k = 0, .seed = 1}).ok());
}

TEST(EstimatorTest, L2EstimateHandComputed) {
  auto estimator = DistanceEstimator::Create({.p = 2.0, .k = 4, .seed = 1});
  ASSERT_TRUE(estimator.ok());
  const std::vector<double> a = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> b = {1.0, 2.0, 3.0, 0.0};
  // ||a-b||_2 / sqrt(4) = 4 / 2 = 2.
  EXPECT_DOUBLE_EQ(estimator->Estimate(a, b), 2.0);
}

TEST(EstimatorTest, MedianEstimateHandComputed) {
  auto estimator = DistanceEstimator::Create({.p = 1.0, .k = 3, .seed = 1});
  ASSERT_TRUE(estimator.ok());
  const std::vector<double> a = {5.0, 0.0, 2.0};
  const std::vector<double> b = {1.0, 1.0, 0.0};
  // |diffs| = {4, 1, 2}; median = 2; B(1) = 1.
  EXPECT_DOUBLE_EQ(estimator->Estimate(a, b), 2.0);
}

TEST(EstimatorTest, IdenticalSketchesGiveZero) {
  for (double p : {0.5, 1.0, 2.0}) {
    auto estimator = DistanceEstimator::Create({.p = p, .k = 8, .seed = 1});
    ASSERT_TRUE(estimator.ok());
    const std::vector<double> a = {1.0, -2.0, 3.5, 0.0, 9.0, -1.0, 4.0, 2.0};
    EXPECT_DOUBLE_EQ(estimator->Estimate(a, a), 0.0) << "p=" << p;
  }
}

TEST(EstimatorTest, ScratchReuseMatchesFreshScratch) {
  auto estimator = DistanceEstimator::Create({.p = 0.5, .k = 64, .seed = 3});
  ASSERT_TRUE(estimator.ok());
  rng::Xoshiro256 gen(9);
  std::vector<double> scratch;
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<double> a(64), b(64);
    for (auto& v : a) v = gen.NextDouble();
    for (auto& v : b) v = gen.NextDouble();
    EXPECT_DOUBLE_EQ(estimator->EstimateWithScratch(a, b, &scratch),
                     estimator->Estimate(a, b));
  }
}

TEST(EstimatorTest, L2AndMedianAgreeOnPTwoSketches) {
  // Both estimators are consistent for p=2; with a large k they should land
  // near each other and near the exact distance.
  SketchParams params{.p = 2.0, .k = 600, .seed = 77};
  auto sketcher = Sketcher::Create(params);
  auto l2 = DistanceEstimator::Create(params, EstimatorKind::kL2);
  auto median = DistanceEstimator::Create(params, EstimatorKind::kMedian);
  ASSERT_TRUE(sketcher.ok() && l2.ok() && median.ok());

  rng::Xoshiro256 gen(5);
  table::Matrix x(8, 8), y(8, 8);
  for (double& v : x.Values()) v = gen.NextDouble() * 10.0;
  for (double& v : y.Values()) v = gen.NextDouble() * 10.0;
  const double exact = LpDistance(x.View(), y.View(), 2.0);
  const Sketch sx = sketcher->SketchOf(x.View());
  const Sketch sy = sketcher->SketchOf(y.View());
  EXPECT_NEAR(l2->Estimate(sx, sy) / exact, 1.0, 0.15);
  EXPECT_NEAR(median->Estimate(sx, sy) / exact, 1.0, 0.15);
}

// --- Rejection by count ----------------------------------------------------
//
// ProvablyGreater may only say "greater" when the full estimate is strictly
// greater than the bound. The median runs at p = 0.5 and 1; at p = 2 the L2
// estimator never rejects.

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kMinNormal = std::numeric_limits<double>::min();
constexpr double kMax = std::numeric_limits<double>::max();
constexpr double kDenormMin = std::numeric_limits<double>::denorm_min();

double NaNWithPayload(uint64_t bits) { return std::bit_cast<double>(bits); }

/// Every bound the sweep tries against an estimate `e` whose |Δᵢ|, divided
/// by `scale`, sit in `sorted_over_scale` (ascending): the estimate itself
/// and its neighbours, the middle order statistics and theirs, and the
/// special values.
std::vector<double> BoundsAround(double e,
                                 const std::vector<double>& sorted_over_scale) {
  std::vector<double> bounds = {0.0,        -0.0,  kDenormMin, kMinNormal / 2,
                                kMinNormal, 1.0,   1e300,      kMax,
                                kInf,       -kInf, std::nan("")};
  std::vector<double> anchors = {e};
  const size_t k = sorted_over_scale.size();
  for (size_t i : {(k - 1) / 2, k / 2, k - k / 2 - 1}) {
    anchors.push_back(sorted_over_scale[i]);
  }
  for (const double anchor : anchors) {
    for (const double factor :
         {1.0, 1.0 - 1e-7, 1.0 - 1e-6, 1.0 - 1e-5, 1.0 + 1e-6, 0.5, 2.0}) {
      const double bound = anchor * factor;
      bounds.push_back(bound);
      bounds.push_back(std::nextafter(bound, 0.0));
      bounds.push_back(std::nextafter(bound, kInf));
    }
  }
  return bounds;
}

/// One random sketch component: mostly Cauchy-like heavy tails at a random
/// magnitude, sometimes a special value.
double RandomComponent(rng::Xoshiro256& gen, double magnitude, bool special) {
  if (special) {
    switch (gen.NextBounded(12)) {
      case 0: return 0.0;
      case 1: return -0.0;
      case 2: return kInf;
      case 3: return -kInf;
      case 4: return NaNWithPayload(0x7ff8000000000001ULL);
      case 5: return NaNWithPayload(0xfff8000000000abcULL);
      case 6: return kMax;
      case 7: return -kMax;
      case 8: return kDenormMin;
      case 9: return -kMinNormal;
      case 10: return 1e300;
      default: break;
    }
  }
  return magnitude * std::tan(3.14159265358979 * (gen.NextDouble() - 0.5));
}

TEST(CountRejectionTest, NeverRejectsAnEstimateAtOrBelowTheBound) {
  for (const double p : {0.5, 1.0, 2.0}) {
    for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                           size_t{256}}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " k=" << k);
      auto estimator =
          DistanceEstimator::Create({.p = p, .k = k, .seed = 1});
      ASSERT_TRUE(estimator.ok());
      EXPECT_EQ(estimator->kind(),
                p == 2.0 ? EstimatorKind::kL2 : EstimatorKind::kMedian);
      rng::Xoshiro256 gen(static_cast<uint64_t>(p * 1000) + k);
      std::vector<double> scratch;
      size_t rejected = 0;
      for (int trial = 0; trial < 300; ++trial) {
        // A third of the pairs carry special values in some components.
        const bool special = trial % 3 == 0;
        const double magnitude =
            std::ldexp(1.0, static_cast<int>(gen.NextBounded(80)) - 40);
        std::vector<double> a(k), b(k);
        for (size_t i = 0; i < k; ++i) {
          const bool patch = special && gen.NextBounded(8) == 0;
          a[i] = RandomComponent(gen, magnitude, patch);
          b[i] = trial % 5 == 1 ? a[i]
                                : RandomComponent(gen, magnitude, patch);
        }
        const double e = estimator->EstimateWithScratch(a, b, &scratch);
        // The bound anchors; a NaN difference anchors at +inf, so the sort
        // sees no NaN.
        std::vector<double> sorted(k);
        for (size_t i = 0; i < k; ++i) {
          const double d = std::fabs(a[i] - b[i]) / estimator->scale();
          sorted[i] = std::isnan(d) ? kInf : d;
        }
        std::sort(sorted.begin(), sorted.end());
        for (const double bound : BoundsAround(e, sorted)) {
          if (estimator->ProvablyGreater(a, b, bound)) {
            ++rejected;
            EXPECT_GT(e, bound) << "trial " << trial;
          }
        }
      }
      // The sweep exercises the count, not only its refusals.
      if (estimator->kind() == EstimatorKind::kL2) {
        EXPECT_EQ(rejected, 0u);
      } else {
        EXPECT_GT(rejected, 100u);
      }
    }
  }
}

TEST(CountRejectionTest, RejectsOnceMoreThanHalfExceedTheBound) {
  // Finite, distinct |Δᵢ|: the count is tight at the smallest of the k/2 + 1
  // largest differences (the lower middle for even k, the median for odd k).
  for (const double p : {0.5, 1.0}) {
    for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                           size_t{256}}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " k=" << k);
      auto estimator =
          DistanceEstimator::Create({.p = p, .k = k, .seed = 1});
      ASSERT_TRUE(estimator.ok());
      rng::Xoshiro256 gen(k * 7 + 3);
      for (int trial = 0; trial < 50; ++trial) {
        std::vector<double> a(k), b(k, 0.0);
        for (double& v : a) v = RandomComponent(gen, 1.0, false);
        const double e = estimator->Estimate(a, b);
        std::vector<double> sorted(k);
        for (size_t i = 0; i < k; ++i) sorted[i] = std::fabs(a[i]);
        std::sort(sorted.begin(), sorted.end());
        const double tight = sorted[k - k / 2 - 1] / estimator->scale();
        EXPECT_TRUE(estimator->ProvablyGreater(a, b, tight * (1.0 - 1e-5)));
        EXPECT_FALSE(estimator->ProvablyGreater(a, b, tight));
        EXPECT_FALSE(estimator->ProvablyGreater(a, b, e));
      }
    }
  }
}

TEST(CountRejectionTest, EqualEstimateAndDifferencesAtTheBoundStay) {
  // B(1) = 1: every |Δᵢ| is the bound, so the estimate equals it.
  auto median = DistanceEstimator::Create({.p = 1.0, .k = 3, .seed = 1});
  ASSERT_TRUE(median.ok());
  const std::vector<double> two = {2.0, -2.0, 2.0};
  const std::vector<double> zero3 = {0.0, 0.0, 0.0};
  EXPECT_EQ(median->Estimate(two, zero3), 2.0);
  EXPECT_FALSE(median->ProvablyGreater(two, zero3, 2.0));
  EXPECT_TRUE(median->ProvablyGreater(two, zero3, 1.9));
  // |Δᵢ| exactly at the padded threshold is not above it.
  const double padded = 2.0 * kSlackSafety;
  const std::vector<double> at_pad = {padded, padded, padded};
  EXPECT_GT(median->Estimate(at_pad, zero3), 2.0);
  EXPECT_FALSE(median->ProvablyGreater(at_pad, zero3, 2.0));
  EXPECT_TRUE(median->ProvablyGreater(
      at_pad, zero3, std::nextafter(2.0, 0.0) / kSlackSafety / 1.0001));
  // Two of three above is more than half; one of three is not.
  const std::vector<double> two_of_three = {5.0, 0.0, 5.0};
  const std::vector<double> one_of_three = {5.0, 0.0, 0.0};
  EXPECT_TRUE(median->ProvablyGreater(two_of_three, zero3, 1.0));
  EXPECT_FALSE(median->ProvablyGreater(one_of_three, zero3, 1.0));
}

TEST(CountRejectionTest, ZeroSubnormalInfiniteAndNaNBoundsNeverReject) {
  const std::vector<double> far = {1e10, -1e10, 1e10};
  const std::vector<double> zero = {0.0, -0.0, 0.0};
  for (const double p : {0.5, 1.0}) {
    SCOPED_TRACE(p);
    auto estimator = DistanceEstimator::Create({.p = p, .k = 3, .seed = 1});
    ASSERT_TRUE(estimator.ok());
    for (const double bound : {0.0, -0.0, kDenormMin, kMinNormal / 2,
                               kMinNormal * 0.999, kInf, std::nan("")}) {
      EXPECT_FALSE(estimator->ProvablyGreater(far, zero, bound)) << bound;
    }
    // A tiny bound can reject once bound · B(p) is normal. So can a huge one
    // when the differences overflow to +inf.
    const double tiny = 2.0 * kMinNormal / estimator->scale();
    EXPECT_TRUE(estimator->ProvablyGreater(far, zero, tiny));
    EXPECT_FALSE(estimator->ProvablyGreater(far, zero, tiny / 16));
    const std::vector<double> top = {kMax, kMax, kMax};
    const std::vector<double> bottom = {-kMax, -kMax, -kMax};
    EXPECT_TRUE(estimator->ProvablyGreater(top, bottom, 1e100));
    EXPECT_GT(estimator->Estimate(top, bottom), 1e100);
    // A bound whose padded threshold overflows decides nothing.
    EXPECT_FALSE(estimator->ProvablyGreater(top, bottom, kMax));
    // ±0 differences are zero.
    const std::vector<double> signed_zero = {-0.0, 0.0, -0.0};
    EXPECT_FALSE(estimator->ProvablyGreater(zero, signed_zero, 1.0));
  }
}

TEST(CountRejectionTest, L2EstimatorNeverRejects) {
  // At p = 2 the full estimate is one O(k) sum with no selection to skip, so
  // there is nothing for a count to save: every bound decides nothing.
  for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                         size_t{256}}) {
    SCOPED_TRACE(k);
    auto l2 = DistanceEstimator::Create({.p = 2.0, .k = k, .seed = 1});
    ASSERT_TRUE(l2.ok());
    ASSERT_EQ(l2->kind(), EstimatorKind::kL2);
    const std::vector<double> far(k, 1e10);
    const std::vector<double> zero(k, 0.0);
    EXPECT_GT(l2->Estimate(far, zero), 1.0);
    for (const double bound : {kMinNormal, 1.0, 1e9}) {
      EXPECT_FALSE(l2->ProvablyGreater(far, zero, bound)) << bound;
    }
  }
}

TEST(CountRejectionTest, NaNDifferenceAlwaysGetsTheFullEstimate) {
  const double nan_a = NaNWithPayload(0x7ff8000000000001ULL);
  const double nan_b = NaNWithPayload(0xfff80000deadbeefULL);
  for (const double p : {0.5, 1.0}) {
    for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{64},
                           size_t{256}}) {
      SCOPED_TRACE(testing::Message() << "p=" << p << " k=" << k);
      auto estimator =
          DistanceEstimator::Create({.p = p, .k = k, .seed = 1});
      ASSERT_TRUE(estimator.ok());
      const std::vector<double> zero(k, 0.0);
      for (const size_t at : {size_t{0}, k / 2, k - 1}) {
        for (const double nan : {nan_a, nan_b}) {
          // Every other difference is huge, so only the NaN can stop it.
          std::vector<double> a(k, 1e200);
          a[at] = nan;
          EXPECT_FALSE(estimator->ProvablyGreater(a, zero, 1.0)) << at;
          // inf − inf is NaN too.
          std::vector<double> inf(k, kInf);
          std::vector<double> b = zero;
          b[at] = kInf;
          EXPECT_FALSE(estimator->ProvablyGreater(inf, b, 1.0)) << at;
          if (k > 1) {
            b[at] = 0.0;
            EXPECT_TRUE(estimator->ProvablyGreater(inf, b, 1.0)) << at;
          }
        }
      }
    }
  }
}

TEST(CountRejectionTest, DispatchedCountMatchesPlainCount) {
  // The AVX2 count runs four components a step and the rest in a tail, so
  // each k puts the specials in the vector body, the tail or both.
  const double nan = NaNWithPayload(0x7ff8000000000001ULL);
  const std::vector<double> thresholds = {
      0.0, -0.0, kDenormMin, kMinNormal / 2, kMinNormal, 1.0, 1e300, kInf};
  for (const size_t k : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                         size_t{5}, size_t{7}, size_t{64}, size_t{256}}) {
    SCOPED_TRACE(k);
    rng::Xoshiro256 gen(k * 11 + 5);
    for (int trial = 0; trial < 200; ++trial) {
      std::vector<double> a(k), b(k);
      const double magnitude =
          std::ldexp(1.0, static_cast<int>(gen.NextBounded(80)) - 40);
      for (size_t i = 0; i < k; ++i) {
        const bool special = trial % 2 == 0 && gen.NextBounded(4) == 0;
        a[i] = RandomComponent(gen, magnitude, special);
        b[i] = trial % 5 == 1 ? a[i] : RandomComponent(gen, magnitude, special);
      }
      if (trial % 7 == 3) a[gen.NextBounded(k)] = nan;  // body or tail
      const double drawn = magnitude * gen.NextDouble();
      for (const double threshold : {drawn, thresholds[trial % 8]}) {
        EXPECT_EQ(kernels::CountAbove(a.data(), b.data(), k, threshold),
                  kernels::scalar::CountAbove(a.data(), b.data(), k,
                                              threshold))
            << "trial " << trial << " threshold " << threshold;
      }
    }
    // ±0 differences, and ±inf ones against every threshold.
    const std::vector<double> zeros(k, 0.0);
    std::vector<double> signed_zeros(k), infs(k);
    for (size_t i = 0; i < k; ++i) {
      signed_zeros[i] = i % 2 == 0 ? -0.0 : 0.0;
      infs[i] = i % 3 == 0 ? -kInf : kInf;
    }
    for (const double threshold : thresholds) {
      EXPECT_EQ(kernels::CountAbove(zeros.data(), signed_zeros.data(), k,
                                    threshold),
                kernels::scalar::CountAbove(zeros.data(), signed_zeros.data(),
                                            k, threshold));
      EXPECT_EQ(kernels::CountAbove(infs.data(), zeros.data(), k, threshold),
                kernels::scalar::CountAbove(infs.data(), zeros.data(), k,
                                            threshold));
    }
    // One NaN anywhere, in the vector body or the tail, means no count.
    for (size_t at = 0; at < k; ++at) {
      std::vector<double> a(k, 1e10);
      a[at] = nan;
      EXPECT_EQ(kernels::CountAbove(a.data(), zeros.data(), k, 1.0),
                std::nullopt)
          << at;
      EXPECT_EQ(kernels::scalar::CountAbove(a.data(), zeros.data(), k, 1.0),
                std::nullopt)
          << at;
    }
  }
}

TEST(EstimatorDeathTest, MismatchedSketchSizesAbort) {
  auto estimator = DistanceEstimator::Create({.p = 1.0, .k = 4, .seed = 1});
  ASSERT_TRUE(estimator.ok());
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0, 2.0, 3.0};
  EXPECT_DEATH(estimator->Estimate(a, b), "mismatched");
}

}  // namespace
}  // namespace tabsketch::core
