#include <gtest/gtest.h>

#include <vector>

#include "eval/rand_index.h"
#include "rng/xoshiro256.h"

namespace tabsketch {
namespace {

using eval::AdjustedRandIndex;
using eval::RandIndex;

TEST(RandIndexTest, IdenticalClusterings) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  EXPECT_DOUBLE_EQ(RandIndex(a, a), 1.0);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, a), 1.0);
}

TEST(RandIndexTest, LabelPermutationInvariant) {
  const std::vector<int> a = {0, 0, 1, 1, 2, 2};
  const std::vector<int> b = {2, 2, 0, 0, 1, 1};
  EXPECT_DOUBLE_EQ(RandIndex(a, b), 1.0);
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, b), 1.0);
}

TEST(RandIndexTest, HandComputedExample) {
  // a: {0,1}{2,3}; b: {0,1,2}{3}. Pairs: (01) together/together agree,
  // (23) together/apart disagree, (02),(12) apart/together disagree,
  // (03),(13) apart/apart agree. Agreements 3 of 6.
  const std::vector<int> a = {0, 0, 1, 1};
  const std::vector<int> b = {0, 0, 0, 1};
  EXPECT_DOUBLE_EQ(RandIndex(a, b), 0.5);
}

TEST(RandIndexTest, SkipsUnassigned) {
  const std::vector<int> a = {0, 0, 1, 1, -1};
  const std::vector<int> b = {0, 0, 1, 1, 0};
  EXPECT_DOUBLE_EQ(RandIndex(a, b), 1.0);
}

TEST(RandIndexTest, AdjustedNearZeroForIndependentClusterings) {
  rng::Xoshiro256 gen(7);
  std::vector<int> a(600), b(600);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int>(gen.NextBounded(4));
    b[i] = static_cast<int>(gen.NextBounded(4));
  }
  // The plain Rand index of independent clusterings is far above 0...
  EXPECT_GT(RandIndex(a, b), 0.5);
  // ...while the adjusted index is ~0.
  EXPECT_NEAR(AdjustedRandIndex(a, b), 0.0, 0.05);
}

TEST(RandIndexTest, AdjustedDetectsPartialStructure) {
  // b equals a with a quarter of the labels randomized: ARI should sit
  // clearly between 0 and 1.
  rng::Xoshiro256 gen(11);
  std::vector<int> a(400), b(400);
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<int>(gen.NextBounded(4));
    b[i] = (i % 4 == 0) ? static_cast<int>(gen.NextBounded(4)) : a[i];
  }
  const double ari = AdjustedRandIndex(a, b);
  EXPECT_GT(ari, 0.4);
  EXPECT_LT(ari, 0.95);
}

TEST(RandIndexTest, DegenerateSingleClusterConvention) {
  const std::vector<int> a = {0, 0, 0};
  EXPECT_DOUBLE_EQ(AdjustedRandIndex(a, a), 1.0);
}

}  // namespace
}  // namespace tabsketch
