#include <gtest/gtest.h>

#include <limits>
#include <vector>

#include "core/knn.h"

namespace tabsketch::core {
namespace {

TEST(NeighborBeforeTest, IsStrictWeakOrderWithNaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const Neighbor real_a{1, 2.0};
  const Neighbor real_b{2, 3.0};
  const Neighbor nan_a{3, nan};
  const Neighbor nan_b{4, nan};

  // Irreflexivity, including on NaN (the old `a != b` test violated this).
  EXPECT_FALSE(NeighborBefore(real_a, real_a));
  EXPECT_FALSE(NeighborBefore(nan_a, nan_a));
  // NaN orders after every real distance, never before.
  EXPECT_TRUE(NeighborBefore(real_a, nan_a));
  EXPECT_FALSE(NeighborBefore(nan_a, real_a));
  // NaN vs NaN falls back to the index tie-break (asymmetric, total).
  EXPECT_TRUE(NeighborBefore(nan_a, nan_b));
  EXPECT_FALSE(NeighborBefore(nan_b, nan_a));
  // Real distances order as usual.
  EXPECT_TRUE(NeighborBefore(real_a, real_b));
  EXPECT_FALSE(NeighborBefore(real_b, real_a));
  // Equal distances tie-break by index.
  EXPECT_TRUE(NeighborBefore(Neighbor{0, 2.0}, Neighbor{5, 2.0}));
}

TEST(SmallestKNeighborsTest, NaNDistancesSortLastDeterministically) {
  // Regression: NaN distances used to break std::partial_sort's strict weak
  // ordering contract (UB — garbage results or a crash). They must now sort
  // after every real distance, with index tie-breaks keeping the output
  // deterministic.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<Neighbor> top = {
      {0, 4.0}, {1, nan}, {2, 1.0}, {3, nan}, {4, 2.0}, {5, nan}, {6, 3.0},
  };
  SmallestKNeighborsInPlace(&top, 6);
  ASSERT_EQ(top.size(), 6u);
  EXPECT_EQ(top[0].index, 2u);
  EXPECT_EQ(top[1].index, 4u);
  EXPECT_EQ(top[2].index, 6u);
  EXPECT_EQ(top[3].index, 0u);
  // The NaN tail is ordered by index.
  EXPECT_EQ(top[4].index, 1u);
  EXPECT_EQ(top[5].index, 3u);
}

}  // namespace
}  // namespace tabsketch::core
