#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/lp_distance.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

TEST(LpDistanceTest, L1KnownValue) {
  const std::vector<double> a = {1.0, 2.0, 3.0};
  const std::vector<double> b = {4.0, 0.0, 3.0};
  EXPECT_DOUBLE_EQ(LpDistance(a, b, 1.0), 5.0);
}

TEST(LpDistanceTest, L2KnownValue) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {3.0, 4.0};
  EXPECT_DOUBLE_EQ(LpDistance(a, b, 2.0), 5.0);
}

TEST(LpDistanceTest, FractionalPKnownValue) {
  const std::vector<double> a = {0.0, 0.0};
  const std::vector<double> b = {1.0, 4.0};
  // (1^0.5 + 4^0.5)^2 = (1 + 2)^2 = 9.
  EXPECT_NEAR(LpDistance(a, b, 0.5), 9.0, 1e-12);
}

TEST(LpDistanceTest, ZeroForIdenticalVectors) {
  const std::vector<double> a = {1.5, -2.5, 3.75};
  for (double p : {0.25, 0.5, 1.0, 1.5, 2.0}) {
    EXPECT_DOUBLE_EQ(LpDistance(a, a, p), 0.0) << "p=" << p;
  }
}

TEST(LpDistanceTest, SymmetricInArguments) {
  const std::vector<double> a = {1.0, -2.0, 0.5};
  const std::vector<double> b = {-1.0, 3.0, 2.5};
  for (double p : {0.25, 0.5, 1.0, 1.3, 2.0}) {
    EXPECT_DOUBLE_EQ(LpDistance(a, b, p), LpDistance(b, a, p)) << "p=" << p;
  }
}

TEST(LpDistanceTest, TriangleInequalityHoldsForPGeqOne) {
  const std::vector<double> x = {0.0, 1.0, -2.0};
  const std::vector<double> y = {3.0, -1.0, 0.5};
  const std::vector<double> z = {-2.0, 4.0, 1.0};
  for (double p : {1.0, 1.5, 2.0}) {
    EXPECT_LE(LpDistance(x, z, p),
              LpDistance(x, y, p) + LpDistance(y, z, p) + 1e-12)
        << "p=" << p;
  }
}

TEST(LpDistanceTest, TriangleInequalityCanFailForPBelowOne) {
  // The textbook counterexample: for p < 1 the unit "ball" is concave.
  const std::vector<double> x = {0.0, 0.0};
  const std::vector<double> y = {1.0, 0.0};
  const std::vector<double> z = {1.0, 1.0};
  const double p = 0.5;
  EXPECT_GT(LpDistance(x, z, p),
            LpDistance(x, y, p) + LpDistance(y, z, p));
}

TEST(LpDistanceTest, SmallerPDiscountsOutliers) {
  // One large outlier coordinate vs many small differences: under L2 the
  // outlier pair is farther, under L0.5 the diffuse pair is farther.
  const std::vector<double> base(16, 0.0);
  std::vector<double> outlier(16, 0.0);
  outlier[0] = 10.0;
  std::vector<double> diffuse(16, 1.2);
  EXPECT_GT(LpDistance(base, outlier, 2.0), LpDistance(base, diffuse, 2.0));
  EXPECT_LT(LpDistance(base, outlier, 0.5), LpDistance(base, diffuse, 0.5));
}

TEST(LpDistanceTest, ViewOverloadMatchesLinearized) {
  table::Matrix a(3, 4);
  table::Matrix b(3, 4);
  for (size_t i = 0; i < a.Values().size(); ++i) {
    a.Values()[i] = static_cast<double>(i);
    b.Values()[i] = static_cast<double>(i * i) * 0.1;
  }
  std::vector<double> la(a.Values().begin(), a.Values().end());
  std::vector<double> lb(b.Values().begin(), b.Values().end());
  for (double p : {0.5, 1.0, 1.7, 2.0}) {
    EXPECT_NEAR(LpDistance(a.View(), b.View(), p), LpDistance(la, lb, p),
                1e-10)
        << "p=" << p;
  }
}

TEST(LpDistanceTest, ViewOverloadRespectsWindows) {
  table::Matrix m(4, 4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = static_cast<double>(r * 4 + c);
  }
  // Two disjoint 2x2 windows.
  const double d =
      LpDistance(m.Window(0, 0, 2, 2), m.Window(2, 2, 2, 2), 1.0);
  // |0-10|+|1-11|+|4-14|+|5-15| = 40.
  EXPECT_DOUBLE_EQ(d, 40.0);
}

TEST(LpDistanceDeathTest, MismatchedSizesAbort) {
  const std::vector<double> a = {1.0, 2.0};
  const std::vector<double> b = {1.0};
  EXPECT_DEATH(LpDistance(a, b, 1.0), "different sizes");
}

TEST(LpDistanceDeathTest, NonPositivePAborts) {
  const std::vector<double> a = {1.0};
  const std::vector<double> b = {2.0};
  EXPECT_DEATH(LpDistance(a, b, 0.0), "requires p > 0");
}

}  // namespace
}  // namespace tabsketch::core
