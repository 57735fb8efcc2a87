#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <ranges>
#include <utility>
#include <vector>

#include "core/knn.h"
#include "rng/xoshiro256.h"

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

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The knn code filter as QueryEngine wrote it before the shared scan:
/// nth_element to the want-th code distance, then every candidate not more
/// than 2*slack above it, in the order nth_element left them.
std::vector<size_t> KnnRule(std::vector<Neighbor> codes, size_t want,
                            double slack) {
  double threshold = kInf;
  if (codes.size() > want) {
    std::nth_element(codes.begin(),
                     codes.begin() + static_cast<ptrdiff_t>(want - 1),
                     codes.end(), NeighborBefore);
    threshold = codes[want - 1].distance + 2.0 * slack;
  }
  std::vector<size_t> kept;
  for (const Neighbor& candidate : codes) {
    if (candidate.distance > threshold) continue;
    kept.push_back(candidate.index);
  }
  return kept;
}

/// The k-means code filter as SketchBackend wrote it before the shared
/// scan: skip centroid c when code_c - slack > min(code + slack), in index
/// order.
std::vector<size_t> KMeansRule(const std::vector<Neighbor>& codes,
                               double slack) {
  double best_bound = kInf;
  for (const Neighbor& candidate : codes) {
    if (candidate.distance + slack < best_bound) {
      best_bound = candidate.distance + slack;
    }
  }
  std::vector<size_t> kept;
  for (const Neighbor& candidate : codes) {
    if (candidate.distance - slack > best_bound) continue;
    kept.push_back(candidate.index);
  }
  return kept;
}

std::vector<size_t> Indices(const std::vector<Neighbor>& neighbors) {
  std::vector<size_t> out;
  for (const Neighbor& neighbor : neighbors) out.push_back(neighbor.index);
  return out;
}

/// Code distances drawn from NaN, +-0, +-inf and multiples of a quarter, so
/// with slack 1/4 every threshold is exact and many candidates sit on it.
std::vector<Neighbor> EdgeCodes(size_t n, rng::Xoshiro256* gen) {
  const double values[] = {kNaN, 0.0,  -0.0, kInf, -kInf, 0.25, 0.5,
                           0.75, 1.0,  1.25, 1.5,  2.0,   3.0};
  std::vector<Neighbor> codes;
  for (size_t i = 0; i < n; ++i) {
    codes.push_back(Neighbor{i, values[gen->Next() % std::size(values)]});
  }
  return codes;
}

TEST(CodeFilterTest, MatchesBothRulesOnEdgeValues) {
  rng::Xoshiro256 gen(24);
  for (const size_t n : {size_t{1}, size_t{2}, size_t{20}, size_t{255}}) {
    for (int trial = 0; trial < 40; ++trial) {
      std::vector<Neighbor> codes = EdgeCodes(n, &gen);
      if (trial == 0) {
        for (Neighbor& code : codes) code.distance = kNaN;
      } else if (trial == 1) {
        for (Neighbor& code : codes) code.distance = 1.0;
      }
      for (const double slack : {0.0, 0.25}) {
        SCOPED_TRACE(::testing::Message() << "n=" << n << " trial="
                                          << trial << " slack=" << slack);
        for (const size_t want : {size_t{1}, size_t{2}, n - 1, n, n + 1}) {
          if (want == 0) continue;
          std::vector<Neighbor> kept = codes;
          FilterByCode(&kept, want, slack, /*row_bytes=*/64);
          EXPECT_EQ(Indices(kept), KnnRule(codes, want, slack))
              << "want=" << want;
          // Each survivor keeps its code distance.
          for (const Neighbor& survivor : kept) {
            const double code = codes[survivor.index].distance;
            EXPECT_TRUE(survivor.distance == code ||
                        (std::isnan(survivor.distance) && std::isnan(code)));
          }
        }
        // k-means is the want = 1 case; it runs survivors in index order.
        std::vector<Neighbor> kept = codes;
        FilterByCode(&kept, 1, slack, /*row_bytes=*/64);
        std::vector<size_t> indices = Indices(kept);
        std::sort(indices.begin(), indices.end());
        EXPECT_EQ(indices, KMeansRule(codes, slack));
      }
    }
  }
}

TEST(CodeFilterTest, KeepsEveryCandidateAtTheThreshold) {
  // want = 3: T = 1.0, so 1.5 (T + 2*slack exactly) stays and 1.75 goes.
  std::vector<Neighbor> codes = {
      {0, 1.75}, {1, 1.5}, {2, 0.5}, {3, kNaN}, {4, 1.0}, {5, -0.0}};
  FilterByCode(&codes, 3, 0.25, 1);
  std::vector<size_t> indices = Indices(codes);
  std::sort(indices.begin(), indices.end());
  EXPECT_EQ(indices, (std::vector<size_t>{1, 2, 3, 4, 5}));
}

TEST(NearestCandidateTest, NaNNeverWinsAndAllNaNIsMinusOne) {
  const std::vector<double> all_nan = {kNaN, kNaN, kNaN};
  const auto distance_of = [&](size_t c, double) { return all_nan[c]; };
  EXPECT_EQ(NearestCandidate(std::views::iota(size_t{0}, size_t{3}),
                             distance_of),
            -1);
  EXPECT_EQ(NearestCandidate(std::vector<size_t>{}, distance_of), -1);
  const std::vector<double> mixed = {kNaN, 2.0, kNaN, 1.0, kNaN};
  EXPECT_EQ(NearestCandidate(std::views::iota(size_t{0}, size_t{5}),
                             [&](size_t c, double) { return mixed[c]; }),
            3);
}

TEST(NearestCandidateTest, LowestIndexWinsATieWithAndWithoutCodes) {
  // Centroids 1 and 3 tie on the full estimate; 1 must win, whether the
  // scan runs over every centroid or over the survivors of a code filter
  // put back in index order.
  const std::vector<double> full = {5.0, 1.0, 4.0, 1.0, 9.0};
  std::vector<size_t> calls;
  const auto distance_of = [&](size_t c, double) {
    calls.push_back(c);
    return full[c];
  };
  EXPECT_EQ(NearestCandidate(std::views::iota(size_t{0}, full.size()),
                             distance_of),
            1);
  EXPECT_EQ(calls, (std::vector<size_t>{0, 1, 2, 3, 4}));

  // Codes within slack 0.5 of `full`; centroid 3's code is the smaller, so
  // nth_element leaves it ahead of 1.
  std::vector<Neighbor> codes = {
      {0, 5.25}, {1, 1.25}, {2, 4.5}, {3, 0.75}, {4, 9.0}};
  FilterByCode(&codes, 1, 0.5, 1);
  EXPECT_EQ(codes.front().index, 3u);
  std::sort(codes.begin(), codes.end(),
            [](const Neighbor& a, const Neighbor& b) {
              return a.index < b.index;
            });
  calls.clear();
  EXPECT_EQ(NearestCandidate(codes | std::views::transform(&Neighbor::index),
                             distance_of),
            1);
  EXPECT_EQ(calls, (std::vector<size_t>{1, 3}));
}

TEST(NearestCandidateTest, LowestIndexWinsATieInAnyOrder) {
  // Candidates 1 and 3 tie at the smallest distance: 1 wins whichever
  // candidate is swapped to the front, and each runs once, in list order.
  const std::vector<double> full = {5.0, 1.0, 4.0, 1.0, 9.0};
  for (size_t front = 0; front < full.size(); ++front) {
    SCOPED_TRACE(front);
    std::vector<size_t> order = {0, 1, 2, 3, 4};
    std::swap(order[0], order[front]);
    std::vector<size_t> calls;
    EXPECT_EQ(NearestCandidate(order,
                               [&](size_t c, double) {
                                 calls.push_back(c);
                                 return full[c];
                               }),
              1);
    EXPECT_EQ(calls, order);
  }
  const std::vector<size_t> reversed = {4, 3, 2, 1, 0};
  EXPECT_EQ(NearestCandidate(reversed,
                             [&](size_t c, double) { return full[c]; }),
            1);
  // +inf never wins, wherever it runs.
  const std::vector<double> infinite = {kInf, kInf};
  EXPECT_EQ(NearestCandidate(std::vector<size_t>{1, 0},
                             [&](size_t c, double) { return infinite[c]; }),
            -1);
}

TEST(NearestCandidateTest, DistanceOfSeesTheRunningBestAndMayReject) {
  // A candidate proven above the running best may answer +inf instead of
  // its distance; an equal one is never proven above it.
  const std::vector<double> full = {5.0, 1.0, 4.0, 1.0, 9.0};
  std::vector<std::pair<size_t, double>> seen;
  EXPECT_EQ(NearestCandidate(std::vector<size_t>{3, 1, 2, 0, 4},
                             [&](size_t c, double best) {
                               seen.emplace_back(c, best);
                               return full[c] > best ? kInf : full[c];
                             }),
            1);
  const std::vector<std::pair<size_t, double>> want = {
      {3, kInf}, {1, 1.0}, {2, 1.0}, {0, 1.0}, {4, 1.0}};
  EXPECT_EQ(seen, want);
}

}  // namespace
}  // namespace tabsketch::core
