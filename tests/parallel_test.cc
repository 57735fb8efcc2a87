#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "core/ondemand.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/tiling.h"
#include "util/parallel.h"

namespace tabsketch::util {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {1u, 2u, 3u, 8u}) {
    std::vector<std::atomic<int>> counts(100);
    ParallelFor(100, threads, [&](size_t i) { counts[i]++; });
    for (const auto& count : counts) {
      EXPECT_EQ(count.load(), 1) << "threads=" << threads;
    }
  }
}

TEST(ParallelForTest, ZeroCountIsNoop) {
  bool touched = false;
  ParallelFor(0, 4, [&](size_t) { touched = true; });
  EXPECT_FALSE(touched);
}

TEST(ParallelForTest, MoreThreadsThanWork) {
  std::vector<std::atomic<int>> counts(3);
  ParallelFor(3, 16, [&](size_t i) { counts[i]++; });
  for (const auto& count : counts) EXPECT_EQ(count.load(), 1);
}

TEST(ParallelForTest, SumMatchesSequential) {
  constexpr size_t kN = 1000;
  std::vector<long> values(kN);
  ParallelFor(kN, 4, [&](size_t i) { values[i] = static_cast<long>(i * i); });
  long expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += static_cast<long>(i * i);
  EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0L), expected);
}

TEST(DefaultThreadCountTest, AtLeastOne) {
  EXPECT_GE(DefaultThreadCount(), 1u);
}

TEST(ParallelForTest, WorkerExceptionIsRethrownOnCaller) {
  // An exception thrown on a worker thread used to hit std::terminate; it
  // must surface on the calling thread instead.
  EXPECT_THROW(
      ParallelFor(100, 4,
                  [](size_t i) {
                    if (i == 57) throw std::runtime_error("boom");
                  }),
      std::runtime_error);
}

TEST(ParallelForTest, WorkerExceptionKeepsMessage) {
  try {
    ParallelFor(8, 4, [](size_t i) {
      if (i == 3) throw std::runtime_error("item 3 failed");
    });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "item 3 failed");
  }
}

TEST(ParallelForTest, InlineExceptionStillPropagates) {
  // threads <= 1 runs inline; the exception path must behave the same.
  EXPECT_THROW(ParallelFor(4, 1,
                           [](size_t i) {
                             if (i == 2) throw std::logic_error("inline");
                           }),
               std::logic_error);
}

TEST(ParallelForTest, AllWorkersThrowingRethrowsExactlyOne) {
  try {
    ParallelFor(16, 8, [](size_t) { throw std::runtime_error("all"); });
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "all");
  }
}

TEST(ParallelSketchTest, MatchesSequentialForAnyThreadCount) {
  rng::Xoshiro256 gen(7);
  table::Matrix data(16, 32);
  for (double& value : data.Values()) value = gen.NextDouble();
  auto grid = table::TileGrid::Create(&data, 4, 4);
  ASSERT_TRUE(grid.ok());
  auto sketcher = core::Sketcher::Create({.p = 1.0, .k = 16, .seed = 5});
  ASSERT_TRUE(sketcher.ok());

  const std::vector<core::Sketch> sequential =
      core::SketchAllTilesParallel(*sketcher, *grid);
  for (size_t threads : {1u, 2u, 4u}) {
    const std::vector<core::Sketch> parallel =
        core::SketchAllTilesParallel(*sketcher, *grid, threads);
    ASSERT_EQ(parallel.size(), sequential.size());
    for (size_t t = 0; t < sequential.size(); ++t) {
      EXPECT_EQ(parallel[t].values, sequential[t].values)
          << "threads=" << threads << " tile=" << t;
    }
  }
}

}  // namespace
}  // namespace tabsketch::util
