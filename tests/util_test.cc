#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/median.h"
#include "util/result.h"
#include "util/status.h"
#include "util/timer.h"

namespace tabsketch::util {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status status;
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kOk);
  EXPECT_EQ(status.ToString(), "OK");
}

TEST(StatusTest, FactoriesCarryCodeAndMessage) {
  Status status = Status::InvalidArgument("bad p");
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(status.message(), "bad p");
  EXPECT_EQ(status.ToString(), "InvalidArgument: bad p");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_EQ(StatusCodeToString(StatusCode::kOk), "OK");
  EXPECT_EQ(StatusCodeToString(StatusCode::kOutOfRange), "OutOfRange");
  EXPECT_EQ(StatusCodeToString(StatusCode::kFailedPrecondition),
            "FailedPrecondition");
  EXPECT_EQ(StatusCodeToString(StatusCode::kNotFound), "NotFound");
  EXPECT_EQ(StatusCodeToString(StatusCode::kIOError), "IOError");
  EXPECT_EQ(StatusCodeToString(StatusCode::kInternal), "Internal");
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::IOError("x"));
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  TABSKETCH_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorMacro) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_EQ(Chained(-1).code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, HoldsValue) {
  Result<int> result(42);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value(), 42);
  EXPECT_EQ(*result, 42);
  EXPECT_TRUE(result.status().ok());
}

TEST(ResultTest, HoldsError) {
  Result<int> result(Status::NotFound("missing"));
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(ResultTest, MovesValueOut) {
  Result<std::vector<int>> result(std::vector<int>{1, 2, 3});
  std::vector<int> moved = std::move(result).value();
  EXPECT_EQ(moved.size(), 3u);
}

Result<int> HalfOf(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> QuarterOf(int x) {
  TABSKETCH_ASSIGN_OR_RETURN(int half, HalfOf(x));
  return HalfOf(half);
}

TEST(ResultTest, AssignOrReturnMacro) {
  auto ok = QuarterOf(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_EQ(QuarterOf(6).status().code(), StatusCode::kInvalidArgument);
}

TEST(MedianTest, OddLength) {
  std::vector<double> values = {5.0, 1.0, 3.0};
  EXPECT_DOUBLE_EQ(MedianInPlace(values), 3.0);
}

TEST(MedianTest, EvenLengthAveragesMiddlePair) {
  std::vector<double> values = {4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(MedianInPlace(values), 2.5);
}

TEST(MedianTest, SingleElement) {
  std::vector<double> values = {7.5};
  EXPECT_DOUBLE_EQ(MedianInPlace(values), 7.5);
}

TEST(MedianTest, NonDestructiveVariantPreservesInput) {
  const std::vector<double> values = {9.0, 2.0, 7.0, 4.0, 5.0};
  EXPECT_DOUBLE_EQ(Median(values), 5.0);
  EXPECT_EQ(values, (std::vector<double>{9.0, 2.0, 7.0, 4.0, 5.0}));
}

TEST(MedianTest, MedianAbsDifference) {
  const std::vector<double> a = {1.0, 5.0, 10.0};
  const std::vector<double> b = {2.0, 2.0, 2.0};
  std::vector<double> scratch;
  // |diffs| = {1, 3, 8} -> median 3.
  EXPECT_DOUBLE_EQ(MedianAbsDifference(a, b, &scratch), 3.0);
  EXPECT_EQ(scratch.size(), 3u);
}

TEST(MedianTest, MedianWithDuplicates) {
  std::vector<double> values = {2.0, 2.0, 2.0, 2.0};
  EXPECT_DOUBLE_EQ(MedianInPlace(values), 2.0);
}

TEST(MedianTest, NegativeValues) {
  std::vector<double> values = {-5.0, -1.0, -3.0, 0.0, 2.0};
  EXPECT_DOUBLE_EQ(MedianInPlace(values), -1.0);
}

TEST(TimerTest, ElapsedIsNonNegativeAndMonotone) {
  WallTimer timer;
  const double first = timer.ElapsedSeconds();
  const double second = timer.ElapsedSeconds();
  EXPECT_GE(first, 0.0);
  EXPECT_GE(second, first);
}

TEST(CheckDeathTest, MedianOfEmptyAborts) {
  std::vector<double> empty;
  EXPECT_DEATH(MedianInPlace(empty), "median of empty range");
}

TEST(CheckDeathTest, MismatchedAbsDifferenceAborts) {
  std::vector<double> a = {1.0};
  std::vector<double> b = {1.0, 2.0};
  std::vector<double> scratch;
  EXPECT_DEATH(MedianAbsDifference(a, b, &scratch), "size mismatch");
}

}  // namespace
}  // namespace tabsketch::util
