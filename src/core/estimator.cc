#include "core/estimator.h"

#include <cmath>
#include <limits>
#include <optional>

#include "core/code_kernels.h"
#include "core/scale_factor.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/median.h"

namespace tabsketch::core {

util::Result<DistanceEstimator> DistanceEstimator::Create(
    const SketchParams& params, EstimatorKind kind) {
  TABSKETCH_RETURN_IF_ERROR(params.Validate());
  if (kind == EstimatorKind::kAuto) {
    kind = (params.p == 2.0) ? EstimatorKind::kL2 : EstimatorKind::kMedian;
  }
  if (kind == EstimatorKind::kL2 && params.p != 2.0) {
    return util::Status::InvalidArgument(
        "the L2 estimator is only valid for p = 2 sketches");
  }
  const double scale =
      (kind == EstimatorKind::kMedian) ? MedianAbsStable(params.p) : 1.0;
  return DistanceEstimator(kind, params.p, scale);
}

double DistanceEstimator::EstimateWithScratch(
    std::span<const double> a, std::span<const double> b,
    std::vector<double>* scratch) const {
  TABSKETCH_CHECK(a.size() == b.size() && !a.empty())
      << "estimating from mismatched or empty sketches";
  TABSKETCH_METRIC_COUNT("estimator.estimate.calls");
  if (kind_ == EstimatorKind::kL2) {
    double acc = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      acc += d * d;
    }
    return std::sqrt(acc / static_cast<double>(a.size()));
  }
  return util::MedianAbsDifference(a, b, scratch) / scale_;
}

bool DistanceEstimator::ProvablyGreater(std::span<const double> a,
                                        std::span<const double> b,
                                        double bound) const {
  TABSKETCH_CHECK(a.size() == b.size() && !a.empty())
      << "estimating from mismatched or empty sketches";
  // The L2 estimate is one O(k) sum with no selection to skip, so a count
  // would only add a second pass.
  if (kind_ == EstimatorKind::kL2) return false;
  // The median of the |Δᵢ| exceeds t once more than half of them do: k/2 + 1
  // of them for even k (both middle elements then exceed t), (k + 1)/2 for
  // odd k, which integer division also spells k/2 + 1. Below the smallest
  // normal double, the division by B(p) can round an estimate above `bound`
  // down onto it; only the full estimate decides there, and at an infinite
  // or NaN bound.
  constexpr double kMinNormal = std::numeric_limits<double>::min();
  const double threshold = bound * scale_ * kSlackSafety;
  if (!(bound >= kMinNormal) || !(threshold >= kMinNormal) ||
      threshold == std::numeric_limits<double>::infinity()) {
    return false;
  }
  // nth_element over a NaN can return a finite median that wins, so a NaN
  // difference (no count) gets the full estimate.
  const std::optional<size_t> above =
      kernels::CountAbove(a.data(), b.data(), a.size(), threshold);
  return above && *above >= a.size() / 2 + 1;
}

double DistanceEstimator::Estimate(std::span<const double> a,
                                   std::span<const double> b) const {
  std::vector<double> scratch;
  return EstimateWithScratch(a, b, &scratch);
}

double DistanceEstimator::Estimate(const Sketch& a, const Sketch& b) const {
  return Estimate(std::span<const double>(a.values),
                  std::span<const double>(b.values));
}

}  // namespace tabsketch::core
