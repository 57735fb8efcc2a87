#include "core/estimator.h"

#include <cmath>

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
