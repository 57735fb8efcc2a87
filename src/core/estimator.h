#ifndef TABSKETCH_CORE_ESTIMATOR_H_
#define TABSKETCH_CORE_ESTIMATOR_H_

#include <span>
#include <vector>

#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "util/result.h"

namespace tabsketch::core {

/// Which estimator turns a pair of sketches into a distance estimate.
enum class EstimatorKind {
  /// Median estimator: median(|s(x)_i - s(y)_i|) / B(p). Valid for every
  /// p in (0, 2] (paper Theorems 1-2).
  kMedian,
  /// L2 estimator: ||s(x) - s(y)||_2 / sqrt(k). Valid only for p = 2, where
  /// sketching reduces to a Johnson-Lindenstrauss projection. Faster than
  /// running a median selection (paper Section 4.4 notes exactly this).
  kL2,
  /// kL2 when p == 2, kMedian otherwise.
  kAuto,
};

/// Relative padding on every bound an estimate is compared against without
/// being computed: it dominates the few ulps of rounding in each comparison
/// chain (DESIGN.md §13), so such a bound holds in floating point, not only
/// in exact arithmetic. QuantizedCodePool::Slack and
/// DistanceEstimator::ProvablyGreater both pad by it.
inline constexpr double kSlackSafety = 1.0 + 1e-6;

/// Estimates the Lp distance between two objects from their sketches.
/// Stateless apart from the cached B(p); safe to share across threads via
/// EstimateWithScratch (Estimate allocates a per-call scratch internally).
class DistanceEstimator {
 public:
  /// Builds an estimator for the family `params`. Resolving kAuto and
  /// checking that kL2 is only used with p = 2 happen here. Computes B(p)
  /// eagerly (Monte-Carlo on first use for fractional p).
  static util::Result<DistanceEstimator> Create(
      const SketchParams& params, EstimatorKind kind = EstimatorKind::kAuto);

  EstimatorKind kind() const { return kind_; }
  double p() const { return p_; }
  /// The scale factor B(p) in use (1 for the L2 estimator).
  double scale() const { return scale_; }

  /// Distance estimate from two sketches of the same family and object
  /// shape. `scratch` is resized as needed; passing the same vector across
  /// calls makes the median path allocation-free.
  double EstimateWithScratch(std::span<const double> a,
                             std::span<const double> b,
                             std::vector<double>* scratch) const;

  /// True only when EstimateWithScratch(a, b, ·) is strictly greater than
  /// `bound`, decided in O(k) without a median selection (DESIGN.md §13,
  /// "Rejection by count"); false decides nothing. The median is monotone
  /// in each |aᵢ − bᵢ|, so it exceeds t once more than half of them do
  /// (k/2 + 1 of k). The threshold is padded by kSlackSafety, so an
  /// estimate equal to `bound` is never rejected. Always false for the L2
  /// estimator, whose full estimate is itself one O(k) sum, when `bound` is
  /// zero, subnormal, infinite or NaN, and when any difference is NaN.
  bool ProvablyGreater(std::span<const double> a, std::span<const double> b,
                       double bound) const;

  /// Convenience overloads that allocate their own scratch.
  double Estimate(std::span<const double> a, std::span<const double> b) const;
  double Estimate(const Sketch& a, const Sketch& b) const;

 private:
  DistanceEstimator(EstimatorKind kind, double p, double scale)
      : kind_(kind), p_(p), scale_(scale) {}

  EstimatorKind kind_;
  double p_;
  double scale_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_ESTIMATOR_H_
