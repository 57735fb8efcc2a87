#include "core/knn.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"
#include "util/metrics.h"

namespace tabsketch::core {

bool NeighborBefore(const Neighbor& a, const Neighbor& b) {
  // `a.distance != b.distance` alone is not a valid ordering test when either
  // side is NaN (it is true while neither `<` holds, violating strict weak
  // ordering and making std::partial_sort UB). Order NaN after every real
  // distance, and break all remaining ties by index so results are
  // deterministic.
  const bool a_nan = std::isnan(a.distance);
  const bool b_nan = std::isnan(b.distance);
  if (a_nan != b_nan) return b_nan;
  if (!a_nan && a.distance != b.distance) return a.distance < b.distance;
  return a.index < b.index;
}

void SmallestKNeighborsInPlace(std::vector<Neighbor>* all, size_t k) {
  k = std::min(k, all->size());
  std::partial_sort(all->begin(), all->begin() + static_cast<ptrdiff_t>(k),
                    all->end(), NeighborBefore);
  all->resize(k);
}

void FilterByCode(std::vector<Neighbor>* candidates, size_t want,
                  double slack, size_t row_bytes) {
  TABSKETCH_CHECK(want >= 1);
  std::vector<Neighbor>& codes = *candidates;
  TABSKETCH_METRIC_COUNT_N("quant.scan.tiles", codes.size());
  TABSKETCH_METRIC_COUNT_N("quant.scan.bytes", 2 * codes.size() * row_bytes);

  // Every candidate the full scan could rank in its top `want` has a code
  // distance within 2*slack of the want-th best code distance: each side of
  // the comparison moves by at most slack. A NaN want-th distance (fewer
  // than `want` usable candidates) or a NaN candidate distance fails the
  // `>` test, so NaN is always kept.
  if (codes.size() > want) {
    std::nth_element(codes.begin(),
                     codes.begin() + static_cast<ptrdiff_t>(want - 1),
                     codes.end(), NeighborBefore);
    const double threshold = codes[want - 1].distance + 2.0 * slack;
    // remove_if is stable, so survivors keep the nth_element order.
    codes.erase(std::remove_if(codes.begin(), codes.end(),
                               [threshold](const Neighbor& candidate) {
                                 return candidate.distance > threshold;
                               }),
                codes.end());
  }
  TABSKETCH_METRIC_COUNT_N("quant.candidates.kept", codes.size());
}

}  // namespace tabsketch::core
