#include "core/knn.h"

#include <algorithm>
#include <cmath>

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

}  // namespace tabsketch::core
