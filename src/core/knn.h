#ifndef TABSKETCH_CORE_KNN_H_
#define TABSKETCH_CORE_KNN_H_

#include <cstddef>
#include <vector>

namespace tabsketch::core {

/// One similarity-search hit.
struct Neighbor {
  size_t index;
  /// Sketch-estimated or exact Lp distance, depending on the producing call.
  double distance;

  friend bool operator==(const Neighbor& a, const Neighbor& b) {
    return a.index == b.index && a.distance == b.distance;
  }
};

/// Strict weak ordering over neighbors: ascending distance, ties broken by
/// index. A NaN distance (a sketch estimate can be NaN when the underlying
/// data carries NaNs) orders after every real distance — and NaN-vs-NaN falls
/// back to the index tie-break — so the comparator stays a valid strict weak
/// order and sorting with it is never UB.
bool NeighborBefore(const Neighbor& a, const Neighbor& b);

/// Keeps the smallest `k` of `*all` under NeighborBefore, in sorted order
/// (k is clamped to all->size()): partial-sorts `*all` and truncates it to
/// k, keeping its capacity for reuse (the query engine's per-thread
/// workspace leans on this to stay allocation-free across batch requests).
void SmallestKNeighborsInPlace(std::vector<Neighbor>* all, size_t k);

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_KNN_H_
