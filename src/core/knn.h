#ifndef TABSKETCH_CORE_KNN_H_
#define TABSKETCH_CORE_KNN_H_

#include <cmath>
#include <cstddef>
#include <limits>
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

// --- The candidate scan --------------------------------------------------
//
// k-means assignment and knn are one step: estimate only the candidates a
// cheap bound cannot rule out, then keep the nearest. FilterByCode decides
// which candidates still need a full estimate (DESIGN.md §13); k-means
// (want = 1) then runs NearestCandidate over the survivors, whose
// `distance_of` may reject a candidate by count, and knn runs
// EstimateAndKeepNearest.

/// The code filter of DESIGN.md §13. `*candidates` holds {index, code
/// distance} for every scanned candidate, each code distance within `slack`
/// of its full estimate. On return it holds only the candidates a full
/// estimate could still rank among the `want` nearest: with T the `want`-th
/// smallest code distance under NeighborBefore, every candidate whose code
/// distance is not more than T + 2·slack, NaN included (a NaN T keeps all).
/// With at most `want` candidates, all are kept.
///
/// Survivors stay in the order `nth_element(want − 1, NeighborBefore)` left
/// them in, which is the order knn fetches their sketches in: its LRU hit
/// ratio depends on that order (DESIGN.md §13). Counts `quant.scan.tiles`,
/// `quant.scan.bytes` (two code rows of `row_bytes` per candidate) and
/// `quant.candidates.kept`. `want` must be at least 1.
void FilterByCode(std::vector<Neighbor>* candidates, size_t want,
                  double slack, size_t row_bytes);

/// The k-means argmin: the candidate with the smallest distance, the lowest
/// index among equal smallest distances, or -1 when no distance is finite
/// (NaN and +inf never win) or there is no candidate. `distance_of` runs
/// once per candidate in the order `candidates` lists them; the tie rule is
/// explicit, so the winner does not depend on that order.
///
/// `distance_of(c, best)` gets the smallest distance found so far (+inf
/// before any) and returns c's distance. It may instead return any value
/// greater than `best` once it has proven c's distance strictly greater than
/// `best`: such a c can win neither outright nor on a tie (DESIGN.md §13,
/// "Rejection by count").
template <typename Indices, typename DistanceOf>
int NearestCandidate(const Indices& candidates, DistanceOf&& distance_of) {
  int best = -1;
  double best_distance = std::numeric_limits<double>::infinity();
  for (const size_t candidate : candidates) {
    const double d = distance_of(candidate, best_distance);
    // NaN fails every comparison below; the explicit test documents the
    // contract.
    if (std::isnan(d)) continue;
    // An equal distance wins at a lower index. Before any winner
    // best_distance is +inf, and an infinite distance does not win.
    if (d < best_distance ||
        (d == best_distance && best >= 0 &&
         candidate < static_cast<size_t>(best))) {
      best_distance = d;
      best = static_cast<int>(candidate);
    }
  }
  return best;
}

/// The knn estimate step: sets each candidate's distance to
/// `estimate_of(index)`, called in array order (the order knn fetches
/// sketches in), then keeps the `want` nearest, sorted, as
/// SmallestKNeighborsInPlace does.
template <typename EstimateOf>
void EstimateAndKeepNearest(std::vector<Neighbor>* candidates, size_t want,
                            EstimateOf&& estimate_of) {
  for (Neighbor& candidate : *candidates) {
    candidate.distance = estimate_of(candidate.index);
  }
  SmallestKNeighborsInPlace(candidates, want);
}

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_KNN_H_
