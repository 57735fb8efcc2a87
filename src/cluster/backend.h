#ifndef TABSKETCH_CLUSTER_BACKEND_H_
#define TABSKETCH_CLUSTER_BACKEND_H_

#include <atomic>
#include <cstddef>
#include <string>
#include <vector>

namespace tabsketch::cluster {

/// The distance-computation strategy plugged into k-means. The paper's
/// experimental design holds the clustering loop fixed and swaps only "the
/// routines to calculate the distance between tiles" (Section 4.4); this
/// interface is that swap point. The loop (RunKMeans) is the same for every
/// backend; only the assignment scan inside NearestCentroid may differ, and
/// only in how many full distances it computes, never in its answer.
/// Implementations:
///   - ExactBackend:   exact Lp distances over full tiles (scenario 3),
///   - SketchBackend:  sketch-estimated distances, with sketches either
///                     precomputed (scenario 1) or computed on demand and
///                     cached (scenario 2).
///
/// Objects are the tiles of a grid, identified by index. Centroids live in
/// whatever space the backend uses (data space for exact, sketch space for
/// sketches — sketch linearity makes the mean of member sketches exactly the
/// sketch of the mean tile).
///
/// Thread-safety contract (what the parallel k-means assignment loop relies
/// on): between centroid mutations, Distance() and ObjectDistance() must be
/// safe to call concurrently from multiple threads. Centroid-mutating calls
/// (InitCentroidsFromObjects, UpdateCentroids, ResetCentroidToObject) require
/// exclusive access — the clustering loops alternate a concurrent assignment
/// phase with a sequential update phase, never overlapping the two. Every
/// in-tree backend satisfies this: exact and precomputed-sketch distances are
/// read-only, and the on-demand sketch cache fills its slots under per-slot
/// std::once_flag.
class ClusteringBackend {
 public:
  virtual ~ClusteringBackend() = default;

  /// Number of objects being clustered.
  virtual size_t num_objects() const = 0;

  /// Replaces all centroids with copies of the given objects.
  virtual void InitCentroidsFromObjects(
      const std::vector<size_t>& object_indices) = 0;

  /// Number of centroids currently held.
  virtual size_t num_centroids() const = 0;

  /// Distance (exact or estimated) from object to centroid. Non-const
  /// because on-demand backends may lazily sketch the object.
  virtual double Distance(size_t object, size_t centroid) = 0;

  /// Distance between two objects (used by k-means++ seeding).
  virtual double ObjectDistance(size_t a, size_t b) = 0;

  /// Index of the centroid nearest to `object`, or -1 when no distance is
  /// finite (the k-means assignment step): the smallest Distance(), the
  /// lowest centroid index among equals, NaN and +inf never winning.
  /// `previous` is the object's assignment from the last pass (-1 for none
  /// yet); it is a hint only. The default ignores it and scans every
  /// centroid with Distance() in index order, which is what ExactBackend,
  /// the paper's baseline, runs. Overrides may try `previous` first and skip
  /// centroids that provably cannot win (SketchBackend's code filter and
  /// count rejection, DESIGN.md §13), but must return exactly what the
  /// default scan would, so clustering output never depends on the
  /// backend's pruning. Same thread-safety contract as Distance(): safe to
  /// call concurrently between centroid mutations.
  virtual int NearestCentroid(size_t object, int previous);

  /// Recomputes every centroid as the mean of its assigned objects.
  /// `assignment[i]` in [0, k) or -1 for unassigned; clusters with no
  /// members keep their previous centroid.
  virtual void UpdateCentroids(const std::vector<int>& assignment) = 0;

  /// Resets the centroid of cluster `centroid` to a copy of `object` (used
  /// to revive empty clusters).
  virtual void ResetCentroidToObject(size_t centroid, size_t object) = 0;

  /// Human-readable backend name for reports.
  virtual std::string name() const = 0;

  /// Total full distance evaluations so far (Distance(), ObjectDistance()
  /// and those NearestCentroid computes; a centroid it rejects without one
  /// is not counted): the comparison count whose unit cost the paper's
  /// approach shrinks.
  size_t distance_evaluations() const {
    return distance_evaluations_.load(std::memory_order_relaxed);
  }

 protected:
  // Atomic so concurrent Distance() calls can tally without a data race;
  // backends increment with ++distance_evaluations_. Atomics are neither
  // copyable nor movable, so the value is carried across copies/moves by
  // hand (backends are moved out of util::Result on construction).
  ClusteringBackend() = default;
  ClusteringBackend(const ClusteringBackend& other)
      : distance_evaluations_(other.distance_evaluations()) {}
  ClusteringBackend(ClusteringBackend&& other) noexcept
      : distance_evaluations_(other.distance_evaluations()) {}
  ClusteringBackend& operator=(const ClusteringBackend& other) {
    distance_evaluations_.store(other.distance_evaluations(),
                                std::memory_order_relaxed);
    return *this;
  }
  ClusteringBackend& operator=(ClusteringBackend&& other) noexcept {
    distance_evaluations_.store(other.distance_evaluations(),
                                std::memory_order_relaxed);
    return *this;
  }

  std::atomic<size_t> distance_evaluations_{0};
};

/// Adds `delta` distance evaluations to the global metrics registry, split
/// into cluster.distance_evals.exact vs .sketch by the backend's name().
/// No-op while metrics are disabled; called once per clustering run with the
/// run's evaluation delta, so it is never on a hot path.
void RecordDistanceEvaluations(const ClusteringBackend& backend, size_t delta);

}  // namespace tabsketch::cluster

#endif  // TABSKETCH_CLUSTER_BACKEND_H_
