#ifndef TABSKETCH_CLUSTER_SKETCH_BACKEND_H_
#define TABSKETCH_CLUSTER_SKETCH_BACKEND_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/backend.h"
#include "cluster/exact_backend.h"
#include "core/estimator.h"
#include "core/quantized_sketch.h"
#include "core/sketch_cache.h"
#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "eval/audit.h"
#include "table/tiling.h"
#include "util/result.h"

namespace tabsketch::cluster {

/// When tile sketches are materialized.
enum class SketchMode {
  /// All tile sketches are computed at backend construction (the paper's
  /// scenario (1); construction time is the separately-reported
  /// "preprocessing for sketches" cost).
  kPrecomputed,
  /// Tile sketches are computed at first use and cached (scenario (2),
  /// "sketching on demand").
  kOnDemand,
};

/// Sketch-estimated-distance backend. Every comparison costs O(k) regardless
/// of tile size. Centroids are maintained directly in sketch space: by
/// linearity of the dot product, the mean of the member sketches *is* the
/// sketch of the mean tile, so centroid updates never touch the data.
///
/// Distance()/ObjectDistance() are safe to call concurrently in both modes:
/// estimator scratch is per-thread, precomputed sketches are read-only, and
/// the on-demand LruSketchCache is internally synchronized.
///
/// When the global SketchAuditor is enabled at Create() time, a sampled
/// fraction of estimates is shadow-checked against the exact Lp distance.
/// Because sketch-space centroids have no data-space representation, the
/// backend then also drives an ExactBackend over the same grid through every
/// centroid mutation, and the audit reads its distances — pure bookkeeping
/// that never feeds back into any estimate, so clustering output is
/// identical with auditing on or off.
class SketchBackend : public ClusteringBackend {
 public:
  /// `grid` must outlive the backend. In kPrecomputed mode this sketches
  /// every tile eagerly before returning, fanning the tiles over `threads`
  /// workers (bit-identical output for any thread count; ignored in
  /// kOnDemand mode). `cache_bytes` bounds kOnDemand sketch memory: 0 keeps
  /// every computed sketch resident, a positive budget keeps long runs over
  /// huge grids under a memory cap, the code pool of `quant` included
  /// (QuantizedCodePool::SketchCacheBudget) — the clustering output is
  /// bit-identical either way, eviction only costs recompute time. Ignored
  /// in kPrecomputed mode.
  ///
  /// `quant` (not kOff) builds a QuantizedCodePool over the tile sketches
  /// and routes the k-means assignment scan (NearestCentroid) through the
  /// code filter (core::FilterByCode with want = 1): centroids whose code
  /// distance provably exceeds the best centroid's upper bound are skipped
  /// without a full estimate.
  /// Assignments are byte-identical to kOff — the slack bound guarantees no
  /// winning centroid is ever pruned — only distance_evaluations() shrinks.
  /// With or without codes, the assignment scan also rejects centroids by
  /// count (see NearestCentroid).
  static util::Result<SketchBackend> Create(
      const table::TileGrid* grid, const core::SketchParams& params,
      SketchMode mode,
      core::EstimatorKind estimator = core::EstimatorKind::kAuto,
      size_t threads = 1, size_t cache_bytes = 0,
      core::QuantKind quant = core::QuantKind::kOff);

  size_t num_objects() const override { return grid_->num_tiles(); }
  void InitCentroidsFromObjects(
      const std::vector<size_t>& object_indices) override;
  size_t num_centroids() const override { return centroids_.size(); }
  double Distance(size_t object, size_t centroid) override;
  double ObjectDistance(size_t a, size_t b) override;
  /// The assignment scan: one fetch of the object's sketch, the code filter
  /// when quantized, then one NearestCandidate pass over the candidates
  /// (every centroid, or the filter's survivors) with `previous` swapped to
  /// the front if it is among them. A centroid whose O(k) count proves its
  /// estimate strictly above the running best is skipped without a median
  /// (DistanceEstimator::ProvablyGreater); every other one gets the full
  /// estimate Distance() returns, counted and audited as Distance() is.
  /// Returns exactly the default scan's answer.
  int NearestCentroid(size_t object, int previous) override;
  void UpdateCentroids(const std::vector<int>& assignment) override;
  void ResetCentroidToObject(size_t centroid, size_t object) override;
  std::string name() const override;

  SketchMode mode() const { return mode_; }
  /// Sketches computed so far (== num_objects() in precomputed mode).
  size_t sketches_computed() const;
  const core::Sketch& centroid(size_t i) const { return centroids_[i]; }

 private:
  SketchBackend(const table::TileGrid* grid,
                std::shared_ptr<core::Sketcher> sketcher,
                core::DistanceEstimator estimator, SketchMode mode);

  /// The (possibly lazily computed) sketch of a tile. Shared ownership so a
  /// bounded cache can evict the entry while a caller still holds it.
  std::shared_ptr<const core::Sketch> TileSketch(size_t index);

  /// The full estimate between `object`, whose sketch is `sketch`, and a
  /// centroid: counted in distance_evaluations() and sampled by the audit.
  double EstimateToCentroid(size_t object, const core::Sketch& sketch,
                            size_t centroid);

  /// Re-encodes every centroid against the code pool's affine map (quant
  /// mode only). Called after each centroid mutation, so the read-only
  /// assignment phase always sees codes of the current centroids. A
  /// centroid that cannot be encoded within the error bound (NaN component
  /// or out-of-range value) stays unusable and is simply never pruned.
  void RefreshCentroidCodes();

  const table::TileGrid* grid_;
  // Behind a shared_ptr so its address survives moves of the backend (the
  // on-demand cache keeps a pointer to it).
  std::shared_ptr<core::Sketcher> sketcher_;
  core::DistanceEstimator estimator_;
  SketchMode mode_;
  /// Tile-sketch source: FixedSketchSource (kPrecomputed) or LruSketchCache
  /// (kOnDemand).
  std::unique_ptr<core::TileSketchCache> cache_;
  /// Quantized code tier over the tile sketches; non-null only when Create
  /// was given a quant kind. Immutable after construction.
  std::unique_ptr<const core::QuantizedCodePool> code_pool_;
  /// Codes of the current centroids under the pool's map; refreshed by
  /// RefreshCentroidCodes on every centroid mutation.
  std::vector<core::QuantizedVector> centroid_codes_;
  std::vector<core::Sketch> centroids_;
  /// Non-null only while auditing; cached at Create() so the per-call cost
  /// when auditing is off is a single null-pointer check.
  eval::SketchAuditor::Channel* audit_ = nullptr;
  /// The exact distances the audit checks against, with data-space mirrors
  /// of centroids_; present only while auditing.
  std::optional<ExactBackend> audit_shadow_;
};

}  // namespace tabsketch::cluster

#endif  // TABSKETCH_CLUSTER_SKETCH_BACKEND_H_
