#include "cluster/sketch_backend.h"

#include <algorithm>
#include <limits>
#include <ranges>
#include <utility>

#include "core/knn.h"
#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "util/logging.h"
#include "util/metrics.h"

namespace tabsketch::cluster {

util::Result<SketchBackend> SketchBackend::Create(
    const table::TileGrid* grid, const core::SketchParams& params,
    SketchMode mode, core::EstimatorKind estimator_kind, size_t threads,
    size_t cache_bytes, core::QuantKind quant) {
  TABSKETCH_CHECK(grid != nullptr);
  TABSKETCH_ASSIGN_OR_RETURN(core::Sketcher sketcher,
                             core::Sketcher::Create(params));
  TABSKETCH_ASSIGN_OR_RETURN(
      core::DistanceEstimator estimator,
      core::DistanceEstimator::Create(params, estimator_kind));
  auto shared_sketcher = std::make_shared<core::Sketcher>(std::move(sketcher));
  SketchBackend backend(grid, std::move(shared_sketcher),
                        std::move(estimator), mode);
  if (mode == SketchMode::kPrecomputed) {
    backend.cache_ = std::make_unique<core::FixedSketchSource>(
        core::SketchAllTilesParallel(*backend.sketcher_, *grid, threads));
  } else {
    // As in serve::Snapshot, the code tier's bytes come off the budget.
    backend.cache_ = std::make_unique<core::LruSketchCache>(
        backend.sketcher_.get(), grid,
        core::QuantizedCodePool::SketchCacheBudget(cache_bytes, quant,
                                                   grid->num_tiles(),
                                                   params.k));
  }
  if (quant != core::QuantKind::kOff) {
    // Built through the cache so peak memory stays bounded even when the
    // backend itself runs under an LRU budget (sketches recomputed during
    // the passes are the one-time build cost).
    TABSKETCH_ASSIGN_OR_RETURN(
        core::QuantizedCodePool pool,
        core::QuantizedCodePool::Build(backend.cache_.get(), quant, params,
                                       grid->tile_rows(), grid->tile_cols(),
                                       threads));
    backend.code_pool_ =
        std::make_unique<const core::QuantizedCodePool>(std::move(pool));
    TABSKETCH_METRIC_GAUGE_SET("quant.pool.bytes",
                               backend.code_pool_->bytes());
  }
  if (eval::SketchAuditor::Enabled()) {
    TABSKETCH_ASSIGN_OR_RETURN(ExactBackend shadow,
                               ExactBackend::Create(grid, params.p));
    backend.audit_shadow_.emplace(std::move(shadow));
    backend.audit_ = eval::SketchAuditor::Global().ChannelFor(
        params.p, params.k, params.sparsity);
  }
  return backend;
}

SketchBackend::SketchBackend(const table::TileGrid* grid,
                             std::shared_ptr<core::Sketcher> sketcher,
                             core::DistanceEstimator estimator,
                             SketchMode mode)
    : grid_(grid),
      sketcher_(std::move(sketcher)),
      estimator_(estimator),
      mode_(mode) {}

std::shared_ptr<const core::Sketch> SketchBackend::TileSketch(size_t index) {
  return cache_->Get(index);
}

void SketchBackend::InitCentroidsFromObjects(
    const std::vector<size_t>& object_indices) {
  centroids_.clear();
  centroids_.reserve(object_indices.size());
  for (size_t index : object_indices) {
    centroids_.push_back(*TileSketch(index));
  }
  if (audit_shadow_) audit_shadow_->InitCentroidsFromObjects(object_indices);
  RefreshCentroidCodes();
}

namespace {

/// Median-estimator workspace, one per thread so concurrent Distance calls
/// never share mutable state (a per-backend scratch would race).
std::vector<double>* ThreadScratch() {
  static thread_local std::vector<double> scratch;
  return &scratch;
}

}  // namespace

double SketchBackend::Distance(size_t object, size_t centroid) {
  TABSKETCH_CHECK(centroid < centroids_.size());
  return EstimateToCentroid(object, *TileSketch(object), centroid);
}

double SketchBackend::EstimateToCentroid(size_t object,
                                         const core::Sketch& sketch,
                                         size_t centroid) {
  ++distance_evaluations_;
  const double estimate = estimator_.EstimateWithScratch(
      sketch.values, centroids_[centroid].values, ThreadScratch());
  if (audit_ != nullptr && eval::SketchAuditor::Global().ShouldSample()) {
    audit_->Record(audit_shadow_->Distance(object, centroid), estimate);
  }
  return estimate;
}

double SketchBackend::ObjectDistance(size_t a, size_t b) {
  ++distance_evaluations_;
  // Shared ownership keeps both sketches alive across the estimate even if a
  // bounded cache evicts their entries in between.
  const std::shared_ptr<const core::Sketch> sketch_a = TileSketch(a);
  const std::shared_ptr<const core::Sketch> sketch_b = TileSketch(b);
  const double estimate = estimator_.EstimateWithScratch(
      sketch_a->values, sketch_b->values, ThreadScratch());
  if (audit_ != nullptr && eval::SketchAuditor::Global().ShouldSample()) {
    audit_->Record(audit_shadow_->ObjectDistance(a, b), estimate);
  }
  return estimate;
}

void SketchBackend::UpdateCentroids(const std::vector<int>& assignment) {
  TABSKETCH_CHECK(assignment.size() == num_objects());
  const size_t k = centroids_.size();
  const size_t sketch_size = sketcher_->params().k;
  std::vector<core::Sketch> sums(k);
  for (auto& sum : sums) sum.values.assign(sketch_size, 0.0);
  std::vector<size_t> counts(k, 0);
  for (size_t object = 0; object < assignment.size(); ++object) {
    const int cluster = assignment[object];
    if (cluster < 0) continue;
    TABSKETCH_CHECK(static_cast<size_t>(cluster) < k);
    sums[cluster].Add(*TileSketch(object));
    ++counts[cluster];
  }
  for (size_t cluster = 0; cluster < k; ++cluster) {
    if (counts[cluster] == 0) continue;  // keep previous centroid
    sums[cluster].Scale(1.0 / static_cast<double>(counts[cluster]));
    centroids_[cluster] = std::move(sums[cluster]);
  }
  // By sketch linearity each sketch centroid above *is* the sketch of the
  // shadow's mean member tile, which is what makes the audited
  // object-to-centroid comparison meaningful.
  if (audit_shadow_) audit_shadow_->UpdateCentroids(assignment);
  RefreshCentroidCodes();
}

void SketchBackend::ResetCentroidToObject(size_t centroid, size_t object) {
  TABSKETCH_CHECK(centroid < centroids_.size());
  centroids_[centroid] = *TileSketch(object);
  if (audit_shadow_) audit_shadow_->ResetCentroidToObject(centroid, object);
  RefreshCentroidCodes();
}

void SketchBackend::RefreshCentroidCodes() {
  if (code_pool_ == nullptr) return;
  centroid_codes_.resize(centroids_.size());
  for (size_t c = 0; c < centroids_.size(); ++c) {
    centroid_codes_[c] = code_pool_->Quantize(centroids_[c].values);
  }
}

int SketchBackend::NearestCentroid(size_t object, int previous) {
  TABSKETCH_CHECK(previous < static_cast<int>(centroids_.size()));
  // One fetch serves every centroid's count and estimate.
  const std::shared_ptr<const core::Sketch> sketch = TileSketch(object);
  static thread_local std::vector<core::Neighbor> candidates;
  candidates.clear();
  if (code_pool_ == nullptr) {
    for (size_t c = 0; c < centroids_.size(); ++c) {
      candidates.push_back(core::Neighbor{c, 0.0});
    }
  } else {
    // The code filter with want = 1: a centroid it drops has a true
    // estimate strictly above some other centroid's, so it can never win
    // the argmin (DESIGN.md §13). NaN code distances (unusable tile or
    // centroid) always stay candidates. The survivors stay in the order the
    // filter leaves them, the smallest code distance first.
    static thread_local core::kernels::CodeScratch code_scratch;
    const bool l2 = estimator_.kind() == core::EstimatorKind::kL2;
    const double inv_scale = 1.0 / estimator_.scale();
    for (size_t c = 0; c < centroids_.size(); ++c) {
      candidates.push_back(core::Neighbor{
          c, code_pool_->CodeEstimateAgainst(object, centroid_codes_[c], l2,
                                             &code_scratch) *
                 inv_scale});
    }
    core::FilterByCode(&candidates, /*want=*/1,
                       code_pool_->Slack(estimator_), code_pool_->row_bytes());
  }
  // The previous centroid, if it survived the filter, runs first: after the
  // first pass it usually wins, and its estimate is then a tight bound for
  // the rest. NearestCandidate's tie rule makes the answer independent of
  // the order.
  if (previous >= 0) {
    const auto kept = std::ranges::find(
        candidates, static_cast<size_t>(previous), &core::Neighbor::index);
    if (kept != candidates.end()) std::iter_swap(candidates.begin(), kept);
  }
  // A centroid whose count proves its estimate strictly above the running
  // best can win neither outright nor on a tie, so it is skipped without a
  // median (DESIGN.md §13, "Rejection by count").
  return core::NearestCandidate(
      candidates | std::views::transform(&core::Neighbor::index),
      [&](size_t c, double best) {
        if (estimator_.ProvablyGreater(sketch->values, centroids_[c].values,
                                       best)) {
          return std::numeric_limits<double>::infinity();
        }
        return EstimateToCentroid(object, *sketch, c);
      });
}

std::string SketchBackend::name() const {
  return mode_ == SketchMode::kPrecomputed ? "sketch-precomputed"
                                           : "sketch-on-demand";
}

size_t SketchBackend::sketches_computed() const {
  // Precomputed sketches were all built at Create() (FixedSketchSource
  // itself never computes, so report the eager count directly).
  if (mode_ == SketchMode::kPrecomputed) return num_objects();
  return cache_->computed();
}

}  // namespace tabsketch::cluster
