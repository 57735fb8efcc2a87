#include "cluster/sketch_backend.h"

#include <cmath>
#include <limits>
#include <utility>

#include "core/lp_distance.h"
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
    core::LruSketchCache::Options options;
    options.capacity_bytes = core::QuantizedCodePool::SketchCacheBudget(
        cache_bytes, quant, grid->num_tiles(), params.k);
    backend.cache_ = std::make_unique<core::LruSketchCache>(
        backend.sketcher_.get(), grid, options);
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
  if (audit_ != nullptr) {
    audit_centroids_.clear();
    audit_centroids_.reserve(object_indices.size());
    for (size_t index : object_indices) {
      audit_centroids_.push_back(grid_->Tile(index).ToMatrix());
    }
  }
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
  ++distance_evaluations_;
  TABSKETCH_CHECK(centroid < centroids_.size());
  const double estimate = estimator_.EstimateWithScratch(
      TileSketch(object)->values, centroids_[centroid].values,
      ThreadScratch());
  if (audit_ != nullptr && centroid < audit_centroids_.size() &&
      eval::SketchAuditor::Global().ShouldSample()) {
    audit_->Record(core::LpDistance(grid_->Tile(object),
                                    audit_centroids_[centroid].View(),
                                    sketcher_->params().p),
                   estimate);
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
    audit_->Record(
        core::LpDistance(grid_->Tile(a), grid_->Tile(b),
                         sketcher_->params().p),
        estimate);
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
  if (audit_ != nullptr) UpdateAuditCentroids(assignment);
  RefreshCentroidCodes();
}

/// Shadow mirror of ExactBackend::UpdateCentroids: the mean member tile per
/// cluster, in data space. By sketch linearity the sketch centroid above *is*
/// the sketch of this matrix, which is exactly what makes the audited
/// object-to-centroid comparison meaningful.
void SketchBackend::UpdateAuditCentroids(const std::vector<int>& assignment) {
  const size_t k = centroids_.size();
  std::vector<table::Matrix> sums(
      k, table::Matrix(grid_->tile_rows(), grid_->tile_cols()));
  std::vector<size_t> counts(k, 0);
  for (size_t object = 0; object < assignment.size(); ++object) {
    const int cluster = assignment[object];
    if (cluster < 0) continue;
    table::TableView tile = grid_->Tile(object);
    table::Matrix& sum = sums[cluster];
    for (size_t r = 0; r < tile.rows(); ++r) {
      auto src = tile.Row(r);
      auto dst = sum.Row(r);
      for (size_t c = 0; c < src.size(); ++c) dst[c] += src[c];
    }
    ++counts[cluster];
  }
  if (audit_centroids_.size() != k) {
    audit_centroids_.assign(
        k, table::Matrix(grid_->tile_rows(), grid_->tile_cols()));
  }
  for (size_t cluster = 0; cluster < k; ++cluster) {
    if (counts[cluster] == 0) continue;  // keep previous centroid
    const double inv = 1.0 / static_cast<double>(counts[cluster]);
    for (double& value : sums[cluster].Values()) value *= inv;
    audit_centroids_[cluster] = std::move(sums[cluster]);
  }
}

void SketchBackend::ResetCentroidToObject(size_t centroid, size_t object) {
  TABSKETCH_CHECK(centroid < centroids_.size());
  centroids_[centroid] = *TileSketch(object);
  if (audit_ != nullptr && centroid < audit_centroids_.size()) {
    audit_centroids_[centroid] = grid_->Tile(object).ToMatrix();
  }
  RefreshCentroidCodes();
}

void SketchBackend::RefreshCentroidCodes() {
  if (code_pool_ == nullptr) return;
  centroid_codes_.resize(centroids_.size());
  for (size_t c = 0; c < centroids_.size(); ++c) {
    centroid_codes_[c] = code_pool_->Quantize(centroids_[c].values);
  }
}

int SketchBackend::NearestCentroid(size_t object) {
  if (code_pool_ == nullptr) return ClusteringBackend::NearestCentroid(object);

  // Code-scan prefilter. With per-comparison error bounded by `slack`
  // (DESIGN.md §13), any centroid whose code distance exceeds
  // min_c(code_c + slack) by more than slack has a true estimate strictly
  // above some other centroid's — it can never win the NaN-skipping,
  // lowest-index-tie argmin, so skipping its full estimate cannot change
  // the assignment. NaN code distances (unusable tile or centroid) always
  // stay candidates.
  static thread_local core::kernels::CodeScratch code_scratch;
  static thread_local std::vector<double> code_distances;
  const bool l2 = estimator_.kind() == core::EstimatorKind::kL2;
  const double inv_scale = 1.0 / estimator_.scale();
  const double slack = code_pool_->Slack(estimator_);
  const size_t k = centroids_.size();
  code_distances.resize(k);
  double best_bound = std::numeric_limits<double>::infinity();
  for (size_t c = 0; c < k; ++c) {
    const double d = code_pool_->CodeEstimateAgainst(
                         object, centroid_codes_[c], l2, &code_scratch) *
                     inv_scale;
    code_distances[c] = d;
    if (d + slack < best_bound) best_bound = d + slack;
  }
  TABSKETCH_METRIC_COUNT_N("quant.scan.tiles", k);
  TABSKETCH_METRIC_COUNT_N(
      "quant.scan.bytes",
      2 * k * code_pool_->k() * core::QuantCodeBytes(code_pool_->kind()));

  int best = -1;
  double best_distance = std::numeric_limits<double>::infinity();
  size_t kept = 0;
  for (size_t c = 0; c < k; ++c) {
    if (code_distances[c] - slack > best_bound) continue;  // NaN-safe: kept
    ++kept;
    const double d = Distance(object, c);
    if (std::isnan(d)) continue;
    if (d < best_distance) {
      best_distance = d;
      best = static_cast<int>(c);
    }
  }
  TABSKETCH_METRIC_COUNT_N("quant.candidates.kept", kept);
  return best;
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
