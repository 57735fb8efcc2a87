#include "cluster/kmeans.h"

#include <atomic>
#include <cmath>
#include <limits>
#include <sstream>

#include "cluster/seeding.h"
#include "rng/splitmix64.h"
#include "util/logging.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/timer.h"
#include "util/trace.h"

namespace tabsketch::cluster {
namespace {

/// Assigns every object to its nearest centroid, fanning objects over
/// `threads` workers (each object's scan is independent, so the result is
/// bit-identical for any thread count); returns how many assignments
/// changed. NaN distances are treated as +infinity: a NaN never wins the
/// argmin, and an object whose every distance is NaN stays at -1
/// (unassigned) rather than poisoning the assignment — downstream passes
/// guard against -1.
size_t AssignAll(ClusteringBackend* backend, size_t threads,
                 std::vector<int>* assignment) {
  const size_t n = backend->num_objects();
  std::atomic<size_t> changed{0};
  util::ParallelFor(n, threads, [&](size_t object) {
    // The backend owns the centroid scan (ClusteringBackend::NearestCentroid
    // documents the NaN-as-+inf / lowest-index-tie contract), so a backend
    // can try the previous assignment first and prune without changing any
    // assignment. Each worker reads and writes only its own objects' slots.
    const int best = backend->NearestCentroid(object, (*assignment)[object]);
    if ((*assignment)[object] != best) {
      (*assignment)[object] = best;
      changed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  return changed.load();
}

/// Revives clusters with no members by moving their centroid onto the object
/// farthest from its current centroid; returns true if anything changed.
bool ReviveEmptyClusters(ClusteringBackend* backend,
                         std::vector<int>* assignment) {
  const size_t n = backend->num_objects();
  const size_t k = backend->num_centroids();
  std::vector<size_t> counts(k, 0);
  for (int cluster : *assignment) {
    if (cluster >= 0) ++counts[cluster];
  }
  bool revived = false;
  for (size_t cluster = 0; cluster < k; ++cluster) {
    if (counts[cluster] != 0) continue;
    // Farthest object from its own centroid, among clusters that can spare
    // a member.
    double worst = -1.0;
    size_t victim = 0;
    for (size_t object = 0; object < n; ++object) {
      const int home = (*assignment)[object];
      if (home < 0 || counts[home] <= 1) continue;
      const double d = backend->Distance(object, static_cast<size_t>(home));
      if (d > worst) {
        worst = d;
        victim = object;
      }
    }
    if (worst < 0.0) break;  // nothing can be moved
    --counts[(*assignment)[victim]];
    (*assignment)[victim] = static_cast<int>(cluster);
    ++counts[cluster];
    backend->ResetCentroidToObject(cluster, victim);
    revived = true;
  }
  return revived;
}

}  // namespace

util::Result<KMeansResult> RunKMeans(ClusteringBackend* backend,
                                     const KMeansOptions& options) {
  TABSKETCH_CHECK(backend != nullptr);
  const size_t n = backend->num_objects();
  if (options.k == 0 || options.k > n) {
    std::ostringstream msg;
    msg << "k = " << options.k << " must be in [1, " << n << "]";
    return util::Status::InvalidArgument(msg.str());
  }

  util::WallTimer timer;
  const size_t evals_before = backend->distance_evaluations();

  std::vector<size_t> seeds;
  if (options.seeding == SeedingMethod::kPlusPlus) {
    seeds = KMeansPlusPlusIndices(backend, options.k, options.seed);
  } else {
    seeds = RandomDistinctIndices(n, options.k, options.seed);
  }
  backend->InitCentroidsFromObjects(seeds);

  KMeansResult result;
  result.assignment.assign(n, -1);
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    result.iterations = iter + 1;
    size_t changed;
    {
      TABSKETCH_TRACE_SPAN("cluster.assign");
      changed = AssignAll(backend, options.threads, &result.assignment);
    }
    TABSKETCH_TRACE_INSTANT("cluster.kmeans.changed", changed);
    const bool revived = ReviveEmptyClusters(backend, &result.assignment);
    if (changed == 0 && !revived) {
      result.converged = true;
      break;
    }
    TABSKETCH_TRACE_SPAN("cluster.update");
    backend->UpdateCentroids(result.assignment);
  }

  // Final objective for restart selection, on the final centroids. The
  // distances are gathered in parallel but summed sequentially so the
  // floating-point result does not depend on the thread count. Objects left
  // unassigned (every distance NaN) are skipped rather than indexed with
  // assignment -1, which used to cast to SIZE_MAX and read out of bounds.
  std::vector<double> per_object(n, 0.0);
  util::ParallelFor(n, options.threads, [&](size_t object) {
    const int cluster = result.assignment[object];
    if (cluster < 0) return;
    per_object[object] =
        backend->Distance(object, static_cast<size_t>(cluster));
  });
  double objective = 0.0;
  for (double d : per_object) {
    if (!std::isnan(d)) objective += d;
  }
  result.objective = objective;

  result.seconds = timer.ElapsedSeconds();
  result.distance_evaluations =
      backend->distance_evaluations() - evals_before;
  TABSKETCH_METRIC_GAUGE_SET("cluster.kmeans.iterations", result.iterations);
  TABSKETCH_METRIC_GAUGE_SET("cluster.kmeans.converged",
                             result.converged ? 1 : 0);
  RecordDistanceEvaluations(*backend, result.distance_evaluations);
  return result;
}

util::Result<KMeansResult> RunKMeansBestOfRestarts(
    ClusteringBackend* backend, const KMeansOptions& options,
    size_t restarts) {
  if (restarts == 0) {
    return util::Status::InvalidArgument("restarts must be >= 1");
  }
  KMeansResult best;
  size_t total_evals = 0;
  bool have_best = false;
  for (size_t attempt = 0; attempt < restarts; ++attempt) {
    KMeansOptions run_options = options;
    run_options.seed = rng::MixSeeds(options.seed, attempt);
    TABSKETCH_ASSIGN_OR_RETURN(KMeansResult result,
                               RunKMeans(backend, run_options));
    total_evals += result.distance_evaluations;
    if (!have_best || result.objective < best.objective) {
      best = std::move(result);
      have_best = true;
    }
  }
  best.distance_evaluations = total_evals;
  return best;
}

}  // namespace tabsketch::cluster
