#include "cluster/backend.h"

#include <ranges>

#include "core/knn.h"
#include "util/metrics.h"

namespace tabsketch::cluster {

int ClusteringBackend::NearestCentroid(size_t object, int /*previous*/) {
  return core::NearestCandidate(
      std::views::iota(size_t{0}, num_centroids()),
      [&](size_t centroid, double /*best*/) {
        return Distance(object, centroid);
      });
}

void RecordDistanceEvaluations(const ClusteringBackend& backend,
                               size_t delta) {
  if (!util::MetricsRegistry::Enabled() || delta == 0) return;
  const char* key = backend.name() == "exact"
                        ? "cluster.distance_evals.exact"
                        : "cluster.distance_evals.sketch";
  util::MetricsRegistry::Global().GetCounter(key)->Increment(delta);
}

}  // namespace tabsketch::cluster
