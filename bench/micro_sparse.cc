// Micro-benchmark of the very-sparse-projection tier (DESIGN.md Section 16):
// on a 1024x1024 table it builds the small-window rungs of the dyadic pool
// ladder (8/16-cell sides — the rungs where the padded-FFT cost dwarfs
// the O(nnz) time-domain walk) and measures
//
//   1. pool-build wall time, dense family (sparsity 1) vs sparsity 0.1 —
//      the headline claim is >= 2x end-to-end build speedup from routing
//      sparse kernels onto the direct path;
//   2. a full-rate audit of the sparse pool's canonical sketches: the
//      median relative error of estimated vs exact L1 distances over
//      sampled window pairs must sit inside the Li envelope
//      eps = C(p)/sqrt(k) * sparsity^(-1/2) of DESIGN.md Section 16;
//   3. byte-identity of the sparse pool across thread counts (path
//      selection depends only on sizes and nnz, never on scheduling).
//
// Rows land in BENCH_sparse.json; a failed assertion exits non-zero so CI
// can gate on it.
//
// usage: micro_sparse [--metrics-json=FILE] [--trace-json=FILE]

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_json.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/sketch_pool.h"
#include "data/six_region.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "util/observability.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace {

using tabsketch::core::DistanceEstimator;
using tabsketch::core::PoolOptions;
using tabsketch::core::SketchParams;
using tabsketch::core::SketchPool;

constexpr double kSparsity = 0.1;
constexpr double kMinSpeedup = 2.0;   // sparse vs dense pool build
constexpr size_t kSketchK = 16;
constexpr size_t kAuditPairs = 200;   // sampled window pairs per rung

/// Median of a (small) vector, destructively.
double Median(std::vector<double>* values) {
  std::sort(values->begin(), values->end());
  return (*values)[values->size() / 2];
}

bool PoolsAreBitIdentical(const SketchPool& a, const SketchPool& b) {
  if (a.CanonicalSizes() != b.CanonicalSizes()) return false;
  for (const auto& [shape, field] : a.fields()) {
    const auto it = b.fields().find(shape);
    if (it == b.fields().end()) return false;
    for (size_t plane = 0; plane < field.k(); ++plane) {
      const auto lhs = field.plane(plane).Values();
      const auto rhs = it->second.plane(plane).Values();
      if (lhs.size() != rhs.size()) return false;
      for (size_t i = 0; i < lhs.size(); ++i) {
        if (lhs[i] != rhs[i]) return false;
      }
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const tabsketch::util::ObservabilityArgs observability =
      tabsketch::util::EnableObservabilityFromArgs(&argc, argv);

  tabsketch::data::SixRegionOptions data_options;
  data_options.rows = 1024;
  data_options.cols = 1024;
  data_options.seed = 42;
  auto dataset = tabsketch::data::GenerateSixRegion(data_options);
  if (!dataset.ok()) {
    std::fprintf(stderr, "generate: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  const tabsketch::table::Matrix& data = dataset->table;

  const SketchParams dense_params{.p = 1.0, .k = kSketchK, .seed = 42};
  const SketchParams sparse_params{
      .p = 1.0, .k = kSketchK, .seed = 42, .sparsity = kSparsity};

  // Small-window rungs only: 8/16-cell sides over the 1024x1024 table.
  // These are the rungs where every FFT pass runs over the same padded
  // 2048x2048 grid regardless of the kernel, while the sparse-direct walk
  // touches nnz * positions ~ 0.1 * side^2 * 1M cells — the regime the
  // auto-router sends to the time-domain path. (By the 32-cell rung the
  // direct walk's nnz ~ 102 already costs about as much as one FFT pass,
  // so including it would only dilute the contrast being tracked.)
  PoolOptions options;
  options.log2_min_rows = 3;
  options.log2_max_rows = 4;
  options.log2_min_cols = 3;
  options.log2_max_cols = 4;
  options.threads = tabsketch::util::DefaultThreadCount();

  std::printf("=== Micro-benchmark: very sparse stable projections ===\n");
  std::printf("table %zux%zu, windows 8..16, k=%zu, p=%.0f, sparsity %.2f, "
              "%zu threads\n",
              data.rows(), data.cols(), dense_params.k, dense_params.p,
              kSparsity, options.threads);

  // --- 1. pool-build wall time, dense vs sparse ------------------------
  tabsketch::util::WallTimer dense_timer;
  auto dense_pool = SketchPool::Build(data, dense_params, options);
  const double dense_seconds = dense_timer.ElapsedSeconds();
  if (!dense_pool.ok()) {
    std::fprintf(stderr, "dense build: %s\n",
                 dense_pool.status().ToString().c_str());
    return 1;
  }
  tabsketch::util::WallTimer sparse_timer;
  auto sparse_pool = SketchPool::Build(data, sparse_params, options);
  const double sparse_seconds = sparse_timer.ElapsedSeconds();
  if (!sparse_pool.ok()) {
    std::fprintf(stderr, "sparse build: %s\n",
                 sparse_pool.status().ToString().c_str());
    return 1;
  }
  const double speedup = dense_seconds / sparse_seconds;
  std::printf("pool build: dense %.3fs, sparse %.3fs -> %.2fx\n",
              dense_seconds, sparse_seconds, speedup);

  bool failed = false;
  if (speedup < kMinSpeedup) {
    failed = true;
    std::fprintf(stderr,
                 "FAIL: sparse pool build %.2fx vs dense, needs %.1fx\n",
                 speedup, kMinSpeedup);
  }

  // --- 2. full-rate audit: estimate vs exact within the Li envelope ----
  // eps = C(p)/sqrt(k) * sparsity^(-1/2), C(1) = 4 (DESIGN.md Section 16).
  // The demanded band is the guarantee; the measured medians run far
  // inside it for spread-out data, and both land in the JSON so the margin
  // is tracked over time.
  const double li_bound =
      4.0 / std::sqrt(static_cast<double>(kSketchK)) / std::sqrt(kSparsity);
  auto estimator = DistanceEstimator::Create(sparse_params);
  if (!estimator.ok()) {
    std::fprintf(stderr, "estimator setup failed\n");
    return 1;
  }
  struct AuditRow {
    size_t window;
    double median_relerr;
  };
  std::vector<AuditRow> audits;
  tabsketch::rng::Xoshiro256 gen(7);
  for (const size_t window : {size_t{8}, size_t{16}}) {
    std::vector<double> relerrs;
    relerrs.reserve(kAuditPairs);
    const size_t max_anchor_row = data.rows() - window;
    const size_t max_anchor_col = data.cols() - window;
    for (size_t i = 0; i < kAuditPairs; ++i) {
      const size_t ar = gen.NextBounded(max_anchor_row + 1);
      const size_t ac = gen.NextBounded(max_anchor_col + 1);
      const size_t br = gen.NextBounded(max_anchor_row + 1);
      const size_t bc = gen.NextBounded(max_anchor_col + 1);
      auto sa = sparse_pool->CanonicalSketchAt(ar, ac, window, window);
      auto sb = sparse_pool->CanonicalSketchAt(br, bc, window, window);
      if (!sa.ok() || !sb.ok()) {
        std::fprintf(stderr, "canonical sketch lookup failed\n");
        return 1;
      }
      const double exact = tabsketch::core::LpDistance(
          data.Window(ar, ac, window, window),
          data.Window(br, bc, window, window), sparse_params.p);
      if (exact <= 0.0) continue;
      const double approx = estimator->Estimate(*sa, *sb);
      relerrs.push_back(std::fabs(approx / exact - 1.0));
    }
    AuditRow row{window, Median(&relerrs)};
    audits.push_back(row);
    std::printf("audit window %2zu: median relerr %.4f (Li bound %.4f)\n",
                row.window, row.median_relerr, li_bound);
    if (row.median_relerr > li_bound) {
      failed = true;
      std::fprintf(stderr,
                   "FAIL: window %zu median relerr %.4f outside the Li "
                   "envelope %.4f\n",
                   row.window, row.median_relerr, li_bound);
    }
  }

  // --- 3. byte-identity across thread counts ---------------------------
  // Explicit 1 vs 4 threads (not DefaultThreadCount, which can be 1 on a
  // constrained runner and would make the comparison vacuous).
  PoolOptions serial_options = options;
  serial_options.threads = 1;
  auto serial_pool = SketchPool::Build(data, sparse_params, serial_options);
  PoolOptions wide_options = options;
  wide_options.threads = 4;
  auto wide_pool = SketchPool::Build(data, sparse_params, wide_options);
  if (!serial_pool.ok() || !wide_pool.ok()) {
    std::fprintf(stderr, "thread-identity builds failed\n");
    return 1;
  }
  const bool identical = PoolsAreBitIdentical(*serial_pool, *wide_pool) &&
                         PoolsAreBitIdentical(*serial_pool, *sparse_pool);
  std::printf("sparse pool bytes identical across 1 vs 4 threads: %s\n",
              identical ? "yes" : "NO");
  if (!identical) {
    failed = true;
    std::fprintf(stderr,
                 "FAIL: sparse pool differs across thread counts\n");
  }

  const bool written = tabsketch::bench::WriteBenchJson(
      "BENCH_sparse.json", "micro_sparse", [&](std::FILE* json) {
        std::fprintf(json,
                     "  \"table\": [%zu, %zu],\n"
                     "  \"windows\": [8, 16],\n"
                     "  \"sketch_k\": %zu,\n"
                     "  \"p\": %.1f,\n"
                     "  \"sparsity\": %.2f,\n"
                     "  \"min_speedup\": %.1f,\n"
                     "  \"build\": {\"dense_seconds\": %.4f, "
                     "\"sparse_seconds\": %.4f, \"speedup\": %.3f},\n"
                     "  \"li_bound\": %.4f,\n"
                     "  \"audit\": [\n",
                     data.rows(), data.cols(), kSketchK, sparse_params.p,
                     kSparsity, kMinSpeedup, dense_seconds, sparse_seconds,
                     speedup, li_bound);
        for (size_t i = 0; i < audits.size(); ++i) {
          std::fprintf(json,
                       "    {\"window\": %zu, \"median_relerr\": %.4f}%s\n",
                       audits[i].window, audits[i].median_relerr,
                       i + 1 < audits.size() ? "," : "");
        }
        std::fprintf(json,
                     "  ],\n"
                     "  \"identical_across_threads\": %s\n",
                     identical ? "true" : "false");
      });
  if (!written) return 1;
  if (!tabsketch::util::FlushObservability(observability)) return 1;
  return failed ? 1 : 0;
}
