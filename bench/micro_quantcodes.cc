// Micro-benchmark of the quantized code tier (ISSUE-7): on a 1024x1024
// table tiled 32x32 (1024 tiles, k=64, p=1) it measures
//
//   1. per-pair scan throughput of the int8/int16 code kernels against the
//      full double-sketch estimator — the headline claim is that the int8
//      code scan beats the double scan by >= 3x in pairs/s (it also moves
//      8x fewer bytes, reported as effective GB/s);
//   2. recall of the true sketch-space top-k inside the prefilter's
//      candidate set as the slack is scaled by {0, 0.5, 1.0} — at the full
//      guaranteed slack recall must be exactly 1.0 (that is the
//      byte-identity bound of DESIGN.md §13, asserted here).
//
// Rows land in BENCH_quant.json; a failed assertion exits non-zero so CI
// can gate on it.
//
// usage: micro_quantcodes [--metrics-json=FILE] [--trace-json=FILE]

#include <algorithm>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "bench_json.h"
#include "core/code_kernels.h"
#include "core/estimator.h"
#include "core/lru_sketch_cache.h"
#include "core/quantized_sketch.h"
#include "core/sketcher.h"
#include "data/six_region.h"
#include "table/tiling.h"
#include "util/observability.h"
#include "util/timer.h"

namespace {

using tabsketch::core::DistanceEstimator;
using tabsketch::core::LruSketchCache;
using tabsketch::core::QuantizedCodePool;
using tabsketch::core::QuantKind;

constexpr size_t kQueries = 64;       // query tiles per scan timing rep
constexpr size_t kNeighbors = 10;     // top-k for the recall sweep
constexpr double kMinSpeedup = 3.0;   // int8 pairs/s vs double pairs/s

struct ScanRow {
  std::string tier;
  double ns_per_pair = 0;
  double gbps = 0;          // effective operand bytes moved per second
  double speedup = 1.0;     // vs the double-sketch scan
};

struct RecallRow {
  std::string tier;
  double slack_multiplier = 0;
  double recall = 0;         // true top-k found among kept candidates
  double kept_fraction = 0;  // candidates kept / corpus
};

/// Times `body(pair_index)` over `pairs` pairs, repeating until the clock
/// has at least ~0.2s of work, and returns ns per pair.
template <typename Body>
double TimePairs(size_t pairs, const Body& body) {
  size_t reps = 1;
  for (;;) {
    tabsketch::util::WallTimer timer;
    for (size_t r = 0; r < reps; ++r) {
      for (size_t i = 0; i < pairs; ++i) body(i);
    }
    const double seconds = timer.ElapsedSeconds();
    if (seconds >= 0.2 || reps >= 1u << 12) {
      return seconds * 1e9 / (static_cast<double>(reps) *
                              static_cast<double>(pairs));
    }
    reps *= 4;
  }
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
  auto grid = tabsketch::table::TileGrid::Create(&dataset->table, 32, 32);
  if (!grid.ok()) {
    std::fprintf(stderr, "grid: %s\n", grid.status().ToString().c_str());
    return 1;
  }
  const tabsketch::core::SketchParams params{.p = 1.0, .k = 64, .seed = 42};
  auto sketcher = tabsketch::core::Sketcher::Create(params);
  auto estimator = DistanceEstimator::Create(params);
  if (!sketcher.ok() || !estimator.ok()) {
    std::fprintf(stderr, "sketch family setup failed\n");
    return 1;
  }
  const size_t tiles = grid->num_tiles();

  // Materialize every tile sketch once (budget 0 keeps them all); scans
  // below are pure reads.
  LruSketchCache warm(&*sketcher, &*grid, 0);
  std::vector<std::shared_ptr<const tabsketch::core::Sketch>> sketches(tiles);
  for (size_t i = 0; i < tiles; ++i) sketches[i] = warm.Get(i);

  auto pool8 = QuantizedCodePool::Build(&warm, QuantKind::kInt8, params,
                                        grid->tile_rows(), grid->tile_cols());
  auto pool16 = QuantizedCodePool::Build(&warm, QuantKind::kInt16, params,
                                         grid->tile_rows(), grid->tile_cols());
  if (!pool8.ok() || !pool16.ok()) {
    std::fprintf(stderr, "code pool build failed\n");
    return 1;
  }

  std::printf("=== Micro-benchmark: quantized code scans ===\n");
  std::printf("%zu tiles (%zux%zu table, 32x32 tiles), k=%zu, p=%.0f\n",
              tiles, data_options.rows, data_options.cols, params.k,
              params.p);

  // --- 1. per-pair scan throughput: query tiles x whole corpus ---------
  const size_t pairs = kQueries * tiles;
  const bool l2 = false;  // p=1 serves through the median estimator
  std::vector<double> est_scratch;
  std::vector<double> sink(97);

  const double double_ns = TimePairs(pairs, [&](size_t i) {
    const size_t q = i / tiles;
    const size_t t = i % tiles;
    sink[i % sink.size()] = estimator->EstimateWithScratch(
        sketches[q]->values, sketches[t]->values, &est_scratch);
  });
  tabsketch::core::kernels::CodeScratch scratch;
  const double int8_ns = TimePairs(pairs, [&](size_t i) {
    sink[i % sink.size()] =
        pool8->CodeEstimate(i / tiles, i % tiles, l2, &scratch);
  });
  const double int16_ns = TimePairs(pairs, [&](size_t i) {
    sink[i % sink.size()] =
        pool16->CodeEstimate(i / tiles, i % tiles, l2, &scratch);
  });

  const auto scan_row = [&](const std::string& tier, double ns,
                            size_t operand_bytes) {
    ScanRow row;
    row.tier = tier;
    row.ns_per_pair = ns;
    row.gbps = static_cast<double>(2 * params.k * operand_bytes) / ns;
    row.speedup = double_ns / ns;
    return row;
  };
  std::vector<ScanRow> scans = {
      scan_row("double", double_ns, sizeof(double)),
      scan_row("int8", int8_ns, 1),
      scan_row("int16", int16_ns, 2),
  };
  std::printf("%-8s %14s %10s %10s\n", "tier", "ns/pair", "GB/s", "speedup");
  for (const ScanRow& row : scans) {
    std::printf("%-8s %14.1f %10.2f %9.2fx\n", row.tier.c_str(),
                row.ns_per_pair, row.gbps, row.speedup);
  }

  bool failed = false;
  const double int8_speedup = scans[1].speedup;
  if (int8_speedup < kMinSpeedup) {
    failed = true;
    std::fprintf(stderr, "FAIL: int8 code scan %.2fx vs double, needs %.1fx\n",
                 int8_speedup, kMinSpeedup);
  }

  // --- 2. recall of true top-k vs slack multiplier ---------------------
  // The knn prefilter keeps tile i iff its code distance is within
  // 2*slack of the k-th smallest code distance; scaling that slack by
  // m < 1 shows how much of the guarantee margin the data actually needs.
  std::vector<RecallRow> recalls;
  const auto sweep = [&](const QuantizedCodePool& pool,
                         const std::string& tier) {
    const double slack = pool.Slack(*estimator);
    const double inv_scale = 1.0 / estimator->scale();
    for (const double multiplier : {0.0, 0.5, 1.0}) {
      size_t found = 0, wanted = 0, kept_total = 0;
      for (size_t q = 0; q < kQueries; ++q) {
        // True sketch-space top-k (excluding the query itself).
        std::vector<std::pair<double, size_t>> exact;
        exact.reserve(tiles - 1);
        for (size_t t = 0; t < tiles; ++t) {
          if (t == q) continue;
          exact.emplace_back(estimator->EstimateWithScratch(
                                 sketches[q]->values, sketches[t]->values,
                                 &est_scratch),
                             t);
        }
        std::partial_sort(exact.begin(), exact.begin() + kNeighbors,
                          exact.end());
        // Code distances and the want-th smallest as the filter threshold.
        std::vector<double> code(tiles);
        std::vector<double> order;
        order.reserve(tiles - 1);
        for (size_t t = 0; t < tiles; ++t) {
          code[t] = pool.CodeEstimate(q, t, l2, &scratch) * inv_scale;
          if (t != q) order.push_back(code[t]);
        }
        std::nth_element(order.begin(), order.begin() + (kNeighbors - 1),
                         order.end());
        const double threshold =
            order[kNeighbors - 1] + 2.0 * slack * multiplier;
        size_t kept = 0;
        for (size_t t = 0; t < tiles; ++t) {
          if (t != q && !(code[t] > threshold)) ++kept;
        }
        kept_total += kept;
        for (size_t j = 0; j < kNeighbors; ++j) {
          ++wanted;
          if (!(code[exact[j].second] > threshold)) ++found;
        }
      }
      RecallRow row;
      row.tier = tier;
      row.slack_multiplier = multiplier;
      row.recall = static_cast<double>(found) / static_cast<double>(wanted);
      row.kept_fraction = static_cast<double>(kept_total) /
                          static_cast<double>(kQueries * (tiles - 1));
      recalls.push_back(row);
      std::printf("recall %-6s slack x%.1f: %.4f (kept %.1f%% of corpus)\n",
                  tier.c_str(), multiplier, row.recall,
                  row.kept_fraction * 100.0);
      if (multiplier == 1.0 && row.recall != 1.0) {
        failed = true;
        std::fprintf(stderr,
                     "FAIL: %s recall %.4f at full slack — the guaranteed "
                     "bound is violated\n",
                     tier.c_str(), row.recall);
      }
    }
  };
  sweep(*pool8, "int8");
  sweep(*pool16, "int16");

  const bool written = tabsketch::bench::WriteBenchJson(
      "BENCH_quant.json", "micro_quantcodes", [&](std::FILE* json) {
        std::fprintf(json,
                     "  \"tiles\": %zu,\n"
                     "  \"sketch_k\": %zu,\n"
                     "  \"p\": %.1f,\n"
                     "  \"min_int8_speedup\": %.1f,\n"
                     "  \"scan\": [\n",
                     tiles, params.k, params.p, kMinSpeedup);
        for (size_t i = 0; i < scans.size(); ++i) {
          std::fprintf(json,
                       "    {\"tier\": \"%s\", \"ns_per_pair\": %.1f, "
                       "\"gbps\": %.3f, \"speedup_vs_double\": %.3f}%s\n",
                       scans[i].tier.c_str(), scans[i].ns_per_pair,
                       scans[i].gbps, scans[i].speedup,
                       i + 1 < scans.size() ? "," : "");
        }
        std::fprintf(json, "  ],\n  \"recall\": [\n");
        for (size_t i = 0; i < recalls.size(); ++i) {
          std::fprintf(json,
                       "    {\"tier\": \"%s\", \"slack_multiplier\": %.1f, "
                       "\"recall\": %.4f, \"kept_fraction\": %.4f}%s\n",
                       recalls[i].tier.c_str(), recalls[i].slack_multiplier,
                       recalls[i].recall, recalls[i].kept_fraction,
                       i + 1 < recalls.size() ? "," : "");
        }
        std::fprintf(json, "  ]\n");
      });
  if (!written) return 1;
  if (!tabsketch::util::FlushObservability(observability)) return 1;
  return failed ? 1 : 0;
}
