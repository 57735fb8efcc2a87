// `perfbench mine`: the offline paper pipeline in-process — dyadic pool
// builds (dense and sparse), all-tile sketching and 20-means over two
// backends — with output checks and, in the traced run, per-layer spans.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iostream>
#include <memory>
#include <random>

#include "cluster/kmeans.h"
#include "cluster/sketch_backend.h"
#include "core/code_kernels.h"
#include "core/estimator.h"
#include "core/ondemand.h"
#include "core/sketch_pool.h"
#include "common.h"
#include "spans.h"
#include "stats.h"
#include "table/tiling.h"
#include "util/metrics.h"
#include "util/trace_recorder.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

core::SketchParams PoolParams(double sparsity) {
  return core::SketchParams{
      .p = 1.0, .k = kPoolK, .seed = kFamilySeed, .sparsity = sparsity};
}

core::PoolOptions PoolShape() {
  core::PoolOptions options;
  options.log2_min_rows = kPoolLog2Min;
  options.log2_max_rows = kPoolLog2Max;
  options.log2_min_cols = kPoolLog2Min;
  options.log2_max_cols = kPoolLog2Max;
  options.threads = kThreads;
  return options;
}

uint64_t CounterValue(const char* name) {
  return util::MetricsRegistry::Global().GetCounter(name)->value();
}

struct Inputs {
  uint64_t seed = 0;
  table::Matrix table;
  table::Matrix day;  // the first day: all stations x 144 bins
  std::unique_ptr<table::TileGrid> grid;
  std::unique_ptr<cluster::SketchBackend> precomputed;
};

/// Pool canonical sketches against Sketcher::SketchOf on sampled windows:
/// within rounding for the dense (FFT) pool, bit-identical for the sparse
/// (direct-walk) pool. Returns the number of mismatching windows.
size_t CheckPool(const core::SketchPool& pool, const table::Matrix& day,
                 bool exact, uint64_t seed) {
  const core::Sketcher sketcher =
      OrDie(core::Sketcher::Create(pool.params()), "sketcher");
  std::mt19937_64 rng(seed);
  size_t bad = 0;
  for (const auto& [rows, cols] : pool.CanonicalSizes()) {
    for (int sample = 0; sample < 4; ++sample) {
      const size_t r = rng() % (day.rows() - rows + 1);
      const size_t c = rng() % (day.cols() - cols + 1);
      const core::Sketch from_pool =
          OrDie(pool.CanonicalSketchAt(r, c, rows, cols), "pool sketch");
      const table::TableView window = day.Window(r, c, rows, cols);
      const core::Sketch direct = sketcher.SketchOf(window);
      const std::vector<table::Matrix>& kernels =
          sketcher.MatricesFor(rows, cols);
      for (size_t i = 0; i < direct.size(); ++i) {
        const double a = from_pool.values[i];
        const double b = direct.values[i];
        // FFT rounding scales with the magnitude of the summed terms, not
        // with the (possibly cancelled) result.
        double magnitude = 0.0;
        for (size_t y = 0; y < rows; ++y) {
          for (size_t x = 0; x < cols; ++x) {
            magnitude += std::abs(window(y, x) * kernels[i](y, x));
          }
        }
        const bool same =
            exact ? a == b : std::abs(a - b) <= 1e-9 * magnitude;
        if (!same) {
          std::cerr << "check: " << (exact ? "sparse" : "dense")
                    << " pool sketch differs from SketchOf at " << rows << "x"
                    << cols << " (" << r << "," << c << ")\n";
          ++bad;
          break;
        }
      }
    }
  }
  return bad;
}

/// The three timed stages. Each runs once per call and returns its wall
/// seconds; spans go to `spans` (a disabled log records nothing) and, when
/// `failures` is non-null, output-check mismatches are counted there
/// (checks run outside the timed regions).
double PoolStage(Inputs* in, SpanLog* spans, size_t* failures) {
  ScopedSpan stage(spans, "stage.pool_build");
  double seconds = 0.0;
  // One pool at a time: each is checked and freed before the next build.
  for (const double sparsity : {1.0, kPoolSparsity}) {
    const bool dense = sparsity == 1.0;
    const Clock::time_point build = Clock::now();
    util::Result<core::SketchPool> pool = util::Status::Internal("unset");
    {
      ScopedSpan span(spans, dense ? "fft.pool_dense" : "core.pool_sparse",
                      stage.id());
      pool =
          core::SketchPool::Build(in->day, PoolParams(sparsity), PoolShape());
    }
    seconds += SecondsSince(build);
    const core::SketchPool built = OrDie(std::move(pool), "pool build");
    if (failures != nullptr) {
      *failures += CheckPool(built, in->day, /*exact=*/!dense, in->seed);
    }
  }
  return seconds;
}

double TileStage(Inputs* in, SpanLog* spans, size_t* failures) {
  ScopedSpan stage(spans, "stage.tile_sketch");
  const Clock::time_point start = Clock::now();
  std::unique_ptr<core::Sketcher> sketcher;
  {
    ScopedSpan span(spans, "rng.sketcher_create", stage.id());
    sketcher = std::make_unique<core::Sketcher>(
        OrDie(core::Sketcher::Create(MineParams()), "sketcher"));
  }
  std::vector<core::Sketch> sketches;
  {
    ScopedSpan span(spans, "core.sketch_tiles", stage.id());
    sketches = core::SketchAllTilesParallel(*sketcher, *in->grid, kThreads);
  }
  const double seconds = SecondsSince(start);
  if (failures != nullptr && sketches.size() != in->grid->num_tiles()) {
    ++*failures;
  }
  return seconds;
}

double KMeansStage(Inputs* in, SpanLog* spans, size_t* failures) {
  cluster::KMeansOptions options;
  options.k = kClusters;
  options.max_iterations = kKMeansIterations;
  options.seed = in->seed;
  options.threads = kThreads;
  ScopedSpan stage(spans, "stage.kmeans");
  const Clock::time_point start = Clock::now();
  cluster::KMeansResult precomputed;
  cluster::KMeansResult ondemand;
  {
    ScopedSpan span(spans, "cluster.kmeans_precomputed", stage.id());
    precomputed =
        OrDie(cluster::RunKMeans(in->precomputed.get(), options), "kmeans");
  }
  {
    ScopedSpan span(spans, "cluster.kmeans_ondemand", stage.id());
    cluster::SketchBackend backend =
        OrDie(cluster::SketchBackend::Create(
                  in->grid.get(), MineParams(), cluster::SketchMode::kOnDemand,
                  core::EstimatorKind::kAuto, kThreads, /*cache_bytes=*/0,
                  core::QuantKind::kInt16),
              "on-demand backend");
    ondemand = OrDie(cluster::RunKMeans(&backend, options), "kmeans");
  }
  const double seconds = SecondsSince(start);
  if (failures != nullptr && precomputed.assignment != ondemand.assignment) {
    std::cerr << "check: k-means assignments differ between backends\n";
    ++*failures;
  }
  if (spans->enabled()) {
    util::MetricsRegistry::Global()
        .GetGauge("perfbench.kmeans.iterations")
        ->Set(static_cast<double>(precomputed.iterations));
    util::MetricsRegistry::Global()
        .GetCounter("perfbench.kmeans.distance_evals")
        ->Increment(precomputed.distance_evaluations +
                    ondemand.distance_evaluations);
  }
  return seconds;
}

/// Kernel generation alone, on fresh sketchers: every shape the pool builds
/// and the tile sketch use.
double KernelSeconds() {
  const Clock::time_point start = Clock::now();
  const core::Sketcher dense =
      OrDie(core::Sketcher::Create(PoolParams(1.0)), "sketcher");
  const core::Sketcher sparse =
      OrDie(core::Sketcher::Create(PoolParams(kPoolSparsity)), "sketcher");
  for (size_t h = size_t{1} << kPoolLog2Min; h <= (size_t{1} << kPoolLog2Max);
       h *= 2) {
    for (size_t w = size_t{1} << kPoolLog2Min;
         w <= (size_t{1} << kPoolLog2Max); w *= 2) {
      dense.MatricesFor(h, w);
      sparse.SparseKernelsFor(h, w);
    }
  }
  const core::Sketcher tiles =
      OrDie(core::Sketcher::Create(MineParams()), "sketcher");
  tiles.MatricesFor(kTileRows, kBinsPerDay);
  return SecondsSince(start);
}

}  // namespace

double EstimateNs(const core::SketchParams& params,
                  const std::vector<core::Sketch>& sketches, uint64_t seed) {
  const core::DistanceEstimator estimator =
      OrDie(core::DistanceEstimator::Create(params), "estimator");
  std::mt19937_64 rng(seed);
  std::vector<std::pair<size_t, size_t>> pairs(4096);
  for (auto& pair : pairs) {
    pair = {rng() % sketches.size(), rng() % sketches.size()};
  }
  std::vector<double> scratch;
  double sink = 0.0;
  std::vector<double> per_round;
  for (int round = 0; round < 5; ++round) {
    const Clock::time_point start = Clock::now();
    for (const auto& [a, b] : pairs) {
      sink += estimator.EstimateWithScratch(sketches[a].values,
                                            sketches[b].values, &scratch);
    }
    per_round.push_back(SecondsSince(start) * 1e9 / pairs.size());
  }
  if (std::isnan(sink)) std::cerr << "estimate sample produced NaN\n";
  return Median(per_round);
}

int CmdMine(const Flags& flags) {
  Inputs in;
  in.seed = static_cast<uint64_t>(flags.Num("seed", 1));
  const double seconds = flags.Num("seconds", 3.0);
  const std::string trace_out = flags.Str("trace-out");
  const bool traced = !trace_out.empty();

  // Set-up: generate the table, cut the day slice, build the grid and pay
  // the B(p) Monte-Carlo once.
  const Clock::time_point setup_start = Clock::now();
  in.table = GenerateTable(kMineStations, kMineDays, kTableSeed + 1);
  in.day = in.table.Window(0, 0, in.table.rows(), kBinsPerDay).ToMatrix();
  in.grid = std::make_unique<table::TileGrid>(OrDie(
      table::TileGrid::Create(&in.table, kTileRows, kBinsPerDay), "grid"));
  OrDie(core::DistanceEstimator::Create(MineParams()), "estimator");
  const double setup_s = SecondsSince(setup_start);
  // The precomputed backend's sketches are the tile-sketch stage's output
  // (paper scenario 1): built once here, outside every timed stage.
  in.precomputed = std::make_unique<cluster::SketchBackend>(OrDie(
      cluster::SketchBackend::Create(in.grid.get(), MineParams(),
                                     cluster::SketchMode::kPrecomputed,
                                     core::EstimatorKind::kAuto, kThreads),
      "precomputed backend"));

  // Each stage repeats for its share of `seconds` (and at least min_reps
  // times) and reports its median. The traced run alternates untraced and
  // traced repetitions, so one run gives both the layer split and the
  // tracing overhead.
  struct Stage {
    const char* name;
    double (*run)(Inputs*, SpanLog*, size_t*);
    double share;
    size_t min_reps;
    std::vector<double> plain;
    std::vector<double> traced;
  };
  Stage stages[] = {{"pool_build_s", PoolStage, 0.25, 3, {}, {}},
                    {"tile_sketch_s", TileStage, 0.2, 3, {}, {}},
                    {"kmeans_s", KMeansStage, 0.55, 2, {}, {}}};
  SpanLog spans(traced);
  SpanLog quiet(false);
  if (traced) util::TraceRecorder::Global().Start();
  size_t failures = 0;
  size_t attempted = 0;
  for (Stage& stage : stages) {
    const Clock::time_point start = Clock::now();
    for (size_t rep = 0;; ++rep) {
      if (rep >= stage.min_reps * (traced ? 2 : 1) &&
          SecondsSince(start) >= seconds * stage.share) {
        break;
      }
      const bool trace_rep = traced && rep % 2 == 1;
      util::MetricsRegistry::SetEnabled(trace_rep);
      util::MetricsRegistry::SetTraceActive(trace_rep);
      const double t = stage.run(&in, trace_rep ? &spans : &quiet,
                                 rep == 0 ? &failures : nullptr);
      (trace_rep ? stage.traced : stage.plain).push_back(t);
      ++attempted;
    }
  }
  util::MetricsRegistry::SetEnabled(false);
  util::MetricsRegistry::SetTraceActive(false);

  JsonObject out;
  out.Bool("correct", failures == 0);
  out.Num("attempted", static_cast<double>(attempted));
  out.Num("failed", static_cast<double>(failures));
  out.Num("setup_s", setup_s);
  for (const Stage& stage : stages) out.Num(stage.name, Median(stage.plain));
  out.Num("peak_rss_mb", PeakRssMb());
  out.Bool("avx2_active", core::kernels::Avx2Active());
  out.Str("build_type", PERFBENCH_BUILD_TYPE);
  out.Bool("metrics_compiled", PERFBENCH_METRICS_COMPILED != 0);
  if (traced) {
    util::TraceRecorder::Global().Stop();
    // Counters accumulate over the traced repetitions of each stage.
    const double n_pool = static_cast<double>(stages[0].traced.size());
    const double n_tile = static_cast<double>(stages[1].traced.size());
    const double n_kmeans = static_cast<double>(stages[2].traced.size());
    out.Num("rng.kernels_s", KernelSeconds());
    out.Num("fft.pool_dense_s",
            spans.TotalSeconds("fft.pool_dense") / n_pool);
    out.Num("fft.correlate.calls", (CounterValue("fft.correlate.calls") +
                                     CounterValue("fft.correlate_pair.calls")) /
                                        n_pool);
    out.Num("core.pool_sparse_s",
            spans.TotalSeconds("core.pool_sparse") / n_pool);
    out.Num("sparse.direct_kernels",
            CounterValue("sparse.pool.direct_kernels") / n_pool);
    out.Num("sparse.fft_kernels",
            CounterValue("sparse.pool.fft_kernels") / n_pool);
    out.Num("core.sketch_tiles_s",
            spans.TotalSeconds("core.sketch_tiles") / n_tile);
    const core::Sketcher sketcher =
        OrDie(core::Sketcher::Create(MineParams()), "sketcher");
    out.Num("core.estimate_ns.k256",
            EstimateNs(MineParams(),
                       core::SketchAllTilesParallel(sketcher, *in.grid,
                                                    kThreads),
                       in.seed));
    out.Num("cluster.kmeans_precomputed_s",
            spans.TotalSeconds("cluster.kmeans_precomputed") / n_kmeans);
    out.Num("cluster.kmeans_ondemand_s",
            spans.TotalSeconds("cluster.kmeans_ondemand") / n_kmeans);
    out.Num("cluster.distance_evals",
            CounterValue("perfbench.kmeans.distance_evals") / n_kmeans);
    out.Num("cluster.iterations", util::MetricsRegistry::Global()
                                      .GetGauge("perfbench.kmeans.iterations")
                                      ->value());
    const double scanned =
        static_cast<double>(CounterValue("quant.scan.tiles"));
    out.Num("quant.kmeans_kept_ratio",
            scanned > 0 ? CounterValue("quant.candidates.kept") / scanned
                        : 0.0);
    out.Num("attributed_frac.pool_build",
            spans.AttributedFraction("stage.pool_build"));
    out.Num("attributed_frac.tile_sketch",
            spans.AttributedFraction("stage.tile_sketch"));
    out.Num("attributed_frac.kmeans", spans.AttributedFraction("stage.kmeans"));
    double untraced = 0.0;
    double with_trace = 0.0;
    for (const Stage& stage : stages) {
      untraced += Median(stage.plain);
      with_trace += Median(stage.traced);
    }
    out.Num("trace.overhead_pct", 100.0 * (with_trace - untraced) / untraced);
    spans.WriteChromeJson(trace_out);
    const util::Status written =
        util::TraceRecorder::Global().WriteChromeJsonFile(
            trace_out.substr(0, trace_out.size() - 5) + ".lib.json");
    if (!written.ok()) std::cerr << written.ToString() << "\n";
  }
  std::cout << out.Render() << std::endl;
  return failures == 0 ? 0 : 3;
}

}  // namespace perfbench
