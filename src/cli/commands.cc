#include "cli/commands.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "cli/flags.h"
#include "cluster/exact_backend.h"
#include "cluster/kmeans.h"
#include "cluster/sketch_backend.h"
#include "core/estimator.h"
#include "core/lp_distance.h"
#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "core/pool_io.h"
#include "core/quantized_sketch.h"
#include "core/sketch_cache.h"
#include "core/sketch_pool.h"
#include "core/sketch_io.h"
#include "core/sketcher.h"
#include "core/growing.h"
#include "serve/ingest.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "data/call_volume.h"
#include "data/six_region.h"
#include "eval/audit.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "util/atomic_file.h"
#include "util/metrics.h"
#include "util/metrics_snapshot.h"
#include "util/observability.h"
#include "util/parallel.h"
#include "util/timer.h"

namespace tabsketch::cli {
namespace {

constexpr char kUsage[] = R"(tabsketch — sketch-based Lp distance mining for tabular data

usage: tabsketch <command> [--flags]

commands:
  generate   synthesize a dataset and write it as a binary table
             --dataset=call-volume|six-region  --out=FILE
             [--rows=N --cols=N --days=N --seed=N]
  info       print a table's dimensions and value summary
             --table=FILE
  sketch     sketch every tile of a table and write the sketch set
             --table=FILE --out=FILE --tile-rows=N --tile-cols=N
             [--p=P --k=K --seed=N --threads=N]
             [--sparsity=S very sparse stable kernels, S in (0, 1],
             default 1 = dense; part of the family identity]
  distance   exact and sketch-estimated Lp distance between two rectangles
             --table=FILE --rect1=r,c,h,w --rect2=r,c,h,w
             [--p=P --k=K --seed=N]
  cluster    k-means over a table's tiles; prints a summary, optionally
             writes per-tile assignments as CSV
             --table=FILE --tile-rows=N --tile-cols=N [--k=N --p=P --seed=N]
             [--mode=exact|precomputed|ondemand] [--sketch-k=K]
             [--sparsity=S sparse sketch kernels (sketch modes only)]
             [--cache-bytes=N bound on-demand sketch memory, codes included,
             0 = keep all]
             [--quant=off|int8|int16 code-scan assignment prefilter over
             quantized sketches; output is byte-identical to off]
             [--threads=N] [--out=FILE]
  pool-build build a dyadic sketch pool over a table and persist it
             --table=FILE --out=FILE [--p=P --k=K --seed=N
             --min-log2=N --max-log2=N --threads=N]
             [--sparsity=S sparse kernels with per-kernel FFT vs O(nnz)
             direct routing; recorded in the pool header]
  pool-query O(k) sketch distance between two equal-size rectangles
             --pool=FILE --rect1=r,c,h,w --rect2=r,c,h,w
             [--table=FILE for an exact reference]
  query      answer a batch file of distance / knn requests over a table's
             tiles (answers to stdout, cache statistics to stderr; output is
             byte-identical for every --threads and --cache-bytes)
             --table=FILE --tile-rows=N --tile-cols=N --batch=FILE
             [--p=P --k=K --seed=N --sparsity=S]
             [--sketches=FILE precomputed sketch set]
             [--cache-bytes=N LRU sketch-cache budget, 0 = keep all]
             [--threads=N] [--refine exact re-rank of knn candidates]
             [--candidates=N refine candidate-set size, 0 = auto]
             [--quant=off|int8|int16 filter-refine knn over quantized
             sketch codes; answers stay byte-identical to off]
             [--out=FILE write answers to a file instead of stdout]
  serve      long-lived query daemon on 127.0.0.1: a line protocol over TCP
             speaking the batch grammar plus ping / reload <sketches> /
             stats [json|prom|slow] / health / quit (see docs/FORMATS.md);
             SIGINT/SIGTERM drains and exits
             --table=FILE --tile-rows=N --tile-cols=N
             [--p=P --k=K --seed=N --sparsity=S]
             [--sketches=FILE precomputed sketch set]
             [--cache-bytes=N] [--threads=N] [--refine] [--candidates=N]
             [--quant=off|int8|int16 quantized knn prefilter tier]
             [--ingest enable streaming append / retire / window verbs;
             requires --table, excludes --sketches/--cache-bytes/reload]
             [--port=N listen port, 0 = ephemeral]
             [--port-file=FILE write the bound port (readiness signal)]
             [--max-inflight=N concurrent requests, 0 = thread count]
             [--max-queue=N waiting requests before load-shedding]
             [--deadline-ms=N bound time queued for a slot, 0 = none]
             [--slow-ms=T record requests slower than T ms in the slow log
             (`stats slow`); 0 = off]
             [--slow-log=FILE also mirror slow-log entries as JSONL]
             [--stats-interval=S rolling metrics-snapshot period backing
             the stats verb's window rates, seconds, default 1]
  ingest     stream column pieces through a sliding-window sketch store and
             write the window's sketch set (byte-identical to `sketch` over
             the stitched window table)
             --pieces=F1,F2,... --tile-rows=N --tile-cols=N --out=FILE
             [--p=P --k=K --seed=N --sparsity=S --threads=N]
             [--window=N keep at most N tile columns, retiring the oldest]
             [--table-out=FILE also write the final window table]
  top        live view of a running serve daemon: polls its `stats json`
             verb and prints one line per interval with rates diffed
             client-side between consecutive polls
             --port=N (or --port-file=FILE written by serve)
             [--interval=S poll period in seconds, default 1]
             [--once poll twice, print a single data line, exit]
  help       show this message

global flags (every command):
  --metrics-json=FILE  dump per-stage timings and counters as JSON
                       ("tabsketch-metrics-v1", see docs/FORMATS.md)
  --trace-json=FILE    record a flight-recorder timeline and write it as
                       Chrome trace-event JSON ("tabsketch-trace-v1");
                       open in Perfetto or chrome://tracing
  --audit-rate=R       shadow-check an R-fraction (0..1, default 0) of
                       sketch distance estimates against the exact Lp
                       distance; errors land in audit.* metrics
)";

/// Prints `status` to err and returns 1 (for `return Fail(...)`).
int Fail(std::ostream& err, const util::Status& status) {
  err << "error: " << status.ToString() << "\n";
  return 1;
}

// Command-local error plumbing: every command takes `err` by this name and
// returns an int exit code, so a failed Status/Result becomes `return 1`
// with the diagnostic printed.
#define TABSKETCH_RETURN_CLI(expr)                        \
  do {                                                    \
    const ::tabsketch::util::Status _cli_status = (expr); \
    if (!_cli_status.ok()) return Fail(err, _cli_status); \
  } while (false)

#define TABSKETCH_ASSIGN_CLI(lhs, rexpr)                          \
  TABSKETCH_ASSIGN_CLI_IMPL_(                                     \
      TABSKETCH_CONCAT_(_cli_result, __LINE__), lhs, rexpr)
#define TABSKETCH_ASSIGN_CLI_IMPL_(result, lhs, rexpr)    \
  auto result = (rexpr);                                  \
  if (!result.ok()) return Fail(err, result.status());    \
  lhs = std::move(result).value()

// --- Shared flag groups: each is parsed in exactly one place. --------------

/// The sketch family: --p, --seed, --sparsity and the sketch size, read
/// from `k_flag` (`cluster` uses --k for the cluster count) with the
/// command's default.
util::Result<core::SketchParams> FamilyFromFlags(
    const Flags& flags, size_t default_k, const std::string& k_flag = "k") {
  core::SketchParams params;
  TABSKETCH_ASSIGN_OR_RETURN(params.p, flags.GetDouble("p", 1.0));
  TABSKETCH_ASSIGN_OR_RETURN(params.k, flags.GetSize(k_flag, default_k));
  TABSKETCH_ASSIGN_OR_RETURN(const int64_t seed, flags.GetInt("seed", 42));
  params.seed = static_cast<uint64_t>(seed);
  TABSKETCH_ASSIGN_OR_RETURN(params.sparsity,
                             flags.GetDouble("sparsity", 1.0));
  // Phrased in terms of the flag: the params-level validation would fire
  // too, but without naming the flag the user typed.
  if (!(params.sparsity > 0.0) || params.sparsity > 1.0) {
    std::ostringstream msg;
    msg << "--sparsity must be in (0, 1], got " << params.sparsity;
    return util::Status::InvalidArgument(msg.str());
  }
  return params;
}

/// --threads: the worker count, defaulting to the machine's; 0 means 1.
util::Result<size_t> ThreadsFromFlags(const Flags& flags) {
  TABSKETCH_ASSIGN_OR_RETURN(
      const size_t threads,
      flags.GetSize("threads", util::DefaultThreadCount()));
  return std::max<size_t>(threads, 1);
}

/// A --rect1/--rect2 rectangle: top-left corner, then height and width.
struct Rect {
  size_t row;
  size_t col;
  size_t rows;
  size_t cols;

  bool FitsIn(const table::Matrix& matrix) const {
    return row + rows <= matrix.rows() && col + cols <= matrix.cols();
  }
  table::TableView WindowOf(const table::Matrix& matrix) const {
    return matrix.Window(row, col, rows, cols);
  }
};

/// --rect1 and --rect2 ("r,c,h,w"): two non-empty rectangles of equal
/// dimensions, the only pairs a sketch distance is defined for.
util::Result<std::array<Rect, 2>> RectsFromFlags(const Flags& flags) {
  std::array<Rect, 2> rects;
  for (size_t i = 0; i < rects.size(); ++i) {
    const std::string name = "rect" + std::to_string(i + 1);
    TABSKETCH_ASSIGN_OR_RETURN(const std::string text, flags.GetRequired(name));
    TABSKETCH_ASSIGN_OR_RETURN(const std::vector<size_t> fields,
                               ParseSizeList(text, 4));
    if (fields[2] == 0 || fields[3] == 0) {
      return util::Status::InvalidArgument("--" + name +
                                           " must not be empty, got '" +
                                           text + "'");
    }
    rects[i] = {fields[0], fields[1], fields[2], fields[3]};
  }
  if (rects[0].rows != rects[1].rows || rects[0].cols != rects[1].cols) {
    return util::Status::InvalidArgument(
        "rectangles must have equal dimensions");
  }
  return rects;
}

/// The serving pipeline `query` and `serve` share: table and tile shape,
/// the sketch source (a --sketches file, or the family flags — never both),
/// the cache budget and the engine options.
util::Result<serve::SnapshotSpec> SnapshotSpecFromFlags(const Flags& flags) {
  serve::SnapshotSpec spec;
  TABSKETCH_ASSIGN_OR_RETURN(spec.table_path, flags.GetString("table", ""));
  TABSKETCH_ASSIGN_OR_RETURN(spec.tile_rows, flags.GetSize("tile-rows", 0));
  TABSKETCH_ASSIGN_OR_RETURN(spec.tile_cols, flags.GetSize("tile-cols", 0));
  TABSKETCH_ASSIGN_OR_RETURN(spec.sketches_path,
                             flags.GetString("sketches", ""));
  TABSKETCH_ASSIGN_OR_RETURN(spec.params, FamilyFromFlags(flags, 256));
  if (!spec.sketches_path.empty() &&
      (flags.Has("p") || flags.Has("k") || flags.Has("seed") ||
       flags.Has("sparsity"))) {
    return util::Status::InvalidArgument(
        "--p/--k/--seed/--sparsity come from the --sketches file; drop the "
        "flags");
  }
  TABSKETCH_ASSIGN_OR_RETURN(spec.cache_bytes,
                             flags.GetSize("cache-bytes", 0));
  TABSKETCH_ASSIGN_OR_RETURN(spec.engine.threads, ThreadsFromFlags(flags));
  TABSKETCH_ASSIGN_OR_RETURN(spec.engine.refine,
                             flags.GetBool("refine", false));
  TABSKETCH_ASSIGN_OR_RETURN(spec.engine.candidates,
                             flags.GetSize("candidates", 0));
  TABSKETCH_ASSIGN_OR_RETURN(const std::string quant,
                             flags.GetString("quant", "off"));
  TABSKETCH_ASSIGN_OR_RETURN(spec.engine.quant, core::ParseQuantKind(quant));
  return spec;
}

// --- Commands: parse flag groups, call the library, print. -----------------

int CmdGenerate(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string dataset,
                       flags.GetRequired("dataset"));
  TABSKETCH_ASSIGN_CLI(const std::string path, flags.GetRequired("out"));
  TABSKETCH_ASSIGN_CLI(const int64_t seed, flags.GetInt("seed", 42));

  table::Matrix matrix;
  if (dataset == "call-volume") {
    data::CallVolumeOptions options;
    TABSKETCH_ASSIGN_CLI(options.num_stations, flags.GetSize("rows", 1024));
    TABSKETCH_ASSIGN_CLI(options.num_days, flags.GetSize("days", 1));
    options.seed = static_cast<uint64_t>(seed);
    TABSKETCH_ASSIGN_CLI(matrix, data::GenerateCallVolume(options));
  } else if (dataset == "six-region") {
    data::SixRegionOptions options;
    TABSKETCH_ASSIGN_CLI(options.rows, flags.GetSize("rows", 256));
    TABSKETCH_ASSIGN_CLI(options.cols, flags.GetSize("cols", 512));
    options.seed = static_cast<uint64_t>(seed);
    TABSKETCH_ASSIGN_CLI(data::SixRegionData generated,
                         data::GenerateSixRegion(options));
    matrix = std::move(generated.table);
  } else {
    return Fail(err, util::Status::InvalidArgument(
                         "unknown --dataset '" + dataset +
                         "' (call-volume, six-region)"));
  }

  TABSKETCH_RETURN_CLI(table::WriteBinary(matrix, path));
  out << "wrote " << matrix.rows() << "x" << matrix.cols() << " table to "
      << path << "\n";
  return 0;
}

int CmdInfo(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string path, flags.GetRequired("table"));
  TABSKETCH_ASSIGN_CLI(const table::Matrix matrix, table::ReadBinary(path));
  out << path << ": " << matrix.rows() << "x" << matrix.cols() << " ("
      << matrix.size() * sizeof(double) << " bytes)\n";
  if (matrix.size() == 0) {
    out << "  empty table\n";
    return 0;
  }
  double minimum = matrix.Values().front();
  double maximum = minimum;
  double total = 0.0;
  for (double value : matrix.Values()) {
    minimum = std::min(minimum, value);
    maximum = std::max(maximum, value);
    total += value;
  }
  out << "  min " << minimum << ", max " << maximum << ", mean "
      << total / static_cast<double>(matrix.size()) << "\n";
  return 0;
}

int CmdSketch(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string table_path,
                       flags.GetRequired("table"));
  TABSKETCH_ASSIGN_CLI(const std::string out_path, flags.GetRequired("out"));
  TABSKETCH_ASSIGN_CLI(const size_t tile_rows, flags.GetSize("tile-rows", 0));
  TABSKETCH_ASSIGN_CLI(const size_t tile_cols, flags.GetSize("tile-cols", 0));
  TABSKETCH_ASSIGN_CLI(const core::SketchParams params,
                       FamilyFromFlags(flags, 256));
  TABSKETCH_ASSIGN_CLI(const size_t threads, ThreadsFromFlags(flags));

  TABSKETCH_ASSIGN_CLI(const table::Matrix matrix,
                       table::ReadBinary(table_path));
  TABSKETCH_ASSIGN_CLI(const table::TileGrid grid,
                       table::TileGrid::Create(&matrix, tile_rows, tile_cols));
  TABSKETCH_ASSIGN_CLI(const core::Sketcher sketcher,
                       core::Sketcher::Create(params));

  util::WallTimer timer;
  core::SketchSet set;
  set.params = params;
  set.object_rows = grid.tile_rows();
  set.object_cols = grid.tile_cols();
  set.sketches = core::SketchAllTilesParallel(sketcher, grid, threads);
  const double seconds = timer.ElapsedSeconds();

  TABSKETCH_RETURN_CLI(core::WriteSketchSet(set, out_path));
  out << "sketched " << set.sketches.size() << " tiles (k=" << params.k
      << ", p=" << params.p << ") in " << seconds << "s -> " << out_path
      << "\n";
  return 0;
}

int CmdDistance(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string table_path,
                       flags.GetRequired("table"));
  TABSKETCH_ASSIGN_CLI(const auto rects, RectsFromFlags(flags));
  TABSKETCH_ASSIGN_CLI(const core::SketchParams params,
                       FamilyFromFlags(flags, 256));

  TABSKETCH_ASSIGN_CLI(const table::Matrix matrix,
                       table::ReadBinary(table_path));
  if (!rects[0].FitsIn(matrix) || !rects[1].FitsIn(matrix)) {
    return Fail(err, util::Status::OutOfRange(
                         "rectangle exceeds the table"));
  }

  // Validate the family (in particular p in (0, 2]) before LpDistance, whose
  // precondition on p is a hard CHECK rather than a recoverable status.
  TABSKETCH_ASSIGN_CLI(const core::Sketcher sketcher,
                       core::Sketcher::Create(params));
  TABSKETCH_ASSIGN_CLI(const core::DistanceEstimator estimator,
                       core::DistanceEstimator::Create(params));

  const table::TableView view1 = rects[0].WindowOf(matrix);
  const table::TableView view2 = rects[1].WindowOf(matrix);
  const double exact = core::LpDistance(view1, view2, params.p);
  const double approx = estimator.Estimate(sketcher.SketchOf(view1),
                                           sketcher.SketchOf(view2));
  // The exact distance is already on hand here, so auditing costs nothing
  // extra: record the pair whenever the auditor is on.
  if (eval::SketchAuditor::Enabled()) {
    eval::SketchAuditor::Global()
        .ChannelFor(params.p, params.k, params.sparsity)
        ->Record(exact, approx);
  }
  out << "L" << params.p << " distance, " << rects[0].rows << "x"
      << rects[0].cols << " rectangles:\n"
      << "  exact:     " << exact << "\n"
      << "  estimated: " << approx << "  (k=" << params.k << ")\n";
  return 0;
}

int CmdCluster(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string table_path,
                       flags.GetRequired("table"));
  TABSKETCH_ASSIGN_CLI(const size_t tile_rows, flags.GetSize("tile-rows", 0));
  TABSKETCH_ASSIGN_CLI(const size_t tile_cols, flags.GetSize("tile-cols", 0));
  TABSKETCH_ASSIGN_CLI(const size_t num_clusters, flags.GetSize("k", 8));
  TABSKETCH_ASSIGN_CLI(const std::string mode,
                       flags.GetString("mode", "precomputed"));
  TABSKETCH_ASSIGN_CLI(const core::SketchParams params,
                       FamilyFromFlags(flags, 256, "sketch-k"));
  TABSKETCH_ASSIGN_CLI(const size_t cache_bytes,
                       flags.GetSize("cache-bytes", 0));
  TABSKETCH_ASSIGN_CLI(const std::string quant_text,
                       flags.GetString("quant", "off"));
  TABSKETCH_ASSIGN_CLI(const core::QuantKind quant,
                       core::ParseQuantKind(quant_text));
  TABSKETCH_ASSIGN_CLI(const size_t threads, ThreadsFromFlags(flags));
  TABSKETCH_ASSIGN_CLI(const std::string out_path,
                       flags.GetString("out", ""));

  // Flag conflicts fail before any table IO.
  if (mode == "exact") {
    if (quant != core::QuantKind::kOff) {
      return Fail(err, util::Status::InvalidArgument(
                           "--quant applies to sketch modes only; "
                           "--mode=exact has no sketches to quantize"));
    }
    if (flags.Has("sparsity")) {
      return Fail(err, util::Status::InvalidArgument(
                           "--sparsity applies to sketch modes only; "
                           "--mode=exact has no sketch family"));
    }
  }

  TABSKETCH_ASSIGN_CLI(const table::Matrix matrix,
                       table::ReadBinary(table_path));
  TABSKETCH_ASSIGN_CLI(const table::TileGrid grid,
                       table::TileGrid::Create(&matrix, tile_rows, tile_cols));

  // Backend per --mode.
  std::unique_ptr<cluster::ClusteringBackend> backend;
  if (mode == "exact") {
    TABSKETCH_ASSIGN_CLI(cluster::ExactBackend exact,
                         cluster::ExactBackend::Create(&grid, params.p));
    backend = std::make_unique<cluster::ExactBackend>(std::move(exact));
  } else if (mode == "precomputed" || mode == "ondemand") {
    TABSKETCH_ASSIGN_CLI(
        cluster::SketchBackend sketch,
        cluster::SketchBackend::Create(
            &grid, params,
            mode == "precomputed" ? cluster::SketchMode::kPrecomputed
                                  : cluster::SketchMode::kOnDemand,
            core::EstimatorKind::kAuto, threads, cache_bytes, quant));
    backend = std::make_unique<cluster::SketchBackend>(std::move(sketch));
  } else {
    return Fail(err, util::Status::InvalidArgument(
                         "unknown --mode '" + mode +
                         "' (exact, precomputed, ondemand)"));
  }

  TABSKETCH_ASSIGN_CLI(
      const cluster::KMeansResult result,
      cluster::RunKMeans(backend.get(), {.k = num_clusters,
                                         .max_iterations = 50,
                                         .seed = params.seed,
                                         .threads = threads}));
  out << "kmeans: " << result.iterations << " iterations, "
      << (result.converged ? "converged" : "iteration cap") << ", "
      << result.distance_evaluations << " distance evals, " << result.seconds
      << "s\n";
  const std::vector<int>& assignment = result.assignment;

  // Cluster sizes summary.
  int max_label = -1;
  for (int label : assignment) max_label = std::max(max_label, label);
  std::vector<size_t> sizes(static_cast<size_t>(max_label + 1), 0);
  for (int label : assignment) {
    if (label >= 0) ++sizes[static_cast<size_t>(label)];
  }
  out << "cluster sizes:";
  for (size_t size : sizes) out << " " << size;
  out << "\n";

  // End-of-run accuracy audit summary (only when --audit-rate sampled
  // sketch estimates; exact-mode runs have nothing to audit).
  if (eval::SketchAuditor::Enabled()) {
    for (const auto& audit : eval::SketchAuditor::Global().Summaries()) {
      out << "audit p=" << audit.p << " k=" << audit.k;
      if (audit.sparsity < 1.0) out << " sparsity=" << audit.sparsity;
      out << ": " << audit.samples << " sampled, median relerr "
          << audit.median_relerr << ", worst " << audit.worst_relerr << ", "
          << audit.violations << " over eps=" << audit.epsilon << "\n";
    }
  }

  if (!out_path.empty()) {
    TABSKETCH_RETURN_CLI(
        util::WriteFileAtomic(out_path, [&](std::ostream& csv) {
          csv << "tile,grid_row,grid_col,cluster\n";
          for (size_t t = 0; t < assignment.size(); ++t) {
            csv << t << "," << t / grid.grid_cols() << ","
                << t % grid.grid_cols() << "," << assignment[t] << "\n";
          }
        }));
    out << "assignments written to " << out_path << "\n";
  }
  return 0;
}

int CmdPoolBuild(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string table_path,
                       flags.GetRequired("table"));
  TABSKETCH_ASSIGN_CLI(const std::string out_path, flags.GetRequired("out"));
  TABSKETCH_ASSIGN_CLI(const core::SketchParams params,
                       FamilyFromFlags(flags, 64));
  core::PoolOptions options;
  TABSKETCH_ASSIGN_CLI(options.log2_min_rows, flags.GetSize("min-log2", 3));
  TABSKETCH_ASSIGN_CLI(options.log2_max_rows, flags.GetSize("max-log2", 63));
  options.log2_min_cols = options.log2_min_rows;
  options.log2_max_cols = options.log2_max_rows;
  TABSKETCH_ASSIGN_CLI(options.threads, ThreadsFromFlags(flags));

  TABSKETCH_ASSIGN_CLI(const table::Matrix matrix,
                       table::ReadBinary(table_path));
  util::WallTimer timer;
  TABSKETCH_ASSIGN_CLI(const core::SketchPool pool,
                       core::SketchPool::Build(matrix, params, options));
  const double seconds = timer.ElapsedSeconds();
  TABSKETCH_RETURN_CLI(core::WriteSketchPool(pool, out_path));
  out << "pool with " << pool.CanonicalSizes().size()
      << " canonical sizes built in " << seconds << "s -> " << out_path
      << "\n";
  return 0;
}

int CmdPoolQuery(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string pool_path,
                       flags.GetRequired("pool"));
  TABSKETCH_ASSIGN_CLI(const auto rects, RectsFromFlags(flags));
  TABSKETCH_ASSIGN_CLI(const std::string table_path,
                       flags.GetString("table", ""));

  TABSKETCH_ASSIGN_CLI(const core::SketchPool pool,
                       core::ReadSketchPool(pool_path));
  const auto& [r1, r2] = rects;
  TABSKETCH_ASSIGN_CLI(const core::Sketch sketch1,
                       pool.Query(r1.row, r1.col, r1.rows, r1.cols));
  TABSKETCH_ASSIGN_CLI(const core::Sketch sketch2,
                       pool.Query(r2.row, r2.col, r2.rows, r2.cols));
  TABSKETCH_ASSIGN_CLI(const core::DistanceEstimator estimator,
                       core::DistanceEstimator::Create(pool.params()));
  out << "compound-sketch estimate: " << estimator.Estimate(sketch1, sketch2)
      << "\n";
  if (!table_path.empty()) {
    TABSKETCH_ASSIGN_CLI(const table::Matrix matrix,
                         table::ReadBinary(table_path));
    if (!r1.FitsIn(matrix) || !r2.FitsIn(matrix)) {
      return Fail(err, util::Status::OutOfRange(
                           "rectangle exceeds the table"));
    }
    out << "exact reference:          "
        << core::LpDistance(r1.WindowOf(matrix), r2.WindowOf(matrix),
                            pool.params().p)
        << "  (compound estimates carry the Theorem-5 band)\n";
  }
  return 0;
}

int CmdQuery(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const serve::SnapshotSpec spec,
                       SnapshotSpecFromFlags(flags));
  TABSKETCH_RETURN_CLI(flags.GetRequired("table").status());
  TABSKETCH_ASSIGN_CLI(const std::string batch_path,
                       flags.GetRequired("batch"));
  TABSKETCH_ASSIGN_CLI(const std::string out_path,
                       flags.GetString("out", ""));
  TABSKETCH_ASSIGN_CLI(const std::vector<serve::QueryRequest> batch,
                       serve::ParseBatchFile(batch_path));

  // The whole serving pipeline (table, grid, sketch source, estimator,
  // engine) is one Snapshot — the same composition `tabsketch serve`
  // publishes per generation. Sketch source selection lives there: a
  // precomputed set from disk, or compute through the LRU cache — keeping
  // every tile by default, byte-budgeted with --cache-bytes. Every source
  // and budget yields byte-identical answers (sketches are deterministic).
  TABSKETCH_ASSIGN_CLI(const std::shared_ptr<const serve::Snapshot> snapshot,
                       serve::Snapshot::Create(spec));
  // The cache's counters are lifetime totals, which include the code tier's
  // build; the batch's own lookups are the difference across Run.
  const core::TileSketchCache& cache = snapshot->cache();
  const size_t hits_before = cache.hits();
  const size_t computed_before = cache.computed();

  util::WallTimer timer;
  TABSKETCH_ASSIGN_CLI(const std::vector<std::string> results,
                       snapshot->engine().Run(batch));
  const double seconds = timer.ElapsedSeconds();

  if (!out_path.empty()) {
    TABSKETCH_RETURN_CLI(
        util::WriteFileAtomic(out_path, [&](std::ostream& file) {
          for (const std::string& line : results) file << line << "\n";
        }));
  } else {
    for (const std::string& line : results) out << line << "\n";
  }
  // Statistics go to stderr: they vary with --threads/--cache-bytes and
  // timing, while the answers above must not.
  err << "answered " << results.size() << " requests in " << seconds
      << "s (" << cache.hits() - hits_before << " cache hits, "
      << cache.computed() - computed_before << " sketches computed)\n";
  const auto* lru = dynamic_cast<const core::LruSketchCache*>(&cache);
  if (lru != nullptr && lru->capacity_bytes() > 0) {
    err << "lru cache: " << lru->evictions() << " evictions, peak "
        << lru->peak_bytes() << " of " << lru->capacity_bytes()
        << " budget bytes\n";
  }
  return 0;
}

/// File descriptor the serve signal handler pokes to request shutdown; -1
/// when no serve command is active. Plain int store/load is async-signal-safe
/// via std::atomic with relaxed ordering.
std::atomic<int> g_serve_stop_fd{-1};

extern "C" void TabsketchServeSignalHandler(int /*signum*/) {
  const int fd = g_serve_stop_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    // The self-pipe is the wake mechanism; if it is full the daemon is
    // already waking up, so a short/failed write is fine to ignore.
    const ssize_t ignored = write(fd, &byte, 1);
    (void)ignored;
  }
}

/// Enables the metrics registry for a daemon's lifetime. The stats verbs
/// serve live counters, so `serve` needs metrics on even when no
/// --metrics-json asked for a final dump. The destructor restores the
/// prior state so repeated in-process invocations (the tests) stay
/// isolated; when --metrics-json already enabled the registry this is a
/// no-op both ways.
class ScopedMetricsEnable {
 public:
  ScopedMetricsEnable() : was_enabled_(util::MetricsRegistry::Enabled()) {
    if (!was_enabled_) {
      util::PreregisterCoreMetrics(&util::MetricsRegistry::Global());
      util::MetricsRegistry::Global().ResetValues();
      util::MetricsRegistry::SetEnabled(true);
    }
  }
  ~ScopedMetricsEnable() {
    if (!was_enabled_) util::MetricsRegistry::SetEnabled(false);
  }
  ScopedMetricsEnable(const ScopedMetricsEnable&) = delete;
  ScopedMetricsEnable& operator=(const ScopedMetricsEnable&) = delete;

 private:
  const bool was_enabled_;
};

int CmdServe(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const serve::SnapshotSpec spec,
                       SnapshotSpecFromFlags(flags));
  TABSKETCH_ASSIGN_CLI(const bool ingest_enabled,
                       flags.GetBool("ingest", false));
  TABSKETCH_ASSIGN_CLI(const int64_t port, flags.GetInt("port", 0));
  TABSKETCH_ASSIGN_CLI(const std::string port_file,
                       flags.GetString("port-file", ""));
  serve::ServerOptions options;
  TABSKETCH_ASSIGN_CLI(options.max_inflight,
                       flags.GetSize("max-inflight", 0));
  TABSKETCH_ASSIGN_CLI(options.max_queue, flags.GetSize("max-queue", 64));
  TABSKETCH_ASSIGN_CLI(const size_t deadline_ms,
                       flags.GetSize("deadline-ms", 0));
  TABSKETCH_ASSIGN_CLI(options.slow_ms, flags.GetDouble("slow-ms", 0.0));
  TABSKETCH_ASSIGN_CLI(options.slow_log_path,
                       flags.GetString("slow-log", ""));
  util::MetricsTicker::Options ticker_options;
  TABSKETCH_ASSIGN_CLI(ticker_options.interval_seconds,
                       flags.GetDouble("stats-interval", 1.0));
  TABSKETCH_ASSIGN_CLI(ticker_options.metrics_json_path,
                       flags.GetString("metrics-json", ""));
  if (port < 0 || port > 65535) {
    return Fail(err, util::Status::InvalidArgument(
                         "--port must be in [0, 65535]"));
  }
  if (options.slow_ms < 0.0) {
    return Fail(err, util::Status::InvalidArgument(
                         "--slow-ms must be >= 0 (0 = off)"));
  }
  if (!options.slow_log_path.empty() && options.slow_ms <= 0.0) {
    return Fail(err, util::Status::InvalidArgument(
                         "--slow-log needs --slow-ms > 0"));
  }
  if (!(ticker_options.interval_seconds > 0.0)) {
    return Fail(err, util::Status::InvalidArgument(
                         "--stats-interval must be > 0"));
  }
  if (spec.table_path.empty() && spec.sketches_path.empty()) {
    return Fail(err, util::Status::InvalidArgument(
                         "serve needs --table and/or --sketches"));
  }
  if (ingest_enabled && spec.table_path.empty()) {
    return Fail(err, util::Status::InvalidArgument(
                         "--ingest needs --table to seed the window"));
  }
  if (ingest_enabled && !spec.sketches_path.empty()) {
    return Fail(err, util::Status::InvalidArgument(
                         "--ingest computes its own sketches; drop "
                         "--sketches"));
  }
  if (ingest_enabled && spec.cache_bytes != 0) {
    return Fail(err, util::Status::InvalidArgument(
                         "--ingest pins every window sketch; drop "
                         "--cache-bytes"));
  }

  // Live introspection (`stats`, `health`, `top`) reads the registry, so
  // the daemon always runs with metrics on — declared before the ticker and
  // the server so it outlives both.
  const ScopedMetricsEnable metrics_enable;

  // The slow log and the ticker write their files for the daemon's whole
  // life; an unwritable path fails the start here, before any work.
  if (!options.slow_log_path.empty() &&
      !std::ofstream(options.slow_log_path, std::ios::app)) {
    return Fail(err, util::Status::IOError("cannot open for appending: " +
                                           options.slow_log_path));
  }
  if (!ticker_options.metrics_json_path.empty()) {
    TABSKETCH_RETURN_CLI(util::WriteMetricsJsonFile(
        util::MetricsRegistry::Global(), ticker_options.metrics_json_path));
  }

  // With --ingest the StreamingIngest builds the first generation (and all
  // successors); `reload` is disabled — it would publish a snapshot the
  // ingest driver knows nothing about, desyncing its incremental state.
  std::unique_ptr<serve::StreamingIngest> ingest;
  std::shared_ptr<const serve::Snapshot> snapshot;
  if (ingest_enabled) {
    TABSKETCH_ASSIGN_CLI(ingest, serve::StreamingIngest::Create(spec));
    snapshot = ingest->initial();
  } else {
    TABSKETCH_ASSIGN_CLI(snapshot, serve::Snapshot::Create(spec));
  }
  const size_t tiles = snapshot->num_tiles();
  serve::SnapshotHolder holder(std::move(snapshot));

  // Rolling-snapshot ticker: backs the stats verb's last-window rates and,
  // when --metrics-json is set, atomically rewrites that file every
  // interval so a crash or SIGKILL still leaves fresh metrics behind.
  // Declared before the server so it is destroyed (final tick) after it.
  util::MetricsTicker ticker(ticker_options);

  options.port = static_cast<uint16_t>(port);
  options.deadline_ms = static_cast<uint32_t>(deadline_ms);
  options.ingest = ingest.get();
  options.ticker = &ticker;
  TABSKETCH_ASSIGN_CLI(const std::unique_ptr<serve::Server> server,
                       serve::Server::Start(&holder, options));

  // Self-pipe shutdown: SIGINT/SIGTERM write one byte, the foreground
  // thread blocks reading it, then drains the server. Handlers are
  // restored before returning so repeated in-process invocations (tests)
  // start clean.
  int stop_pipe[2];
  if (pipe(stop_pipe) != 0) {
    return Fail(err, util::Status::IOError("cannot create signal pipe"));
  }
  g_serve_stop_fd.store(stop_pipe[1], std::memory_order_relaxed);
  struct sigaction action {};
  struct sigaction old_int {};
  struct sigaction old_term {};
  action.sa_handler = TabsketchServeSignalHandler;
  sigemptyset(&action.sa_mask);
  sigaction(SIGINT, &action, &old_int);
  sigaction(SIGTERM, &action, &old_term);

  out << "serving " << holder.Current()->description() << " (" << tiles
      << " tiles) on 127.0.0.1:" << server->port() << "\n";
  out.flush();
  // The port file is the daemon's readiness signal for scripts; written
  // atomically so a reader polling for it never sees a partial write.
  if (!port_file.empty()) {
    TABSKETCH_RETURN_CLI(
        util::WriteFileAtomic(port_file, [&](std::ostream& os) {
          os << server->port() << "\n";
        }));
  }

  char byte = 0;
  while (read(stop_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  sigaction(SIGINT, &old_int, nullptr);
  sigaction(SIGTERM, &old_term, nullptr);
  g_serve_stop_fd.store(-1, std::memory_order_relaxed);
  close(stop_pipe[0]);
  close(stop_pipe[1]);

  server->Shutdown();
  err << "served " << server->connections_accepted() << " connections, "
      << holder.swaps() << " snapshot swaps\n";
  return 0;
}

/// Splits "a,b,c" into non-empty segments.
std::vector<std::string> SplitCommaList(const std::string& text) {
  std::vector<std::string> parts;
  size_t start = 0;
  while (start <= text.size()) {
    const size_t comma = text.find(',', start);
    const size_t end = comma == std::string::npos ? text.size() : comma;
    if (end > start) parts.push_back(text.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

int CmdIngest(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const std::string pieces_text,
                       flags.GetRequired("pieces"));
  TABSKETCH_ASSIGN_CLI(const size_t tile_rows, flags.GetSize("tile-rows", 0));
  TABSKETCH_ASSIGN_CLI(const size_t tile_cols, flags.GetSize("tile-cols", 0));
  TABSKETCH_ASSIGN_CLI(const std::string out_path, flags.GetRequired("out"));
  TABSKETCH_ASSIGN_CLI(const core::SketchParams params,
                       FamilyFromFlags(flags, 256));
  TABSKETCH_ASSIGN_CLI(const size_t threads, ThreadsFromFlags(flags));
  TABSKETCH_ASSIGN_CLI(const size_t window, flags.GetSize("window", 0));
  TABSKETCH_ASSIGN_CLI(const std::string table_out,
                       flags.GetString("table-out", ""));
  const std::vector<std::string> pieces = SplitCommaList(pieces_text);
  if (pieces.empty()) {
    return Fail(err, util::Status::InvalidArgument(
                         "--pieces needs at least one file"));
  }

  // The same incremental engine `serve --ingest` runs, driven locally: each
  // piece appends (sketching only tiles it completes), a full window slides
  // by retiring the oldest tile columns.
  std::optional<core::GrowingTableSketcher> store;
  util::WallTimer timer;
  for (const std::string& piece_path : pieces) {
    TABSKETCH_ASSIGN_CLI(const table::Matrix piece,
                         table::ReadBinary(piece_path));
    if (!store.has_value()) {
      TABSKETCH_ASSIGN_CLI(store, core::GrowingTableSketcher::Create(
                                      params, piece.rows(), tile_rows,
                                      tile_cols));
    }
    TABSKETCH_RETURN_CLI(store->AppendColumns(piece, threads));
    if (window > 0 && store->grid_cols() > window) {
      TABSKETCH_RETURN_CLI(store->RetireColumns(store->grid_cols() - window));
    }
  }
  const double seconds = timer.ElapsedSeconds();

  core::SketchSet set;
  set.params = store->params();
  set.object_rows = store->tile_rows();
  set.object_cols = store->tile_cols();
  set.sketches = store->SketchesInGridOrder();
  TABSKETCH_RETURN_CLI(core::WriteSketchSet(set, out_path));
  if (!table_out.empty()) {
    TABSKETCH_RETURN_CLI(table::WriteBinary(store->table(), table_out));
  }
  out << "ingested " << pieces.size() << " pieces into window tile-cols ["
      << store->retired_tile_cols() << ", "
      << store->retired_tile_cols() + store->grid_cols() << ") ("
      << store->num_tiles() << " tiles, " << store->pending_cols()
      << " pending cols, " << store->sketches_computed()
      << " sketches computed) in " << seconds << "s -> " << out_path << "\n";
  if (!table_out.empty()) {
    out << "window table (" << store->table().rows() << "x"
        << store->table().cols() << ") -> " << table_out << "\n";
  }
  return 0;
}

/// Minimal loopback line-protocol client for `tabsketch top`: one
/// connection, one request line per Request(), one response line back.
class ServeClient {
 public:
  static util::Result<ServeClient> Connect(uint16_t port) {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return util::Status::IOError("cannot create socket");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
      close(fd);
      return util::Status::IOError("cannot connect to 127.0.0.1:" +
                                   std::to_string(port));
    }
    return ServeClient(fd);
  }

  ServeClient(ServeClient&& other) noexcept
      : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
    other.fd_ = -1;
  }
  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;
  ServeClient& operator=(ServeClient&&) = delete;
  ~ServeClient() {
    if (fd_ >= 0) close(fd_);
  }

  /// Sends `line` and returns the daemon's one-line response (without the
  /// newline; a trailing CR is stripped like the server does).
  util::Result<std::string> Request(const std::string& line) {
    const std::string wire = line + "\n";
    size_t sent = 0;
    while (sent < wire.size()) {
      const ssize_t n = send(fd_, wire.data() + sent, wire.size() - sent, 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return util::Status::IOError("connection lost to daemon");
      sent += static_cast<size_t>(n);
    }
    for (;;) {
      const size_t newline = buffer_.find('\n');
      if (newline != std::string::npos) {
        std::string response = buffer_.substr(0, newline);
        buffer_.erase(0, newline + 1);
        if (!response.empty() && response.back() == '\r') response.pop_back();
        return response;
      }
      char chunk[4096];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return util::Status::IOError("connection closed by daemon");
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

 private:
  explicit ServeClient(int fd) : fd_(fd) {}

  int fd_;
  std::string buffer_;
};

/// Reads the port number out of a --port-file written by `serve`.
util::Result<uint16_t> ReadPortFile(const std::string& path) {
  std::ifstream file(path);
  long port = 0;
  if (!file || !(file >> port) || port <= 0 || port > 65535) {
    return util::Status::InvalidArgument("cannot read a port from " + path);
  }
  return static_cast<uint16_t>(port);
}

/// Pulls the number after `"key":` out of a flat one-line JSON object.
/// Missing keys return `fallback` — `top` degrades gracefully against a
/// daemon that predates a key instead of erroring out.
double JsonNumber(const std::string& json, const std::string& key,
                  double fallback) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return fallback;
  const char* start = json.c_str() + pos + needle.size();
  char* end = nullptr;
  const double value = std::strtod(start, &end);
  return end == start ? fallback : value;
}

/// One parsed `stats json` poll, paired with the client-side receive time
/// so rates can be diffed between consecutive polls.
struct TopSample {
  std::chrono::steady_clock::time_point when;
  double requests_total = 0.0;
  double shed_total = 0.0;
  double deadline_total = 0.0;
  double cache_hits = 0.0;
  double cache_misses = 0.0;
  double window_seconds = 0.0;
  double window_p50_ms = 0.0;
  double window_p99_ms = 0.0;
  double latency_p50_ms = 0.0;
  double latency_p99_ms = 0.0;
  double inflight = 0.0;
  double connections_active = 0.0;
  double generation = 0.0;
  double tiles = 0.0;
};

TopSample ParseTopSample(const std::string& json) {
  TopSample sample;
  sample.when = std::chrono::steady_clock::now();
  sample.requests_total = JsonNumber(json, "requests_total", 0.0);
  sample.shed_total = JsonNumber(json, "shed_total", 0.0);
  sample.deadline_total = JsonNumber(json, "deadline_total", 0.0);
  sample.cache_hits = JsonNumber(json, "cache_hits", 0.0);
  sample.cache_misses = JsonNumber(json, "cache_misses", 0.0);
  sample.window_seconds = JsonNumber(json, "window_seconds", 0.0);
  sample.window_p50_ms = JsonNumber(json, "window_p50_ms", 0.0);
  sample.window_p99_ms = JsonNumber(json, "window_p99_ms", 0.0);
  sample.latency_p50_ms = JsonNumber(json, "latency_p50_ms", 0.0);
  sample.latency_p99_ms = JsonNumber(json, "latency_p99_ms", 0.0);
  sample.inflight = JsonNumber(json, "inflight_distance", 0.0) +
                    JsonNumber(json, "inflight_knn", 0.0);
  sample.connections_active = JsonNumber(json, "connections_active", 0.0);
  sample.generation = JsonNumber(json, "generation", 0.0);
  sample.tiles = JsonNumber(json, "tiles", 0.0);
  return sample;
}

/// Renders one `top` interval line from two consecutive polls: counters are
/// diffed client-side over the measured wall gap; percentiles prefer the
/// daemon's ticker window and fall back to the cumulative histogram when the
/// window is empty.
std::string RenderTopLine(const TopSample& prev, const TopSample& cur) {
  const double seconds =
      std::chrono::duration<double>(cur.when - prev.when).count();
  const double rps =
      seconds > 0.0 ? (cur.requests_total - prev.requests_total) / seconds
                    : 0.0;
  const double hits = cur.cache_hits - prev.cache_hits;
  const double misses = cur.cache_misses - prev.cache_misses;
  const double hit_ratio = hits + misses > 0.0 ? hits / (hits + misses) : 0.0;
  const bool windowed = cur.window_seconds > 0.0;
  const double p50 = windowed ? cur.window_p50_ms : cur.latency_p50_ms;
  const double p99 = windowed ? cur.window_p99_ms : cur.latency_p99_ms;
  char line[256];
  std::snprintf(line, sizeof(line),
                "%10.1f %9.3f %9.3f %6.2f %6.0f %6.0f %9.0f %6.0f %5.0f "
                "%7.0f",
                rps, p50, p99, hit_ratio,
                cur.shed_total - prev.shed_total,
                cur.deadline_total - prev.deadline_total, cur.inflight,
                cur.connections_active, cur.generation, cur.tiles);
  return line;
}

int CmdTop(const Flags& flags, std::ostream& out, std::ostream& err) {
  TABSKETCH_ASSIGN_CLI(const int64_t port_flag, flags.GetInt("port", 0));
  TABSKETCH_ASSIGN_CLI(const std::string port_file,
                       flags.GetString("port-file", ""));
  TABSKETCH_ASSIGN_CLI(const double interval,
                       flags.GetDouble("interval", 1.0));
  TABSKETCH_ASSIGN_CLI(const bool once, flags.GetBool("once", false));
  if (port_flag < 0 || port_flag > 65535) {
    return Fail(err, util::Status::InvalidArgument(
                         "--port must be in [1, 65535]"));
  }
  if (port_flag == 0 && port_file.empty()) {
    return Fail(err, util::Status::InvalidArgument(
                         "top needs --port or --port-file"));
  }
  if (!(interval > 0.0)) {
    return Fail(err,
                util::Status::InvalidArgument("--interval must be > 0"));
  }
  uint16_t port = static_cast<uint16_t>(port_flag);
  if (port == 0) {
    TABSKETCH_ASSIGN_CLI(port, ReadPortFile(port_file));
  }

  TABSKETCH_ASSIGN_CLI(ServeClient client, ServeClient::Connect(port));
  const auto poll = [&]() -> util::Result<TopSample> {
    auto response = client.Request("stats json");
    if (!response.ok()) return response.status();
    if (response->rfind("error ", 0) == 0) {
      return util::Status::InvalidArgument("daemon answered: " + *response);
    }
    return ParseTopSample(*response);
  };

  char header[256];
  std::snprintf(header, sizeof(header),
                "%10s %9s %9s %6s %6s %6s %9s %6s %5s %7s", "rps", "p50_ms",
                "p99_ms", "hit", "shed", "ddl", "inflight", "conn", "gen",
                "tiles");
  out << header << "\n";
  out.flush();

  TABSKETCH_ASSIGN_CLI(TopSample prev, poll());
  size_t printed = 0;
  for (;;) {
    std::this_thread::sleep_for(std::chrono::duration<double>(interval));
    auto cur = poll();
    if (!cur.ok()) {
      // The daemon going away mid-watch is the normal way a live view
      // ends; only a poll that never produced a line is an error.
      if (printed > 0) {
        err << "top: " << cur.status().ToString() << "\n";
        return 0;
      }
      return Fail(err, cur.status());
    }
    out << RenderTopLine(prev, *cur) << "\n";
    out.flush();
    ++printed;
    prev = *cur;
    if (once) return 0;
  }
}

/// A command: its entry point and every flag it accepts besides the global
/// --metrics-json, --trace-json and --audit-rate.
struct Command {
  std::string_view name;
  int (*run)(const Flags&, std::ostream&, std::ostream&);
  std::vector<std::string> flags;
};

}  // namespace

int RunTabsketchCli(int argc, const char* const* argv, std::ostream& out,
                    std::ostream& err) {
  auto flags = Flags::Parse(argc, argv);
  if (!flags.ok()) return Fail(err, flags.status());
  const std::string& name = flags->command();
  if (name.empty() || name == "help") {
    out << kUsage;
    return name.empty() ? 1 : 0;
  }
  const Command commands[] = {
      {"generate", CmdGenerate,
       {"dataset", "out", "rows", "cols", "days", "seed"}},
      {"info", CmdInfo, {"table"}},
      {"sketch", CmdSketch,
       {"table", "out", "tile-rows", "tile-cols", "p", "k", "seed", "sparsity",
        "threads"}},
      {"distance", CmdDistance, {"table", "rect1", "rect2", "p", "k", "seed"}},
      {"cluster", CmdCluster,
       {"table", "tile-rows", "tile-cols", "k", "p", "seed", "mode", "sketch-k",
        "sparsity", "cache-bytes", "quant", "threads", "out"}},
      {"pool-build", CmdPoolBuild,
       {"table", "out", "p", "k", "seed", "sparsity", "min-log2", "max-log2",
        "threads"}},
      {"pool-query", CmdPoolQuery, {"pool", "rect1", "rect2", "table"}},
      {"query", CmdQuery,
       {"table", "tile-rows", "tile-cols", "p", "k", "seed", "sparsity",
        "sketches", "cache-bytes", "threads", "refine", "candidates", "quant",
        "batch", "out"}},
      {"serve", CmdServe,
       {"table", "tile-rows", "tile-cols", "p", "k", "seed", "sparsity",
        "sketches", "cache-bytes", "threads", "refine", "candidates", "quant",
        "ingest", "port", "port-file", "max-inflight", "max-queue",
        "deadline-ms", "slow-ms", "slow-log", "stats-interval"}},
      {"ingest", CmdIngest,
       {"pieces", "tile-rows", "tile-cols", "out", "p", "k", "seed", "sparsity",
        "threads", "window", "table-out"}},
      {"top", CmdTop, {"port", "port-file", "interval", "once"}},
  };
  const auto command =
      std::find_if(std::begin(commands), std::end(commands),
                   [&](const Command& c) { return c.name == name; });
  if (command == std::end(commands)) {
    err << "error: unknown command '" << name << "'\n\n" << kUsage;
    return 1;
  }
  // The observability flags are handled here, outside the commands: enable
  // the requested subsystems (metrics reset first, so repeated in-process
  // invocations — the tests — each dump only their own run) before dispatch,
  // flush them after.
  auto metrics_path = flags->GetString("metrics-json", "");
  if (!metrics_path.ok()) return Fail(err, metrics_path.status());
  auto trace_path = flags->GetString("trace-json", "");
  if (!trace_path.ok()) return Fail(err, trace_path.status());
  auto audit_rate = flags->GetDouble("audit-rate", 0.0);
  if (!audit_rate.ok()) return Fail(err, audit_rate.status());
  if (!(*audit_rate >= 0.0) || *audit_rate > 1.0) {
    return Fail(err, util::Status::InvalidArgument(
                         "--audit-rate must be in [0, 1]"));
  }
  const util::ObservabilityArgs observability{*metrics_path, *trace_path,
                                              *audit_rate};
  util::SetupObservability(observability);

  std::vector<std::string> allowed(command->flags);
  allowed.insert(allowed.end(), {"metrics-json", "trace-json", "audit-rate"});
  const util::Status known = flags->AllowOnly(allowed);
  const int code = known.ok() ? command->run(*flags, out, err)
                              : Fail(err, known);
  if (!util::FlushObservability(observability, &out, &err)) return 1;
  return code;
}

}  // namespace tabsketch::cli
