// `perfbench knn-replay` / `perfbench stream-replay`: in-process replays of
// what the serve daemon was asked, against serve::Snapshot /
// StreamingIngest objects built the way `tabsketch serve` builds them.
// Every run uses them as the output check; the traced run also times the
// layers under each request.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <random>
#include <span>

#include "core/growing.h"
#include "core/lp_distance.h"
#include "core/lru_sketch_cache.h"
#include "core/ondemand.h"
#include "core/quantized_sketch.h"
#include "common.h"
#include "serve/ingest.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "spans.h"
#include "stats.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "util/metrics.h"
#include "util/trace_recorder.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

serve::SnapshotSpec KnnSpec(const std::string& dir, core::QuantKind quant,
                            size_t cache_bytes) {
  serve::SnapshotSpec spec;
  spec.table_path = dir + "/knn.tbl";
  spec.tile_rows = kTileRows;
  spec.tile_cols = kBinsPerDay;
  spec.params = ServeParams();
  spec.cache_bytes = cache_bytes;
  spec.engine.threads = kThreads;
  spec.engine.refine = true;
  spec.engine.quant = quant;
  return spec;
}

serve::QueryRequest Parse(const std::string& line) {
  auto parsed = serve::ParseBatchLine(line, 1);
  if (!parsed.ok() || !parsed->has_value()) {
    std::cerr << "unparsable request: " << line << "\n";
    std::exit(1);
  }
  return **parsed;
}

/// Answers `requests` one Run() each, in order — how the daemon sees them —
/// returning per-request engine seconds and summing RequestStats.
std::vector<double> ReplayOneByOne(const serve::Snapshot& snapshot,
                                   const std::vector<serve::QueryRequest>& requests,
                                   serve::RequestStats* stats) {
  std::vector<double> seconds;
  for (const serve::QueryRequest& request : requests) {
    const Clock::time_point start = Clock::now();
    OrDie(snapshot.engine().Run(std::span<const serve::QueryRequest>(&request, 1),
                                stats),
          "replay");
    seconds.push_back(SecondsSince(start));
  }
  return seconds;
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / values.size();
}

/// Microseconds per Sketcher::SketchOf of one tile (the cache-miss compute),
/// on a sketcher whose kernels are already generated.
double SketchOfUs(const core::SketchParams& params, const table::TileGrid& grid) {
  const core::Sketcher sketcher = OrDie(core::Sketcher::Create(params), "sketcher");
  sketcher.MatricesFor(grid.tile_rows(), grid.tile_cols());
  const size_t count = std::min<size_t>(grid.num_tiles(), 256);
  const Clock::time_point start = Clock::now();
  for (size_t i = 0; i < count; ++i) sketcher.SketchOf(grid.Tile(i));
  return SecondsSince(start) * 1e6 / count;
}

}  // namespace

int CmdKnnReplay(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  const size_t cache_bytes = static_cast<size_t>(flags.Num("cache-bytes"));
  const bool traced = flags.Has("trace");
  const std::vector<std::string> queries = ReadLines(dir + "/knn_queries.txt");

  // Output check: every daemon answer against quant=off, no cache budget.
  std::vector<serve::QueryRequest> batch;
  std::vector<std::string> answered;
  for (const char* file : {"/knn_warm_answers.txt", "/knn_answers.txt"}) {
    for (const std::string& line : ReadLines(dir + file)) {
      const size_t tab = line.find('\t');
      batch.push_back(Parse(queries.at(std::stoul(line.substr(0, tab)))));
      answered.push_back(line.substr(tab + 1));
    }
  }
  const std::shared_ptr<const serve::Snapshot> reference = OrDie(
      serve::Snapshot::Create(KnnSpec(dir, core::QuantKind::kOff, 0)),
      "reference snapshot");
  const std::vector<std::string> expected =
      OrDie(reference->engine().Run(batch), "reference run");
  const long mismatch = FirstMismatch(expected, answered);
  if (mismatch >= 0) {
    std::cerr << "check: knn answer " << mismatch << " differs from replay\n"
              << "  daemon: " << answered[mismatch] << "\n"
              << "  replay: " << expected[mismatch] << "\n";
  }

  JsonObject out;
  out.Bool("correct", mismatch < 0 && !answered.empty());
  out.Num("checked", static_cast<double>(answered.size()));
  if (traced) {
    // A snapshot built exactly like the daemon's replays the first requests
    // in order, with the library's own spans and counters on.
    const size_t replayed = std::min<size_t>(batch.size(), 600);
    const std::vector<serve::QueryRequest> head(batch.begin(),
                                                batch.begin() + replayed);
    const std::shared_ptr<const serve::Snapshot> daemon_like = OrDie(
        serve::Snapshot::Create(
            KnnSpec(dir, core::QuantKind::kInt16, cache_bytes)),
        "daemon-like snapshot");
    util::MetricsRegistry::SetEnabled(true);
    util::TraceRecorder::Global().Start();
    serve::RequestStats stats;
    const std::vector<double> engine_s =
        ReplayOneByOne(*daemon_like, head, &stats);
    util::TraceRecorder::Global().Stop();
    util::MetricsRegistry::SetEnabled(false);
    const std::string trace_out = flags.Str("trace-out");
    if (!trace_out.empty()) {
      const util::Status written =
          util::TraceRecorder::Global().WriteChromeJsonFile(trace_out);
      if (!written.ok()) std::cerr << written.ToString() << "\n";
    }

    const auto* lru =
        dynamic_cast<const core::LruSketchCache*>(&daemon_like->cache());
    const double lookups = static_cast<double>(stats.cache_hits +
                                               stats.cache_misses);
    out.Num("serve.engine_knn_ms", Median(engine_s) * 1e3);
    out.Num("core.lru.hit_ratio", lookups > 0 ? stats.cache_hits / lookups : 0.0);
    out.Num("core.lru.computed",
            static_cast<double>(daemon_like->cache().computed()));
    out.Num("core.lru.evictions",
            lru != nullptr ? static_cast<double>(lru->evictions()) : 0.0);
    out.Num("quant.kept_ratio",
            stats.quant_scanned > 0
                ? static_cast<double>(stats.quant_kept) / stats.quant_scanned
                : 0.0);

    // Layer unit costs.
    const table::Matrix table = OrDie(table::ReadBinary(dir + "/knn.tbl"), "table");
    const table::TileGrid grid =
        OrDie(table::TileGrid::Create(&table, kTileRows, kBinsPerDay), "grid");
    const double sketch_of_us = SketchOfUs(ServeParams(), grid);
    out.Num("core.sketch_of_us", sketch_of_us);

    const core::Sketcher sketcher =
        OrDie(core::Sketcher::Create(ServeParams()), "sketcher");
    const double estimate_ns = EstimateNs(
        ServeParams(), core::SketchAllTilesParallel(sketcher, grid, kThreads),
        seed);
    out.Num("core.estimate_ns.k64", estimate_ns);

    std::mt19937_64 rng(seed);
    const core::QuantizedCodePool& codes = *daemon_like->codes();
    core::kernels::CodeScratch scratch;
    std::vector<std::pair<size_t, size_t>> pairs(4096);
    for (auto& pair : pairs) {
      pair = {rng() % grid.num_tiles(), rng() % grid.num_tiles()};
    }
    double sink = 0.0;
    Clock::time_point start = Clock::now();
    for (const auto& [a, b] : pairs) {
      sink += codes.CodeEstimate(a, b, false, &scratch);
    }
    const double scan_ns = SecondsSince(start) * 1e9 / pairs.size();
    out.Num("quant.scan_ns_per_pair", scan_ns);
    start = Clock::now();
    for (const auto& [a, b] : pairs) {
      sink += core::LpDistance(grid.Tile(a), grid.Tile(b), 1.0);
    }
    const double refine_us = SecondsSince(start) * 1e6 / pairs.size();
    out.Num("core.refine_us", refine_us);
    if (sink == -1.0) std::cerr << "\n";

    // int8 over the same sketches: how much would it keep?
    const std::shared_ptr<const serve::Snapshot> int8 = OrDie(
        serve::Snapshot::Create(KnnSpec(dir, core::QuantKind::kInt8, 0)),
        "int8 snapshot");
    serve::RequestStats int8_stats;
    const std::vector<serve::QueryRequest> few(
        head.begin(), head.begin() + std::min<size_t>(head.size(), 150));
    OrDie(int8->engine().Run(few, &int8_stats), "int8 replay");
    out.Num("quant.int8_kept_ratio",
            int8_stats.quant_scanned > 0
                ? static_cast<double>(int8_stats.quant_kept) /
                      int8_stats.quant_scanned
                : 0.0);

    // Attribution: unit costs times per-request counts, against the
    // replayed engine time.
    const double n = static_cast<double>(head.size());
    const double candidates = static_cast<double>(
        std::min(std::max(3 * kKnnTop, kKnnTop + 8), grid.num_tiles() - 1));
    const double modeled_us =
        stats.cache_misses / n * sketch_of_us +
        stats.quant_scanned / n * scan_ns * 1e-3 +
        stats.quant_kept / n * estimate_ns * 1e-3 + candidates * refine_us;
    out.Num("attributed_frac.knn_engine", modeled_us / (Mean(engine_s) * 1e6));
  }
  std::cout << out.Render() << std::endl;
  return mismatch < 0 ? 0 : 3;
}

int CmdStreamReplay(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const size_t appends = static_cast<size_t>(flags.Num("appends"));
  const bool traced = flags.Has("trace");
  auto piece_path = [&](size_t j) {
    return dir + "/piece_" + std::to_string(j % kPieces) + ".tbl";
  };

  serve::SnapshotSpec spec;
  spec.table_path = dir + "/stream_seed.tbl";
  spec.tile_rows = kTileRows;
  spec.tile_cols = kBinsPerDay;
  spec.params = ServeParams();
  spec.engine.threads = kThreads;
  spec.engine.quant = core::QuantKind::kInt16;

  // Replica of the daemon's window: the same appends and retires, in order.
  std::unique_ptr<serve::StreamingIngest> ingest =
      OrDie(serve::StreamingIngest::Create(spec), "ingest");
  serve::SnapshotHolder holder(ingest->initial());
  std::vector<double> append_s;
  for (size_t j = 0; j < appends; ++j) {
    const Clock::time_point start = Clock::now();
    OrDie(ingest->Append(piece_path(j), &holder), "append");
    append_s.push_back(SecondsSince(start));
    OrDie(ingest->Retire(1, &holder), "retire");
  }

  std::vector<serve::QueryRequest> probe;
  for (const std::string& line : ReadLines(dir + "/stream_probe.txt")) {
    probe.push_back(Parse(line));
  }
  const std::vector<std::string> expected =
      OrDie(holder.Current()->engine().Run(probe), "probe replay");
  const std::vector<std::string> answered =
      ReadLines(dir + "/stream_probe_answers.txt");
  const long mismatch = FirstMismatch(expected, answered);
  if (mismatch >= 0) {
    std::cerr << "check: stream probe answer " << mismatch
              << " differs from the replica\n";
  }

  JsonObject out;
  out.Bool("correct", mismatch < 0);
  out.Num("checked", static_cast<double>(answered.size()));
  if (traced) {
    const std::vector<double> engine_s =
        ReplayOneByOne(*holder.Current(), probe, nullptr);
    out.Num("serve.engine_distance_us", Median(engine_s) * 1e6);
    out.Num("serve.ingest_append_ms", Median(append_s) * 1e3);

    // The layers under one append, each timed on a second replica: piece
    // read, GrowingTableSketcher::AppendColumns, the per-generation window
    // table copy, and QuantizedCodePool::BuildSuccessor.
    const table::Matrix seed_table =
        OrDie(table::ReadBinary(spec.table_path), "seed table");
    core::GrowingTableSketcher store = OrDie(
        core::GrowingTableSketcher::Create(spec.params, seed_table.rows(),
                                           kTileRows, kBinsPerDay),
        "store");
    if (!store.AppendColumns(seed_table, kThreads).ok()) return 1;
    auto pool_over = [&store](const core::QuantizedCodePool* base,
                              std::vector<size_t> base_of) {
      const auto shares = store.SketchSharesInGridOrder();
      auto sketch_of = [&shares](size_t i) -> std::span<const double> {
        return shares[i]->values;
      };
      bool rebuilt = false;
      return base == nullptr
                 ? OrDie(core::QuantizedCodePool::BuildFromGetter(
                             sketch_of, shares.size(), core::QuantKind::kInt16,
                             store.params(), kTileRows, kBinsPerDay),
                         "code pool")
                 : OrDie(core::QuantizedCodePool::BuildSuccessor(
                             *base, sketch_of, base_of, &rebuilt),
                         "successor pool");
    };
    core::QuantizedCodePool pool = pool_over(nullptr, {});
    std::vector<double> read_s, growing_s, copy_s, successor_s;
    for (size_t j = 0; j < appends; ++j) {
      Clock::time_point start = Clock::now();
      const table::Matrix piece = OrDie(table::ReadBinary(piece_path(j)), "piece");
      read_s.push_back(SecondsSince(start));
      const size_t prev_cols = store.grid_cols();
      start = Clock::now();
      if (!store.AppendColumns(piece, kThreads).ok()) return 1;
      growing_s.push_back(SecondsSince(start));
      start = Clock::now();
      const table::Matrix window_copy = store.table();
      copy_s.push_back(SecondsSince(start));
      const size_t cols = store.grid_cols();
      std::vector<size_t> base_of(store.num_tiles());
      for (size_t i = 0; i < base_of.size(); ++i) {
        base_of[i] = i % cols < prev_cols ? i / cols * prev_cols + i % cols
                                          : core::QuantizedCodePool::kNewTile;
      }
      start = Clock::now();
      pool = pool_over(&pool, base_of);
      successor_s.push_back(SecondsSince(start));
      if (!store.RetireColumns(1).ok()) return 1;
      std::vector<size_t> shifted(store.num_tiles());
      for (size_t i = 0; i < shifted.size(); ++i) {
        shifted[i] = i / store.grid_cols() * cols + i % store.grid_cols() + 1;
      }
      pool = pool_over(&pool, shifted);
    }
    out.Num("table.read_piece_ms", Median(read_s) * 1e3);
    out.Num("core.growing_append_ms", Median(growing_s) * 1e3);
    out.Num("table.copy_window_ms", Median(copy_s) * 1e3);
    out.Num("quant.successor_ms", Median(successor_s) * 1e3);
    out.Num("attributed_frac.append",
            (Median(read_s) + Median(growing_s) + Median(copy_s) +
             Median(successor_s)) /
                Median(append_s));
  }
  std::cout << out.Render() << std::endl;
  return mismatch < 0 ? 0 : 3;
}

}  // namespace perfbench
