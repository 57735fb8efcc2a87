// perfbench: the in-process half of the end-to-end benchmark. run.py calls
// its subcommands; each prints one flat JSON object as its last line.
//
//   perfbench prepare       --dir=D --seed=N
//   perfbench mine          --dir=D --seed=N --seconds=S [--trace-out=F]
//   perfbench knn-load      --port=P --dir=D --seconds=S [--skip=N]
//                           [--warmup=N] [--answers=FILE]
//   perfbench knn-replay    --dir=D --seed=N --cache-bytes=B
//                           [--trace [--trace-out=F]]
//   perfbench stream-load   --port=P --dir=D --seconds=S --rate=R
//                           [--append-hz=H --append-start=K] [--probe]
//   perfbench stream-replay --dir=D --appends=K [--trace]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <random>
#include <sstream>
#include <thread>

#include "core/lru_sketch_cache.h"
#include "core/quantized_sketch.h"
#include "data/call_volume.h"
#include "common.h"
#include "loadgen.h"
#include "stats.h"
#include "table/table_io.h"

namespace perfbench {

core::SketchParams ServeParams() {
  return core::SketchParams{.p = 1.0, .k = 64, .seed = kFamilySeed};
}

core::SketchParams MineParams() {
  return core::SketchParams{.p = kMineP, .k = kMineK, .seed = kFamilySeed};
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    arg = arg.substr(2);
    const size_t eq = arg.find('=');
    if (eq != std::string::npos) {
      values_[arg.substr(0, eq)] = arg.substr(eq + 1);
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[arg] = argv[++i];
    } else {
      values_[arg] = "1";
    }
  }
}

std::string Flags::Str(const std::string& key,
                       const std::string& fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

double Flags::Num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : std::stod(it->second);
}

void JsonObject::Num(const std::string& key, double value) {
  std::ostringstream out;
  out.precision(17);
  if (std::isfinite(value)) {
    out << value;
  } else {
    out << "null";
  }
  fields_.emplace_back(key, out.str());
}

void JsonObject::Str(const std::string& key, const std::string& value) {
  fields_.emplace_back(key, "\"" + value + "\"");
}

void JsonObject::Bool(const std::string& key, bool value) {
  fields_.emplace_back(key, value ? "true" : "false");
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + fields_[i].first + "\": " + fields_[i].second;
  }
  return out + "}";
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void WriteLines(const std::string& path,
                const std::vector<std::string>& lines) {
  std::ofstream out(path);
  for (const std::string& line : lines) out << line << '\n';
}

table::Matrix GenerateTable(size_t stations, size_t days, uint64_t seed) {
  data::CallVolumeOptions options;
  options.num_stations = stations;
  options.bins_per_day = kBinsPerDay;
  options.num_days = days;
  options.seed = seed;
  auto table = data::GenerateCallVolume(options);
  if (!table.ok()) {
    std::cerr << "generate: " << table.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(*table);
}

namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

void Write(const table::Matrix& matrix, const std::string& path) {
  const util::Status status = table::WriteBinary(matrix, path);
  if (!status.ok()) {
    std::cerr << "write " << path << ": " << status.ToString() << "\n";
    std::exit(1);
  }
}

/// Zipf(s) draws over [0, n). Popularity ranks map to tiles through a
/// fixed permutation, so the hot tiles are scattered over the grid and are
/// the same in every run; `rng` only drives the draws.
std::vector<size_t> ZipfDraws(size_t n, double s, size_t count,
                              std::mt19937_64* rng) {
  std::vector<double> cdf(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf[r] = total;
  }
  std::vector<size_t> rank_to_tile(n);
  for (size_t i = 0; i < n; ++i) rank_to_tile[i] = i;
  std::mt19937_64 fixed(kTableSeed);
  std::shuffle(rank_to_tile.begin(), rank_to_tile.end(), fixed);
  std::uniform_real_distribution<double> uniform(0.0, total);
  std::vector<size_t> draws(count);
  for (size_t& draw : draws) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), uniform(*rng)) - cdf.begin());
    draw = rank_to_tile[std::min(rank, n - 1)];
  }
  return draws;
}

std::vector<std::string> DistanceLines(size_t tiles, size_t count,
                                       std::mt19937_64* rng) {
  std::uniform_int_distribution<size_t> tile(0, tiles - 1);
  std::vector<std::string> lines(count);
  for (std::string& line : lines) {
    line = "distance " + std::to_string(tile(*rng)) + " " +
           std::to_string(tile(*rng));
  }
  return lines;
}

}  // namespace

int CmdPrepare(const Flags& flags) {
  const std::string dir = flags.Str("dir");
  const uint64_t seed = static_cast<uint64_t>(flags.Num("seed", 1));
  const Clock::time_point start = Clock::now();
  std::mt19937_64 rng(seed * 0x9e3779b97f4a7c15ULL + 1);

  // The `mine` table is generated in-process by `perfbench mine`.
  Write(GenerateTable(kKnnStations, kKnnDays, kTableSeed + 2),
        dir + "/knn.tbl");
  const size_t knn_tiles = (kKnnStations / kTileRows) * kKnnDays;
  std::vector<std::string> queries;
  for (const size_t q : ZipfDraws(knn_tiles, kKnnZipf, kKnnRequests, &rng)) {
    queries.push_back("knn " + std::to_string(q) + " " +
                      std::to_string(kKnnTop));
  }
  WriteLines(dir + "/knn_queries.txt", queries);
  // Half the sketch set stays resident; the pinned int16 code tier is taken
  // off the top of the budget by the daemon, so add it back here.
  const size_t cache_bytes =
      core::QuantizedCodePool::PoolBytes(core::QuantKind::kInt16, knn_tiles,
                                         ServeParams().k) +
      core::LruSketchCache::EntryBytes(ServeParams().k) * knn_tiles / 2;

  const table::Matrix stream =
      GenerateTable(kStreamStations, kWindowDays + kPieces, kTableSeed + 3);
  Write(stream.Window(0, 0, kStreamStations, kWindowDays * kBinsPerDay)
            .ToMatrix(),
        dir + "/stream_seed.tbl");
  for (size_t i = 0; i < kPieces; ++i) {
    Write(stream
              .Window(0, (kWindowDays + i) * kBinsPerDay, kStreamStations,
                      kBinsPerDay)
              .ToMatrix(),
          dir + "/piece_" + std::to_string(i) + ".tbl");
  }
  // Tiles < rows * kWindowDays exist before and after every append+retire.
  const size_t stream_tiles = (kStreamStations / kTileRows) * kWindowDays;
  WriteLines(dir + "/stream_reads.txt",
             DistanceLines(stream_tiles, kStreamReads, &rng));
  WriteLines(dir + "/stream_probe.txt",
             DistanceLines(stream_tiles, kProbeRequests, &rng));

  JsonObject out;
  out.Num("prepare_s", SecondsSince(start));
  out.Num("knn_tiles", static_cast<double>(knn_tiles));
  out.Num("stream_tiles", static_cast<double>(stream_tiles));
  out.Num("cache_bytes", static_cast<double>(cache_bytes));
  std::cout << out.Render() << std::endl;
  return 0;
}

int CmdKnnLoad(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.Num("port"));
  const std::string dir = flags.Str("dir");
  const double seconds = flags.Num("seconds", 5.0);
  const size_t skip = static_cast<size_t>(flags.Num("skip", 0));
  const size_t warmup = static_cast<size_t>(flags.Num("warmup", 0));
  const std::vector<std::string> queries = ReadLines(dir + "/knn_queries.txt");

  // Queries [skip, skip + warmup) go out on one untimed connection (they
  // fill the LRU); the timed closed loop continues from there.
  const size_t first = std::min(skip, queries.size());
  const size_t timed_first = std::min(first + warmup, queries.size());
  const std::vector<std::string> head(queries.begin() + first,
                                      queries.begin() + timed_first);
  const std::vector<std::string> tail(queries.begin() + timed_first,
                                      queries.end());
  const LoadResult warm = RunClosedLoop(port, 1, head, 1e9);
  const LoadResult load =
      seconds > 0 ? RunClosedLoop(port, 2, tail, seconds) : LoadResult{};

  // Every answer, by query index, for the byte-identity check.
  std::vector<std::string> answers;
  for (const Sample& sample : warm.samples) {
    answers.push_back(std::to_string(first + sample.request) + "\t" +
                      sample.answer);
  }
  for (const Sample& sample : load.samples) {
    answers.push_back(std::to_string(timed_first + sample.request) + "\t" +
                      sample.answer);
  }
  WriteLines(dir + "/" + flags.Str("answers", "knn_answers.txt"), answers);

  const std::vector<double> latencies = load.Latencies();
  JsonObject out;
  out.Num("attempted", static_cast<double>(warm.attempted + load.attempted));
  out.Num("failed", static_cast<double>(warm.failed + load.failed));
  out.Num("samples", static_cast<double>(latencies.size()));
  out.Num("knn_p50_ms", Percentile(latencies, 0.5));
  out.Num("knn_p99_ms", Percentile(latencies, 0.99));
  out.Num("knn_rps", load.seconds > 0 ? latencies.size() / load.seconds : 0.0);
  std::cout << out.Render() << std::endl;
  return 0;
}

int CmdStreamLoad(const Flags& flags) {
  const uint16_t port = static_cast<uint16_t>(flags.Num("port"));
  const std::string dir = flags.Str("dir");
  const double seconds = flags.Num("seconds", 1.0);
  const double rate = flags.Num("rate", 1000.0);
  const double append_hz = flags.Num("append-hz", 0.0);
  const size_t append_start = static_cast<size_t>(flags.Num("append-start", 0));
  const std::vector<std::string> reads = ReadLines(dir + "/stream_reads.txt");

  // Writes on a third connection: `append <piece>` then `retire 1`, on a
  // fixed schedule of append_hz pairs per second.
  std::vector<double> append_ms;
  size_t append_failed = 0;
  std::thread appender;
  if (append_hz > 0.0) {
    appender = std::thread([&] {
      std::unique_ptr<LineConn> conn = LineConn::Connect(port);
      const Clock::time_point start = Clock::now();
      for (size_t j = 0;; ++j) {
        const double due = (j + 0.5) / append_hz;
        if (due >= seconds) break;
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(due)));
        const Clock::time_point sent = Clock::now();
        const std::string piece = dir + "/piece_" +
                                  std::to_string((append_start + j) % kPieces) +
                                  ".tbl";
        const std::string appended =
            conn != nullptr ? conn->Call("append " + piece) : "";
        const std::string retired =
            conn != nullptr ? conn->Call("retire 1") : "";
        if (appended.rfind("ok append", 0) != 0 ||
            retired.rfind("ok retire", 0) != 0) {
          ++append_failed;
          std::cerr << "append failed: " << appended << " / " << retired
                    << "\n";
          break;
        }
        append_ms.push_back(SecondsSince(sent) * 1e3);
      }
    });
  }
  const LoadResult load = RunOpenLoop(port, 2, rate, seconds, reads);
  if (appender.joinable()) appender.join();

  // The window is cut into 50 ms slices by due time and tail latency is
  // the median of the slices' p99: the p99 a typical 50 ms of traffic sees.
  // A burst of interference (an append, another process) moves the slices
  // it lands in, not the result; the whole-window p99 is reported beside
  // it. Backlog: does latency still climb at the end of the window?
  const size_t slice_count =
      std::max<size_t>(1, static_cast<size_t>(std::lround(seconds / 0.05)));
  std::vector<std::vector<double>> slices(slice_count);
  for (const Sample& sample : load.samples) {
    const size_t slice =
        std::min(slice_count - 1,
                 static_cast<size_t>(sample.due_s / seconds * slice_count));
    slices[slice].push_back(sample.latency_ms);
  }
  std::vector<double> slice_p99;
  for (const std::vector<double>& slice : slices) {
    if (!slice.empty()) slice_p99.push_back(Percentile(slice, 0.99));
  }
  const double backlog_ms = Median(slices.back()) - Median(slices.front());

  JsonObject out;
  if (flags.Has("probe")) {
    // Quiescent probe batch after the load: pipelined on one connection.
    const std::vector<std::string> probe = ReadLines(dir + "/stream_probe.txt");
    std::unique_ptr<LineConn> conn = LineConn::Connect(port);
    std::string batch;
    for (const std::string& line : probe) batch += line + "\n";
    std::vector<std::string> answers;
    if (conn != nullptr && conn->Send(batch)) {
      std::string line;
      while (answers.size() < probe.size() && conn->ReadLine(&line)) {
        answers.push_back(line);
      }
    }
    WriteLines(dir + "/stream_probe_answers.txt", answers);
    out.Num("probe_answers", static_cast<double>(answers.size()));
  }
  const std::vector<double> latencies = load.Latencies();
  std::ostringstream appends;
  appends.precision(17);
  for (size_t i = 0; i < append_ms.size(); ++i) {
    appends << (i > 0 ? " " : "") << append_ms[i];
  }
  out.Num("rate", rate);
  out.Num("attempted", static_cast<double>(load.attempted + append_ms.size() +
                                           append_failed));
  out.Num("failed", static_cast<double>(load.failed + append_failed));
  out.Num("samples", static_cast<double>(latencies.size()));
  out.Num("distance_p50_ms", Percentile(latencies, 0.5));
  out.Num("distance_p99_ms", Median(slice_p99));
  out.Num("distance_p99_all_ms", Percentile(latencies, 0.99));
  out.Num("achieved_rps", latencies.size() / seconds);
  out.Num("lag_p99_ms", Percentile(load.lag_ms, 0.99));
  out.Num("backlog_ms", backlog_ms);
  out.Num("appends", static_cast<double>(append_ms.size()));
  out.Str("append_ms", appends.str());
  std::cout << out.Render() << std::endl;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) {
    std::cerr << "usage: perfbench <prepare|mine|knn-load|knn-replay|"
                 "stream-load|stream-replay> [--flags]\n";
    return 2;
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  if (command == "prepare") return CmdPrepare(flags);
  if (command == "mine") return CmdMine(flags);
  if (command == "knn-load") return CmdKnnLoad(flags);
  if (command == "knn-replay") return CmdKnnReplay(flags);
  if (command == "stream-load") return CmdStreamLoad(flags);
  if (command == "stream-replay") return CmdStreamReplay(flags);
  std::cerr << "unknown command " << command << "\n";
  return 2;
}
