#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared pieces of the perfbench tool's subcommands: the fixed workload
// shapes, flag parsing and the flat JSON object every subcommand prints.

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "table/matrix.h"
#include "util/result.h"

namespace tabsketch::cluster {}
namespace tabsketch::data {}
namespace tabsketch::serve {}
namespace tabsketch::table {}
namespace tabsketch::util {}

namespace perfbench {

namespace cluster = tabsketch::cluster;
namespace core = tabsketch::core;
namespace data = tabsketch::data;
namespace serve = tabsketch::serve;
namespace table = tabsketch::table;
namespace util = tabsketch::util;

/// Paper-faithful tiles: 16 stations x 1 day of 10-minute bins (2304 values).
inline constexpr size_t kTileRows = 16;
inline constexpr size_t kBinsPerDay = 144;
/// Library fan-out, fixed and recorded with every result.
inline constexpr size_t kThreads = 4;

/// `mine`: call-volume table of kMineStations x kMineDays stitched days.
inline constexpr size_t kMineStations = 1024;
inline constexpr size_t kMineDays = 24;
/// Dyadic pool over the first day: windows 2^3..2^4 (the small-window rungs
/// where the sparse router takes the direct path), k = 64.
inline constexpr size_t kPoolK = 64;
inline constexpr size_t kPoolLog2Min = 3;
inline constexpr size_t kPoolLog2Max = 4;
inline constexpr double kPoolSparsity = 0.1;
/// Tile sketches and 20-means at p = 0.5, k = 256 (the paper's Fig 3 shape).
inline constexpr double kMineP = 0.5;
inline constexpr size_t kMineK = 256;
inline constexpr size_t kClusters = 20;
inline constexpr size_t kKMeansIterations = 8;

/// `serve-knn`: daemon table, family p = 1, k = 64, `knn Q 10`.
inline constexpr size_t kKnnStations = 1024;
inline constexpr size_t kKnnDays = 4;
inline constexpr size_t kKnnTop = 10;
inline constexpr double kKnnZipf = 1.0;
inline constexpr size_t kKnnRequests = 40000;

/// `serve-stream`: window of kWindowDays days, kPieces one-day pieces that
/// are appended in a cycle.
inline constexpr size_t kStreamStations = 64;
inline constexpr size_t kWindowDays = 8;
inline constexpr size_t kPieces = 8;
inline constexpr size_t kStreamReads = 20000;
inline constexpr size_t kProbeRequests = 2000;

/// Sketch families are configuration of the system under test, fixed
/// across runs; the workload seed only drives the generated inputs.
inline constexpr uint64_t kFamilySeed = 42;
/// The tables are fixed too: how well the quantized prefilter prunes
/// depends on the value range of the data, and a seed-dependent table made
/// knn latency swing 3x between seeds. The seed drives everything else —
/// the knn query stream, the distance pairs, the k-means initialisation.
inline constexpr uint64_t kTableSeed = 0xca11f01d;

/// Call-volume table of `stations` x `days` stitched days (exit on error).
table::Matrix GenerateTable(size_t stations, size_t days, uint64_t seed);
core::SketchParams ServeParams();
core::SketchParams MineParams();

/// --key=value / --key value / --flag command-line flags.
class Flags {
 public:
  Flags(int argc, char** argv, int first);
  std::string Str(const std::string& key, const std::string& fallback = "") const;
  double Num(const std::string& key, double fallback = 0.0) const;
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Flat JSON object with insertion-ordered keys; numbers keep every digit.
class JsonObject {
 public:
  void Num(const std::string& key, double value);
  void Str(const std::string& key, const std::string& value);
  void Bool(const std::string& key, bool value);
  std::string Render() const;

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// The value of `result`, or exit(1) naming `what`.
template <typename T>
T OrDie(util::Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status().ToString() << "\n";
    std::exit(1);
  }
  return std::move(*result);
}

/// Median ns per DistanceEstimator::EstimateWithScratch over a fixed,
/// seeded sample of pairs from `sketches`.
double EstimateNs(const core::SketchParams& params,
                  const std::vector<core::Sketch>& sketches, uint64_t seed);

std::vector<std::string> ReadLines(const std::string& path);
void WriteLines(const std::string& path, const std::vector<std::string>& lines);

/// Subcommands (each prints one JSON object as its last stdout line and
/// returns the process exit code).
int CmdPrepare(const Flags& flags);
int CmdMine(const Flags& flags);
int CmdKnnLoad(const Flags& flags);
int CmdKnnReplay(const Flags& flags);
int CmdStreamLoad(const Flags& flags);
int CmdStreamReplay(const Flags& flags);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
