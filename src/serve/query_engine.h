#ifndef TABSKETCH_SERVE_QUERY_ENGINE_H_
#define TABSKETCH_SERVE_QUERY_ENGINE_H_

#include <cstddef>
#include <iosfwd>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/knn.h"
#include "core/quantized_sketch.h"
#include "core/sketch_cache.h"
#include "table/tiling.h"
#include "util/result.h"

namespace tabsketch::serve {

/// One request of a query batch (see docs/FORMATS.md, "Batch query file").
struct QueryRequest {
  enum class Kind {
    /// Sketch-estimated Lp distance between tiles `a` and `b`.
    kDistance,
    /// The `k` nearest tiles to tile `a` by estimated distance (optionally
    /// refined with exact distances, see QueryEngineOptions::refine).
    kKnn,
  };

  Kind kind = Kind::kDistance;
  size_t a = 0;
  size_t b = 0;  // distance only
  size_t k = 0;  // knn only

  friend bool operator==(const QueryRequest& x, const QueryRequest& y) {
    return x.kind == y.kind && x.a == y.a && x.b == y.b && x.k == y.k;
  }
};

/// Stream precision every answer line is formatted with: max_digits10, so
/// printed distances round-trip to the exact binary64 estimate (the same
/// full width the metrics JSON and golden fixtures carry). Tests and other
/// producers of expected answer strings must set the same precision.
inline constexpr int kAnswerPrecision =
    std::numeric_limits<double>::max_digits10;

/// Parses one line of the batch grammar (`distance A B` / `knn Q K`).
/// A trailing '\r' (CRLF batch files read with std::getline) is stripped
/// before tokenizing, so Windows-authored batches parse identically to
/// LF ones. Returns nullopt for blank / comment-only lines; malformed lines
/// are InvalidArgument carrying the given 1-based `line_number`. Index
/// bounds are checked later, by QueryEngine::Run, which knows the tile
/// count. This is the shared parse step of ParseBatch and the serve
/// daemon's wire protocol (serve/server.h).
util::Result<std::optional<QueryRequest>> ParseBatchLine(std::string line,
                                                         size_t line_number);

/// Parses a batch-query stream: one request per line (`distance A B` /
/// `knn Q K`), `#` comments and blank lines ignored, CRLF tolerated.
/// Malformed lines are InvalidArgument with the 1-based line number. Index
/// bounds are checked later, by QueryEngine::Run, which knows the tile
/// count.
util::Result<std::vector<QueryRequest>> ParseBatch(std::istream& in);

/// ParseBatch over the contents of `path`.
util::Result<std::vector<QueryRequest>> ParseBatchFile(
    const std::string& path);

/// Per-request work attribution, filled by QueryEngine::Run when the caller
/// asks for it: where each request's sketch lookups landed (cache hits vs
/// computed-on-demand misses) and how hard the quant prefilter worked. The
/// serve daemon threads one of these through every wire request so the
/// slow-query log can say *why* a request was slow (cold cache? weak
/// prefilter?), not just that it was. Pure tallies — collecting them never
/// changes an answer byte.
struct RequestStats {
  /// Sketch lookups served from retained/preloaded entries.
  uint64_t cache_hits = 0;
  /// Sketch lookups that computed (a TileSketchCache::Get miss).
  uint64_t cache_misses = 0;
  /// Quantized-code candidates scanned (0 when quant is off).
  uint64_t quant_scanned = 0;
  /// Candidates surviving the code prefilter into the full-sketch refine.
  uint64_t quant_kept = 0;

  void MergeFrom(const RequestStats& other) {
    cache_hits += other.cache_hits;
    cache_misses += other.cache_misses;
    quant_scanned += other.quant_scanned;
    quant_kept += other.quant_kept;
  }
};

struct QueryEngineOptions {
  /// Worker threads the batch fans over (util::ParallelFor). Output is
  /// byte-identical for every value.
  size_t threads = 1;

  /// When set, knn requests are answered filter-and-refine: sketches select
  /// `candidates` promising tiles, exact Lp distances re-rank them, and the
  /// reported distances are exact. With candidates = tiles - 1 this is
  /// exhaustive exact search. Requires a grid with data (not just sketches).
  bool refine = false;

  /// Candidate-set size for refined knn; 0 picks max(3k, k + 8), clamped to
  /// the corpus size. Ignored without `refine`.
  size_t candidates = 0;

  /// Code-scan prefilter tier for knn requests (`--quant=`). When not kOff,
  /// the engine must be constructed with a matching QuantizedCodePool: each
  /// knn scan first runs over the int8/int16 codes, keeps every tile within
  /// the pool's guaranteed slack of the k-th best code distance, and only
  /// the survivors touch full double sketches — answers stay byte-identical
  /// to kOff (DESIGN.md §13), the scan just moves 8-16x fewer bytes.
  /// Distance requests always use full sketches.
  core::QuantKind quant = core::QuantKind::kOff;
};

/// Answers batches of mixed distance / knn requests over the tiles of a
/// grid, routing every sketch lookup through a TileSketchCache — the
/// serving-path composition of the paper's filter-then-refine pipeline: the
/// cache computes under a byte budget (LruSketchCache) or serves preloaded
/// sketches (FixedSketchSource), and answers are bit-identical
/// whichever policy and thread count is used, because sketches are
/// deterministic and each request's output slot is fixed up front.
class QueryEngine {
 public:
  /// `cache`, `estimator` and `codes` must outlive the engine; `grid` may be
  /// null when options.refine is false (sketch-only serving, e.g. from a
  /// preloaded sketch set). When given, the grid's tile count must match the
  /// cache's. `codes` is required (with matching kind and tile count) iff
  /// options.quant is not kOff.
  QueryEngine(const table::TileGrid* grid, core::TileSketchCache* cache,
              const core::DistanceEstimator* estimator,
              const QueryEngineOptions& options,
              const core::QuantizedCodePool* codes = nullptr);

  /// Answers every request, one deterministic result line per request in
  /// request order. Validates all indices/arguments up front and fails
  /// without partial work; a NaN estimate (NaN in the data) never reorders
  /// results undeterministically (core::NeighborBefore ranks NaN last).
  ///
  /// When `stats` is non-null it receives the batch's aggregated
  /// RequestStats (summed over requests after the parallel loop, so the
  /// result is deterministic). Passing stats never changes an answer byte.
  util::Result<std::vector<std::string>> Run(
      std::span<const QueryRequest> batch,
      RequestStats* stats = nullptr) const;

 private:
  /// Per-thread buffers reused across every request a worker answers —
  /// candidate lists, estimator scratch and the code-kernel scratch all keep
  /// their capacity between batch lines, so steady-state serving does not
  /// allocate per request.
  struct Workspace {
    std::vector<double> scratch;
    std::vector<core::Neighbor> neighbors;
    std::vector<core::Neighbor> refined;
    core::kernels::CodeScratch code_scratch;
  };

  /// Sketch lookup with per-request attribution: counts the hit/miss into
  /// `stats` (when non-null) and forwards to the cache.
  std::shared_ptr<const core::Sketch> GetSketch(size_t index,
                                                RequestStats* stats) const;

  std::string AnswerDistance(const QueryRequest& request,
                             Workspace* workspace,
                             RequestStats* stats) const;
  std::string AnswerKnn(const QueryRequest& request, Workspace* workspace,
                        RequestStats* stats) const;

  const table::TileGrid* grid_;
  core::TileSketchCache* cache_;
  const core::DistanceEstimator* estimator_;
  QueryEngineOptions options_;
  const core::QuantizedCodePool* codes_;
};

}  // namespace tabsketch::serve

#endif  // TABSKETCH_SERVE_QUERY_ENGINE_H_
