#include "serve/query_engine.h"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <sstream>
#include <utility>

#include "core/knn.h"
#include "core/lp_distance.h"
#include "util/metrics.h"
#include "util/parallel.h"
#include "util/trace.h"

namespace tabsketch::serve {
namespace {

/// Strict size_t token parse (no sign, no trailing junk).
bool ParseIndex(const std::string& token, size_t* out) {
  unsigned long long value = 0;
  const char* begin = token.data();
  const char* end = begin + token.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc() || ptr != end) return false;
  *out = static_cast<size_t>(value);
  return true;
}

util::Status LineError(size_t line_number, const std::string& message) {
  std::ostringstream msg;
  msg << "batch line " << line_number << ": " << message;
  return util::Status::InvalidArgument(msg.str());
}

}  // namespace

util::Result<std::optional<QueryRequest>> ParseBatchLine(std::string line,
                                                         size_t line_number) {
  // std::getline splits on '\n' only, so a CRLF-terminated line arrives with
  // a trailing '\r' glued to the final token; strip it before tokenizing so
  // CRLF batches parse identically to LF ones.
  if (!line.empty() && line.back() == '\r') line.pop_back();
  // Strip a trailing comment, then tokenize what is left.
  const size_t hash = line.find('#');
  if (hash != std::string::npos) line.resize(hash);
  std::istringstream tokens(line);
  std::string verb;
  if (!(tokens >> verb)) return std::optional<QueryRequest>();

  QueryRequest request;
  std::string first, second, extra;
  if (!(tokens >> first >> second)) {
    return LineError(line_number, "'" + verb + "' needs two arguments");
  }
  if (tokens >> extra) {
    return LineError(line_number, "trailing token '" + extra + "'");
  }
  if (verb == "distance") {
    request.kind = QueryRequest::Kind::kDistance;
    if (!ParseIndex(first, &request.a) || !ParseIndex(second, &request.b)) {
      return LineError(line_number, "expected 'distance <tileA> <tileB>'");
    }
  } else if (verb == "knn") {
    request.kind = QueryRequest::Kind::kKnn;
    if (!ParseIndex(first, &request.a) || !ParseIndex(second, &request.k)) {
      return LineError(line_number, "expected 'knn <tile> <k>'");
    }
  } else {
    return LineError(line_number,
                     "unknown request '" + verb + "' (distance, knn)");
  }
  return std::optional<QueryRequest>(request);
}

util::Result<std::vector<QueryRequest>> ParseBatch(std::istream& in) {
  std::vector<QueryRequest> requests;
  std::string line;
  size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    TABSKETCH_ASSIGN_OR_RETURN(std::optional<QueryRequest> request,
                               ParseBatchLine(std::move(line), line_number));
    if (request.has_value()) requests.push_back(*request);
  }
  return requests;
}

util::Result<std::vector<QueryRequest>> ParseBatchFile(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) return util::Status::IOError("cannot open batch file " + path);
  return ParseBatch(in);
}

QueryEngine::QueryEngine(const table::TileGrid* grid,
                         core::TileSketchCache* cache,
                         const core::DistanceEstimator* estimator,
                         const QueryEngineOptions& options,
                         const core::QuantizedCodePool* codes)
    : grid_(grid),
      cache_(cache),
      estimator_(estimator),
      options_(options),
      codes_(codes) {}

std::shared_ptr<const core::Sketch> QueryEngine::GetSketch(
    size_t index, RequestStats* stats) const {
  bool computed = false;
  std::shared_ptr<const core::Sketch> sketch = cache_->Get(index, &computed);
  if (stats != nullptr) {
    if (computed) {
      ++stats->cache_misses;
    } else {
      ++stats->cache_hits;
    }
  }
  return sketch;
}

std::string QueryEngine::AnswerDistance(const QueryRequest& request,
                                        Workspace* workspace,
                                        RequestStats* stats) const {
  const std::shared_ptr<const core::Sketch> a = GetSketch(request.a, stats);
  const std::shared_ptr<const core::Sketch> b = GetSketch(request.b, stats);
  const double estimate = estimator_->EstimateWithScratch(
      a->values, b->values, &workspace->scratch);
  std::ostringstream out;
  out.precision(kAnswerPrecision);
  out << "distance " << request.a << " " << request.b << " = " << estimate;
  return out.str();
}

std::string QueryEngine::AnswerKnn(const QueryRequest& request,
                                   Workspace* workspace,
                                   RequestStats* stats) const {
  const size_t n = cache_->num_tiles();

  size_t want = request.k;
  if (options_.refine) {
    // Candidate-set sizing: modestly above k unless the caller pinned it,
    // clamped to the corpus.
    want = options_.candidates > 0
               ? options_.candidates
               : std::max(3 * request.k, request.k + 8);
    want = std::min(std::max(want, request.k), n - 1);
  }

  // Candidates: every other tile, or with quant on only those the code
  // filter keeps (DESIGN.md §13), in the order the filter leaves them.
  std::vector<core::Neighbor>& all = workspace->neighbors;
  all.clear();
  if (options_.quant != core::QuantKind::kOff) {
    const bool l2 = estimator_->kind() == core::EstimatorKind::kL2;
    const double inv_scale = 1.0 / estimator_->scale();
    {
      TABSKETCH_TRACE_SPAN("quant.scan");
      for (size_t i = 0; i < n; ++i) {
        if (i == request.a) continue;
        all.push_back(core::Neighbor{
            i, codes_->CodeEstimate(request.a, i, l2,
                                    &workspace->code_scratch) *
                   inv_scale});
      }
    }
    const size_t scanned = all.size();
    core::FilterByCode(&all, want, codes_->Slack(*estimator_),
                       codes_->row_bytes());
    if (stats != nullptr) {
      stats->quant_scanned += scanned;
      stats->quant_kept += all.size();
    }
  } else {
    for (size_t i = 0; i < n; ++i) {
      if (i != request.a) all.push_back(core::Neighbor{i, 0.0});
    }
  }
  // Estimate: full sketches via the cache, the query's first.
  const std::shared_ptr<const core::Sketch> query =
      GetSketch(request.a, stats);
  core::EstimateAndKeepNearest(&all, want, [&](size_t i) {
    const std::shared_ptr<const core::Sketch> other = GetSketch(i, stats);
    return estimator_->EstimateWithScratch(query->values, other->values,
                                           &workspace->scratch);
  });

  std::vector<core::Neighbor>* top = &all;
  if (options_.refine) {
    // Refine: exact Lp distances re-rank the candidates, so the reported
    // distances are exact.
    const table::TableView query_view = grid_->Tile(request.a);
    std::vector<core::Neighbor>& refined = workspace->refined;
    refined.clear();
    for (const core::Neighbor& candidate : all) {
      refined.push_back(core::Neighbor{
          candidate.index,
          core::LpDistance(query_view, grid_->Tile(candidate.index),
                           estimator_->p())});
    }
    core::SmallestKNeighborsInPlace(&refined, request.k);
    top = &refined;
  }

  std::ostringstream out;
  out.precision(kAnswerPrecision);
  out << "knn " << request.a << " " << request.k << " =";
  for (const core::Neighbor& neighbor : *top) {
    out << " " << neighbor.index << ":" << neighbor.distance;
  }
  return out.str();
}

util::Result<std::vector<std::string>> QueryEngine::Run(
    std::span<const QueryRequest> batch, RequestStats* stats) const {
  const size_t n = cache_->num_tiles();
  if (grid_ != nullptr && grid_->num_tiles() != n) {
    return util::Status::InvalidArgument(
        "grid and sketch cache disagree on the tile count");
  }
  if (options_.refine && grid_ == nullptr) {
    return util::Status::InvalidArgument(
        "refined knn needs table data, not just sketches");
  }
  if (options_.quant != core::QuantKind::kOff) {
    if (codes_ == nullptr) {
      return util::Status::InvalidArgument(
          "quantized filtering needs a code pool");
    }
    if (codes_->kind() != options_.quant) {
      return util::Status::InvalidArgument(
          "code pool kind does not match the requested quantization");
    }
    if (codes_->count() != n) {
      return util::Status::InvalidArgument(
          "code pool and sketch cache disagree on the tile count");
    }
  }

  // Validate everything up front so a bad request fails the whole batch
  // before any work (and the parallel loop below can never index out of
  // bounds).
  size_t distance_requests = 0;
  size_t knn_requests = 0;
  for (size_t i = 0; i < batch.size(); ++i) {
    const QueryRequest& request = batch[i];
    std::ostringstream msg;
    msg << "request " << i + 1 << ": ";
    if (request.kind == QueryRequest::Kind::kDistance) {
      ++distance_requests;
      if (request.a >= n || request.b >= n) {
        msg << "tile out of range (tiles=" << n << ")";
        return util::Status::OutOfRange(msg.str());
      }
    } else {
      ++knn_requests;
      if (request.a >= n) {
        msg << "tile out of range (tiles=" << n << ")";
        return util::Status::OutOfRange(msg.str());
      }
      if (request.k == 0 || request.k > n - 1) {
        msg << "need 1 <= k <= tiles-1, got k=" << request.k
            << " tiles=" << n;
        return util::Status::InvalidArgument(msg.str());
      }
    }
  }
  TABSKETCH_METRIC_COUNT_N("query.requests.distance", distance_requests);
  TABSKETCH_METRIC_COUNT_N("query.requests.knn", knn_requests);

  // Each request owns one pre-sized output slot, so the answer vector is
  // identical for every thread count and every cache policy. Stats get the
  // same treatment: one slot per request, summed in request order after the
  // loop, so the aggregate is deterministic too.
  std::vector<std::string> results(batch.size());
  std::vector<RequestStats> per_request(stats != nullptr ? batch.size() : 0);
  {
    TABSKETCH_TRACE_SPAN("query.batch");
    util::ParallelFor(batch.size(), options_.threads, [&](size_t i) {
      // One workspace per worker thread, warm across requests and batches:
      // candidate vectors and estimator scratch keep their capacity, so
      // steady-state knn serving allocates nothing per line.
      thread_local Workspace workspace;
      const QueryRequest& request = batch[i];
      RequestStats* slot = stats != nullptr ? &per_request[i] : nullptr;
      results[i] = request.kind == QueryRequest::Kind::kDistance
                       ? AnswerDistance(request, &workspace, slot)
                       : AnswerKnn(request, &workspace, slot);
    });
  }
  if (stats != nullptr) {
    for (const RequestStats& slot : per_request) stats->MergeFrom(slot);
  }
  return results;
}

}  // namespace tabsketch::serve
