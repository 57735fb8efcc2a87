#ifndef TABSKETCH_CORE_QUANTIZED_SKETCH_H_
#define TABSKETCH_CORE_QUANTIZED_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/code_kernels.h"
#include "core/estimator.h"
#include "core/sketch_cache.h"
#include "core/sketch_params.h"
#include "core/sketcher.h"
#include "util/result.h"
#include "util/status.h"

namespace tabsketch::core {

/// The quantized filter tier a code scan runs over: off, or 8-/16-bit codes
/// with a per-pool affine map (see QuantizedCodePool).
enum class QuantKind : uint8_t {
  kOff = 0,
  kInt8 = 1,
  kInt16 = 2,
};

/// Parses "off" / "int8" / "int16" (the `--quant=` flag values).
util::Result<QuantKind> ParseQuantKind(const std::string& text);
const char* QuantKindName(QuantKind kind);
/// Bytes per stored code: 1 (int8), 2 (int16), 0 (off).
size_t QuantCodeBytes(QuantKind kind);

/// The codes of one external sketch (a k-means centroid) quantized against a
/// pool's affine map. `usable` is false when the vector cannot be encoded
/// exactly within the pool's error bound (a non-finite component, or a value
/// outside the pool's range by more than half a quantization step); an
/// unusable vector's code distances are NaN, which the prefilters treat as
/// "always a candidate" — correctness never depends on encodability.
struct QuantizedVector {
  bool usable = false;
  /// k codes in the pool's width (1 or 2 bytes each, little-endian layout
  /// identical to the pool rows).
  std::vector<unsigned char> codes;
};

/// All tile sketches of a pool packed into integer codes under one affine
/// map: value ~= offset + scale * code, with offset = min finite component
/// and scale = (max - min) / (levels - 1) over the whole pool. Differences
/// cancel the offset, so a code distance is scale * (integer kernel result)
/// and the absolute error of any estimate reconstructed from codes is at
/// most `scale` (DESIGN.md §13 derives the bound); Slack() turns that into
/// the safe over-fetch margin the byte-identical filter-refine paths use.
///
/// Deterministic by construction: sketches are deterministic, the map is
/// derived from exact min/max scans, and encoding uses llround — the same
/// table and params always produce the same bytes (golden-tested).
/// Immutable after Build, so concurrent readers need no synchronization.
class QuantizedCodePool {
 public:
  /// Builds the code tier for every tile reachable through `cache` in two
  /// passes (min/max + flags, then encode). Passing each tile through the
  /// cache keeps peak memory bounded under an LRU budget; with a warm or
  /// fixed source the passes are pure reads. `kind` must not be kOff.
  ///
  /// Both passes fan out over `threads`: the first over contiguous runs of
  /// tiles whose ranges merge in run order, the second one row per tile.
  /// The bytes, offset() and scale() equal a one-thread build's.
  static util::Result<QuantizedCodePool> Build(TileSketchCache* cache,
                                               QuantKind kind,
                                               const SketchParams& params,
                                               size_t object_rows,
                                               size_t object_cols,
                                               size_t threads = 1);

  /// Build over any "sketch of tile i" getter (the streaming-ingest path,
  /// where window sketches live behind shared pointers).
  static util::Result<QuantizedCodePool> BuildFromGetter(
      const std::function<std::span<const double>(size_t)>& sketch_of,
      size_t count, QuantKind kind, const SketchParams& params,
      size_t object_rows, size_t object_cols);

  /// Marks "this window tile has no predecessor" in BuildSuccessor's
  /// base_of mapping.
  static constexpr size_t kNewTile = static_cast<size_t>(-1);

  /// Builds the successor pool of `base` for a slid window of
  /// `base_of.size()` tiles: surviving tile i copies its code row and
  /// usability flag from base tile base_of[i] (kNewTile marks a tile with
  /// no predecessor), and new tiles are encoded under the base's affine
  /// map when every finite component fits the base's representable range.
  /// When a new tile's values fall outside that range (the pool range
  /// grew), the whole window is re-encoded under a fresh map instead —
  /// `*rebuilt_map` reports which path was taken. Either way the map
  /// remains valid (per-component error <= scale/2 for every usable tile),
  /// so filter-refine answers derived via Slack() stay byte-identical to a
  /// from-scratch build (DESIGN.md §14); only after a retire-driven range
  /// shrink may the reused map be wider — and therefore the code *bytes*
  /// differ from a cold rebuild — without affecting any answer.
  /// `sketch_of` must cover every window tile (it is consulted for new
  /// tiles, and for all tiles on the rebuild path).
  static util::Result<QuantizedCodePool> BuildSuccessor(
      const QuantizedCodePool& base,
      const std::function<std::span<const double>(size_t)>& sketch_of,
      std::span<const size_t> base_of, bool* rebuilt_map);

  QuantKind kind() const { return kind_; }
  size_t count() const { return count_; }
  size_t k() const { return k_; }
  /// Bytes of one tile's code row: k codes in the kind's width.
  size_t row_bytes() const { return k_ * QuantCodeBytes(kind_); }
  double scale() const { return scale_; }
  double offset() const { return offset_; }
  const SketchParams& params() const { return params_; }
  size_t object_rows() const { return object_rows_; }
  size_t object_cols() const { return object_cols_; }

  /// False when tile `i`'s sketch has a non-finite component; its code row
  /// is all zeros and every code distance involving it is NaN.
  bool tile_usable(size_t i) const { return usable_[i] != 0; }

  /// Code-space distance between tiles `a` and `b`, in the same units as the
  /// raw sketch statistic: scale * median(|code diffs|) (l2 == false) or
  /// scale * sqrt(mean squared code diff) (l2 == true). Divide by
  /// DistanceEstimator::scale() to compare against estimator output. NaN
  /// when either tile is unusable.
  double CodeEstimate(size_t a, size_t b, bool l2,
                      kernels::CodeScratch* scratch) const;

  /// CodeEstimate between tile `a` and an external quantized vector (NaN
  /// when the vector is not usable).
  double CodeEstimateAgainst(size_t a, const QuantizedVector& other, bool l2,
                             kernels::CodeScratch* scratch) const;

  /// Encodes an external sketch (e.g. a sketch-space centroid) with this
  /// pool's map. Returns usable=false if any component is non-finite or
  /// outside the pool's value range by more than scale/2 — the bound below
  /// would not hold for such a vector, so it must stay an unconditional
  /// candidate.
  QuantizedVector Quantize(std::span<const double> values) const;

  /// The guaranteed bound on |estimator estimate - CodeEstimate/est.scale()|
  /// for usable operands: scale / est.scale(), padded by a 1e-6 relative
  /// safety factor that dominates every floating-point rounding term in the
  /// comparison (DESIGN.md §13). Filter thresholds built with this slack
  /// keep every tile the full scan could rank ahead — the byte-identity
  /// guarantee.
  double Slack(const DistanceEstimator& estimator) const;

  /// Exact bytes of the code + flag arrays (what quant.pool.bytes reports
  /// and SketchCacheBudget subtracts).
  size_t bytes() const { return PoolBytes(kind_, count_, k_); }
  static size_t PoolBytes(QuantKind kind, size_t count, size_t k) {
    return count * k * QuantCodeBytes(kind) + count;
  }

  /// The LruSketchCache budget beside a pinned `kind` code tier over `count`
  /// tiles, so that `total_bytes` bounds all sketch memory: a positive
  /// budget minus PoolBytes, at least 1 (the cache then computes and
  /// releases). A zero budget (keep every tile) and kOff pass through.
  static size_t SketchCacheBudget(size_t total_bytes, QuantKind kind,
                                  size_t count, size_t k) {
    if (total_bytes == 0 || kind == QuantKind::kOff) return total_bytes;
    const size_t pool_bytes = PoolBytes(kind, count, k);
    return total_bytes > pool_bytes ? total_bytes - pool_bytes : 1;
  }

  /// Raw storage, for byte-stability tests.
  const std::vector<unsigned char>& raw_codes() const { return codes_; }
  const std::vector<uint8_t>& usable_flags() const { return usable_; }

 private:
  QuantizedCodePool() = default;

  /// A pool of `count` usable all-zero rows with no map yet, after checking
  /// `kind` and `params`.
  static util::Result<QuantizedCodePool> Empty(size_t count, QuantKind kind,
                                               const SketchParams& params,
                                               size_t object_rows,
                                               size_t object_cols);

  /// The one two-pass build, over any "sketch of tile i" lookup: a getter
  /// of spans, or a cache's Get. Both passes fan out over `threads`; with 1
  /// they run on the caller's thread.
  template <typename Lookup>
  static util::Result<QuantizedCodePool> BuildImpl(
      const Lookup& lookup, size_t count, QuantKind kind,
      const SketchParams& params, size_t object_rows, size_t object_cols,
      size_t threads);

  /// Encodes one finite in-range value (clamped to the code range).
  uint32_t EncodeValue(double value) const;
  /// Encodes finite `values` into `row`, row_bytes() long.
  void EncodeRow(std::span<const double> values, unsigned char* row) const;
  /// True when every component lies inside the map's representable range
  /// padded by half a step, where a clamped encode still meets the
  /// <= scale/2 error bound. Callers test finiteness first.
  bool Representable(std::span<const double> values) const;
  /// Max representable code: levels - 1.
  uint32_t MaxCode() const { return kind_ == QuantKind::kInt8 ? 255 : 65535; }
  double CodeDistance(const unsigned char* a, const unsigned char* b, bool l2,
                      kernels::CodeScratch* scratch) const;

  QuantKind kind_ = QuantKind::kOff;
  size_t count_ = 0;
  size_t k_ = 0;
  double scale_ = 0.0;
  double offset_ = 0.0;
  SketchParams params_;
  size_t object_rows_ = 0;
  size_t object_cols_ = 0;
  /// count * k codes, row-major, in the kind's width (native little-endian).
  std::vector<unsigned char> codes_;
  /// One flag per tile (1 = usable).
  std::vector<uint8_t> usable_;
};

}  // namespace tabsketch::core

#endif  // TABSKETCH_CORE_QUANTIZED_SKETCH_H_
