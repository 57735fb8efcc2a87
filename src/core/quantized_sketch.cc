#include "core/quantized_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "util/logging.h"
#include "util/parallel.h"

namespace tabsketch::core {
namespace {

bool AllFinite(std::span<const double> values) {
  for (double value : values) {
    if (!std::isfinite(value)) return false;
  }
  return true;
}

/// A build's first pass over a run of tiles, in tile order: the finite value
/// range. Strict comparisons keep the first of equal extremes (so the sign
/// of a zero extreme is the first zero's).
struct ValueRange {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  bool any_finite = false;

  /// Folds one tile's sketch in; false when a component is not finite.
  bool Add(std::span<const double> values) {
    bool finite = true;
    for (double value : values) {
      if (!std::isfinite(value)) {
        finite = false;
        continue;
      }
      any_finite = true;
      if (value < min) min = value;
      if (value > max) max = value;
    }
    return finite;
  }

  /// Folds in the range of the run that follows this one. Merging runs in
  /// order gives the bits one scan over all of them gives.
  void Merge(const ValueRange& next) {
    any_finite = any_finite || next.any_finite;
    if (next.min < min) min = next.min;
    if (next.max > max) max = next.max;
  }
};

/// The values a build lookup returned: a getter's span, or a cache's sketch.
std::span<const double> ValuesOf(std::span<const double> values) {
  return values;
}
std::span<const double> ValuesOf(const std::shared_ptr<const Sketch>& sketch) {
  return sketch->values;
}

util::Status SketchLengthError() {
  return util::Status::InvalidArgument(
      "sketch length disagrees with params.k");
}

}  // namespace

util::Result<QuantKind> ParseQuantKind(const std::string& text) {
  if (text == "off") return QuantKind::kOff;
  if (text == "int8") return QuantKind::kInt8;
  if (text == "int16") return QuantKind::kInt16;
  return util::Status::InvalidArgument(
      "unknown quantization kind '" + text + "' (off, int8, int16)");
}

const char* QuantKindName(QuantKind kind) {
  switch (kind) {
    case QuantKind::kOff:
      return "off";
    case QuantKind::kInt8:
      return "int8";
    case QuantKind::kInt16:
      return "int16";
  }
  return "?";
}

size_t QuantCodeBytes(QuantKind kind) {
  switch (kind) {
    case QuantKind::kOff:
      return 0;
    case QuantKind::kInt8:
      return 1;
    case QuantKind::kInt16:
      return 2;
  }
  return 0;
}

util::Result<QuantizedCodePool> QuantizedCodePool::Empty(
    size_t count, QuantKind kind, const SketchParams& params,
    size_t object_rows, size_t object_cols) {
  if (kind == QuantKind::kOff) {
    return util::Status::InvalidArgument(
        "cannot build a code pool with quantization off");
  }
  TABSKETCH_RETURN_IF_ERROR(params.Validate());

  QuantizedCodePool pool;
  pool.kind_ = kind;
  pool.count_ = count;
  pool.k_ = params.k;
  pool.params_ = params;
  pool.object_rows_ = object_rows;
  pool.object_cols_ = object_cols;
  pool.usable_.assign(count, 1);
  // Unusable tiles keep all-zero rows so the bytes are deterministic
  // regardless of what the NaNs were.
  pool.codes_.assign(count * params.k * QuantCodeBytes(kind), 0);
  return pool;
}

void QuantizedCodePool::EncodeRow(std::span<const double> values,
                                  unsigned char* row) const {
  for (size_t j = 0; j < k_; ++j) {
    const uint32_t code = EncodeValue(values[j]);
    if (kind_ == QuantKind::kInt8) {
      row[j] = static_cast<unsigned char>(code);
    } else {
      const uint16_t code16 = static_cast<uint16_t>(code);
      std::memcpy(row + 2 * j, &code16, sizeof(code16));
    }
  }
}

// The lookup may recompute or fault sketches in (LRU sources); both passes
// see identical values because sketches are deterministic.
template <typename Lookup>
util::Result<QuantizedCodePool> QuantizedCodePool::BuildImpl(
    const Lookup& lookup, size_t count, QuantKind kind,
    const SketchParams& params, size_t object_rows, size_t object_cols,
    size_t threads) {
  TABSKETCH_ASSIGN_OR_RETURN(
      QuantizedCodePool pool,
      Empty(count, kind, params, object_rows, object_cols));
  // Pass 1: the finite value range and per-tile usability flags, over
  // `threads` contiguous runs of tiles merged in run order. Each lookup's
  // result is held while its values are read: a bounded cache may evict
  // the entry as soon as the next Get lands.
  const size_t runs = std::max<size_t>(threads, 1);
  std::vector<ValueRange> ranges(runs);
  std::vector<uint8_t> bad_length(runs, 0);
  util::ParallelFor(runs, runs, [&](size_t run) {
    for (size_t i = count * run / runs; i < count * (run + 1) / runs; ++i) {
      const auto held = lookup(i);
      const std::span<const double> values = ValuesOf(held);
      if (values.size() != params.k) {
        bad_length[run] = 1;
        return;
      }
      if (!ranges[run].Add(values)) pool.usable_[i] = 0;
    }
  });
  ValueRange range;
  for (size_t run = 0; run < runs; ++run) {
    if (bad_length[run] != 0) return SketchLengthError();
    range.Merge(ranges[run]);
  }
  if (range.any_finite && range.max > range.min) {
    pool.offset_ = range.min;
    pool.scale_ =
        (range.max - range.min) / static_cast<double>(pool.MaxCode());
  } else {
    // Degenerate pool (empty, constant, or all non-finite): every code is 0
    // and the quantization error — hence the slack — is exactly 0.
    pool.offset_ = range.any_finite ? range.min : 0.0;
    pool.scale_ = 0.0;
  }
  // Pass 2: encode, one row per tile.
  util::ParallelFor(count, threads, [&](size_t i) {
    if (pool.usable_[i] != 0) {
      pool.EncodeRow(ValuesOf(lookup(i)),
                     pool.codes_.data() + i * pool.row_bytes());
    }
  });
  return pool;
}

util::Result<QuantizedCodePool> QuantizedCodePool::Build(
    TileSketchCache* cache, QuantKind kind, const SketchParams& params,
    size_t object_rows, size_t object_cols, size_t threads) {
  TABSKETCH_CHECK(cache != nullptr);
  return BuildImpl([cache](size_t i) { return cache->Get(i); },
                   cache->num_tiles(), kind, params, object_rows,
                   object_cols, threads);
}

util::Result<QuantizedCodePool> QuantizedCodePool::BuildFromGetter(
    const std::function<std::span<const double>(size_t)>& sketch_of,
    size_t count, QuantKind kind, const SketchParams& params,
    size_t object_rows, size_t object_cols) {
  return BuildImpl(sketch_of, count, kind, params, object_rows, object_cols,
                   /*threads=*/1);
}

util::Result<QuantizedCodePool> QuantizedCodePool::BuildSuccessor(
    const QuantizedCodePool& base,
    const std::function<std::span<const double>(size_t)>& sketch_of,
    std::span<const size_t> base_of, bool* rebuilt_map) {
  TABSKETCH_CHECK(rebuilt_map != nullptr);
  if (base.kind_ == QuantKind::kOff) {
    return util::Status::InvalidArgument(
        "cannot build a successor of a code pool with quantization off");
  }
  const size_t count = base_of.size();
  for (const size_t from : base_of) {
    if (from != kNewTile && from >= base.count_) {
      return util::Status::InvalidArgument(
          "successor base_of index out of the base pool's range");
    }
  }

  // A new tile fits the base map iff all its finite components are
  // representable under it (the acceptance window Quantize uses). Anything
  // further out means the pool range grew and the map must be re-derived.
  bool fits = true;
  for (size_t i = 0; i < count && fits; ++i) {
    if (base_of[i] != kNewTile) continue;
    std::span<const double> values = sketch_of(i);
    if (values.size() != base.params_.k) return SketchLengthError();
    if (!AllFinite(values)) continue;  // unusable tile; map-independent
    fits = base.Representable(values);
  }
  if (!fits) {
    *rebuilt_map = true;
    return BuildImpl(sketch_of, count, base.kind_, base.params_,
                     base.object_rows_, base.object_cols_, /*threads=*/1);
  }
  *rebuilt_map = false;

  TABSKETCH_ASSIGN_OR_RETURN(
      QuantizedCodePool pool,
      Empty(count, base.kind_, base.params_, base.object_rows_,
            base.object_cols_));
  pool.scale_ = base.scale_;
  pool.offset_ = base.offset_;
  const size_t row_bytes = pool.row_bytes();
  for (size_t i = 0; i < count; ++i) {
    unsigned char* row = pool.codes_.data() + i * row_bytes;
    if (base_of[i] != kNewTile) {
      // Surviving tile: the exact bytes it had in the base pool.
      pool.usable_[i] = base.usable_[base_of[i]];
      std::memcpy(row, base.codes_.data() + base_of[i] * row_bytes,
                  row_bytes);
      continue;
    }
    std::span<const double> values = sketch_of(i);
    if (!AllFinite(values)) {
      pool.usable_[i] = 0;  // all-zero row, like BuildImpl
      continue;
    }
    pool.EncodeRow(values, row);
  }
  return pool;
}

uint32_t QuantizedCodePool::EncodeValue(double value) const {
  if (scale_ == 0.0) return 0;
  const double q = (value - offset_) / scale_;
  if (!(q > 0.0)) return 0;
  const double max_code = static_cast<double>(MaxCode());
  if (q >= max_code) return MaxCode();
  return static_cast<uint32_t>(std::llround(q));
}

double QuantizedCodePool::CodeDistance(const unsigned char* a,
                                       const unsigned char* b, bool l2,
                                       kernels::CodeScratch* scratch) const {
  if (l2) {
    const uint64_t ssd =
        kind_ == QuantKind::kInt8
            ? kernels::SumSquaredDiff(reinterpret_cast<const uint8_t*>(a),
                                      reinterpret_cast<const uint8_t*>(b), k_)
            : kernels::SumSquaredDiff(reinterpret_cast<const uint16_t*>(a),
                                      reinterpret_cast<const uint16_t*>(b),
                                      k_);
    return scale_ * std::sqrt(static_cast<double>(ssd) /
                              static_cast<double>(k_));
  }
  const double median =
      kind_ == QuantKind::kInt8
          ? kernels::MedianAbsDiff(reinterpret_cast<const uint8_t*>(a),
                                   reinterpret_cast<const uint8_t*>(b), k_,
                                   scratch)
          : kernels::MedianAbsDiff(reinterpret_cast<const uint16_t*>(a),
                                   reinterpret_cast<const uint16_t*>(b), k_,
                                   scratch);
  return scale_ * median;
}

double QuantizedCodePool::CodeEstimate(size_t a, size_t b, bool l2,
                                       kernels::CodeScratch* scratch) const {
  TABSKETCH_CHECK(a < count_ && b < count_);
  if (usable_[a] == 0 || usable_[b] == 0) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return CodeDistance(codes_.data() + a * row_bytes(),
                      codes_.data() + b * row_bytes(), l2, scratch);
}

double QuantizedCodePool::CodeEstimateAgainst(
    size_t a, const QuantizedVector& other, bool l2,
    kernels::CodeScratch* scratch) const {
  TABSKETCH_CHECK(a < count_);
  if (usable_[a] == 0 || !other.usable) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  TABSKETCH_CHECK(other.codes.size() == row_bytes());
  return CodeDistance(codes_.data() + a * row_bytes(), other.codes.data(),
                      l2, scratch);
}

QuantizedVector QuantizedCodePool::Quantize(
    std::span<const double> values) const {
  QuantizedVector result;
  // Sketch-space centroids are convex combinations of pool values, so they
  // are representable up to mean-rounding noise; anything further out (a
  // reloaded pool, pathological rounding) stays unusable and therefore an
  // unconditional candidate.
  if (values.size() != k_ || !AllFinite(values) || !Representable(values)) {
    return result;
  }
  result.codes.assign(row_bytes(), 0);
  EncodeRow(values, result.codes.data());
  result.usable = true;
  return result;
}

bool QuantizedCodePool::Representable(std::span<const double> values) const {
  const double lo = offset_ - 0.5 * scale_;
  const double hi =
      offset_ + scale_ * static_cast<double>(MaxCode()) + 0.5 * scale_;
  for (const double value : values) {
    if (value < lo || value > hi) return false;
  }
  return true;
}

double QuantizedCodePool::Slack(const DistanceEstimator& estimator) const {
  return scale_ / estimator.scale() * kSlackSafety;
}

}  // namespace tabsketch::core
