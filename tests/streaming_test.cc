#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <utility>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/growing.h"
#include "core/ondemand.h"
#include "core/quantized_sketch.h"
#include "core/sketcher.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "util/status.h"

namespace tabsketch::core {
namespace {

table::Matrix RandomPiece(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 100.0;
  return out;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------------------------------------------------------------------
// Randomized append/retire schedules: the byte-identity property test.
// ---------------------------------------------------------------------------

/// One step of a streaming schedule. Appends carry a piece width and a data
/// seed; retires carry a requested tile-column count that execution clamps
/// to the live window (so any subsequence of a schedule is also a valid
/// schedule — the shrinker depends on that).
struct Op {
  bool retire = false;
  size_t amount = 0;
  uint64_t seed = 0;
};

std::string ScheduleToString(const std::vector<Op>& ops) {
  std::ostringstream os;
  os << "{";
  for (const Op& op : ops) {
    if (op.retire) {
      os << " retire(" << op.amount << ")";
    } else {
      os << " append(cols=" << op.amount << ", seed=" << op.seed << ")";
    }
  }
  os << " }";
  return os.str();
}

std::vector<Op> RandomSchedule(uint64_t seed, size_t length,
                               size_t tile_cols) {
  rng::Xoshiro256 gen(seed);
  std::vector<Op> ops;
  for (size_t i = 0; i < length; ++i) {
    Op op;
    // 1-in-3 retires; appends span sub-tile pieces (leaving pending
    // columns) through multi-tile-column pieces.
    op.retire = gen.Next() % 3 == 0;
    if (op.retire) {
      op.amount = gen.Next() % 3;  // clamped to the window at run time
    } else {
      op.amount = 1 + gen.Next() % (2 * tile_cols + tile_cols / 2);
      op.seed = gen.Next();
    }
    ops.push_back(op);
  }
  return ops;
}

constexpr size_t kRows = 10;
constexpr size_t kTileRows = 5;
constexpr size_t kTileCols = 4;

/// Runs `ops` against a GrowingTableSketcher and an eagerly re-stitched
/// shadow table, checking after every step that (a) the window table equals
/// the shadow's surviving region, (b) every completed tile sketch is
/// byte-identical to a fresh batch SketchAllTilesParallel over that region,
/// and (c) sketches_computed() is exactly one computation per distinct tile
/// ever completed. Returns the first violation's description, or nullopt.
std::optional<std::string> CheckSchedule(const std::vector<Op>& ops,
                                         size_t threads) {
  SketchParams params{.p = 1.0, .k = 12, .seed = 77};
  auto store = GrowingTableSketcher::Create(params, kRows, kTileRows,
                                            kTileCols);
  if (!store.ok()) return store.status().ToString();
  auto sketcher = Sketcher::Create(params);
  if (!sketcher.ok()) return sketcher.status().ToString();

  // Shadow state: every column ever appended, and how many columns have
  // been retired off the front.
  std::vector<table::Matrix> pieces;
  size_t retired_cols = 0;

  for (size_t step = 0; step < ops.size(); ++step) {
    const Op& op = ops[step];
    std::ostringstream at;
    at << "step " << step << " of " << ScheduleToString(ops) << " threads="
       << threads << ": ";
    if (op.retire) {
      const size_t amount = store->grid_cols() == 0
                                ? 0
                                : op.amount % (store->grid_cols() + 1);
      const util::Status retired = store->RetireColumns(amount);
      if (!retired.ok()) return at.str() + retired.ToString();
      retired_cols += amount * kTileCols;
    } else {
      const table::Matrix piece = RandomPiece(kRows, op.amount, op.seed);
      const util::Status appended = store->AppendColumns(piece, threads);
      if (!appended.ok()) return at.str() + appended.ToString();
      pieces.push_back(piece);
    }

    // Re-stitch the surviving region from scratch.
    size_t total_cols = 0;
    for (const auto& piece : pieces) total_cols += piece.cols();
    const size_t surviving = total_cols - retired_cols;
    table::Matrix stitched(kRows, surviving);
    size_t offset = 0;  // column of the full stream being copied
    size_t written = 0;
    for (const auto& piece : pieces) {
      for (size_t c = 0; c < piece.cols(); ++c, ++offset) {
        if (offset < retired_cols) continue;
        for (size_t r = 0; r < kRows; ++r) {
          stitched.At(r, written) = piece.At(r, c);
        }
        ++written;
      }
    }

    if (store->table().cols() != surviving) {
      std::ostringstream os;
      os << at.str() << "window holds " << store->table().cols()
         << " cols, expected " << surviving;
      return os.str();
    }
    const std::span<const double> got = store->table().Values();
    const std::span<const double> want =
        std::as_const(stitched).Values();
    if (!std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      return at.str() + "window table bytes diverge from the stitched table";
    }

    // Batch reference over the surviving region (TileGrid ignores trailing
    // pending columns exactly like the store does).
    const size_t expect_tiles =
        (kRows / kTileRows) * (surviving / kTileCols);
    if (store->num_tiles() != expect_tiles) {
      std::ostringstream os;
      os << at.str() << "store holds " << store->num_tiles()
         << " tiles, expected " << expect_tiles;
      return os.str();
    }
    if (expect_tiles > 0) {
      auto grid = table::TileGrid::Create(&stitched, kTileRows, kTileCols);
      if (!grid.ok()) return at.str() + grid.status().ToString();
      const std::vector<Sketch> reference =
          SketchAllTilesParallel(*sketcher, *grid);
      const std::vector<Sketch> incremental = store->SketchesInGridOrder();
      for (size_t t = 0; t < reference.size(); ++t) {
        if (reference[t].values != incremental[t].values) {
          std::ostringstream os;
          os << at.str() << "tile " << t
             << " sketch bytes diverge from the batch reference";
          return os.str();
        }
      }
    }

    const size_t expected_computed =
        store->grid_rows() *
        (store->grid_cols() + store->retired_tile_cols());
    if (store->sketches_computed() != expected_computed) {
      std::ostringstream os;
      os << at.str() << "sketches_computed=" << store->sketches_computed()
         << ", expected exactly one per distinct tile ever completed ("
         << expected_computed << ")";
      return os.str();
    }
  }
  return std::nullopt;
}

/// Greedy delta-debugging: drop one op at a time while the failure
/// persists, so the logged reproducer is (1-minimal) small.
std::vector<Op> ShrinkSchedule(std::vector<Op> ops, size_t threads) {
  bool shrunk = true;
  while (shrunk) {
    shrunk = false;
    for (size_t i = 0; i < ops.size(); ++i) {
      std::vector<Op> candidate = ops;
      candidate.erase(candidate.begin() + static_cast<ptrdiff_t>(i));
      if (CheckSchedule(candidate, threads).has_value()) {
        ops = std::move(candidate);
        shrunk = true;
        break;
      }
    }
  }
  return ops;
}

TEST(StreamingPropertyTest, RandomSchedulesMatchBatchSketching) {
  for (const size_t threads : {size_t{1}, size_t{2}, size_t{5}}) {
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      const std::vector<Op> ops = RandomSchedule(seed, 12, kTileCols);
      const std::optional<std::string> failure =
          CheckSchedule(ops, threads);
      if (failure.has_value()) {
        const std::vector<Op> minimal = ShrinkSchedule(ops, threads);
        FAIL() << *failure << "\nminimal failing schedule (seed " << seed
               << ", threads " << threads
               << "): " << ScheduleToString(minimal) << "\nfirst failure: "
               << CheckSchedule(minimal, threads).value_or("(gone)");
      }
    }
  }
}

TEST(StreamingPropertyTest, ThreadCountsAgreeByteForByte) {
  // The same schedule under different thread counts must yield identical
  // sketch bytes (ParallelFor writes fixed slots; no reduction order).
  const std::vector<Op> ops = RandomSchedule(99, 10, kTileCols);
  SketchParams params{.p = 0.5, .k = 16, .seed = 3};
  std::vector<std::vector<Sketch>> runs;
  for (const size_t threads : {size_t{1}, size_t{3}, size_t{7}}) {
    auto store =
        GrowingTableSketcher::Create(params, kRows, kTileRows, kTileCols);
    ASSERT_TRUE(store.ok());
    for (const Op& op : ops) {
      if (op.retire) {
        const size_t amount = store->grid_cols() == 0
                                  ? 0
                                  : op.amount % (store->grid_cols() + 1);
        ASSERT_TRUE(store->RetireColumns(amount).ok());
      } else {
        ASSERT_TRUE(
            store->AppendColumns(RandomPiece(kRows, op.amount, op.seed),
                                 threads)
                .ok());
      }
    }
    runs.push_back(store->SketchesInGridOrder());
  }
  ASSERT_EQ(runs[0].size(), runs[1].size());
  ASSERT_EQ(runs[0].size(), runs[2].size());
  for (size_t t = 0; t < runs[0].size(); ++t) {
    EXPECT_EQ(runs[0][t].values, runs[1][t].values) << "tile " << t;
    EXPECT_EQ(runs[0][t].values, runs[2][t].values) << "tile " << t;
  }
}

TEST(StreamingRetireTest, EmptyingTheWindowAndRegrowing) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 11};
  auto store = GrowingTableSketcher::Create(params, kRows, kTileRows,
                                            kTileCols);
  ASSERT_TRUE(store.ok());
  // Two complete tile columns plus one pending column.
  ASSERT_TRUE(
      store->AppendColumns(RandomPiece(kRows, 2 * kTileCols + 1, 5)).ok());
  ASSERT_EQ(store->grid_cols(), 2u);
  ASSERT_EQ(store->pending_cols(), 1u);

  ASSERT_TRUE(store->RetireColumns(2).ok());
  EXPECT_EQ(store->grid_cols(), 0u);
  EXPECT_EQ(store->num_tiles(), 0u);
  EXPECT_EQ(store->pending_cols(), 1u);  // pending columns survive a retire
  EXPECT_EQ(store->retired_tile_cols(), 2u);

  // Growing again completes a tile column that spans the pending column.
  ASSERT_TRUE(store->AppendColumns(RandomPiece(kRows, kTileCols, 6)).ok());
  EXPECT_EQ(store->grid_cols(), 1u);
  EXPECT_EQ(store->pending_cols(), 1u);
  // 2 tile rows x (1 live + 2 retired) tile columns, each sketched once.
  EXPECT_EQ(store->sketches_computed(), 6u);
}

TEST(StreamingRetireTest, RetireValidation) {
  SketchParams params{.p = 1.0, .k = 8, .seed = 11};
  auto store = GrowingTableSketcher::Create(params, kRows, kTileRows,
                                            kTileCols);
  ASSERT_TRUE(store.ok());
  ASSERT_TRUE(store->AppendColumns(RandomPiece(kRows, kTileCols, 5)).ok());
  const util::Status too_many = store->RetireColumns(2);
  EXPECT_FALSE(too_many.ok());
  EXPECT_EQ(too_many.code(), util::StatusCode::kInvalidArgument);
  EXPECT_TRUE(store->RetireColumns(0).ok());  // no-op
  EXPECT_EQ(store->grid_cols(), 1u);
}

// ---------------------------------------------------------------------------
// Incremental code pools (QuantizedCodePool::BuildSuccessor).
// ---------------------------------------------------------------------------

std::vector<Sketch> HandSketches(size_t count, size_t k) {
  std::vector<Sketch> sketches(count);
  for (size_t s = 0; s < count; ++s) {
    sketches[s].values.resize(k);
    for (size_t j = 0; j < k; ++j) {
      sketches[s].values[j] =
          static_cast<double>(s) * 1.5 + static_cast<double>(j) * 0.25 - 2.0;
    }
  }
  return sketches;
}

std::function<std::span<const double>(size_t)> GetterOver(
    const std::vector<Sketch>& sketches) {
  return [&sketches](size_t i) -> std::span<const double> {
    return sketches[i].values;
  };
}

constexpr SketchParams kPoolParams{.p = 1.0, .k = 6, .seed = 9};

TEST(BuildSuccessorTest, SurvivingRowsAreByteCopies) {
  const std::vector<Sketch> base_sketches = HandSketches(6, kPoolParams.k);
  auto base = QuantizedCodePool::BuildFromGetter(
      GetterOver(base_sketches), 6, QuantKind::kInt8, kPoolParams, 5, 4);
  ASSERT_TRUE(base.ok());

  // A retire of one tile column in a 2x3 grid: survivors are base tiles
  // {1, 2, 4, 5} laid out as a 2x2 grid.
  const std::vector<Sketch> window = {base_sketches[1], base_sketches[2],
                                      base_sketches[4], base_sketches[5]};
  const std::vector<size_t> base_of = {1, 2, 4, 5};
  bool rebuilt = true;
  auto successor = QuantizedCodePool::BuildSuccessor(
      *base, GetterOver(window), base_of, &rebuilt);
  ASSERT_TRUE(successor.ok());
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(successor->scale(), base->scale());
  EXPECT_EQ(successor->offset(), base->offset());
  ASSERT_EQ(successor->count(), 4u);
  const size_t row = kPoolParams.k * QuantCodeBytes(QuantKind::kInt8);
  for (size_t i = 0; i < base_of.size(); ++i) {
    EXPECT_EQ(std::vector<unsigned char>(
                  successor->raw_codes().begin() +
                      static_cast<ptrdiff_t>(i * row),
                  successor->raw_codes().begin() +
                      static_cast<ptrdiff_t>((i + 1) * row)),
              std::vector<unsigned char>(
                  base->raw_codes().begin() +
                      static_cast<ptrdiff_t>(base_of[i] * row),
                  base->raw_codes().begin() +
                      static_cast<ptrdiff_t>((base_of[i] + 1) * row)))
        << "successor row " << i;
  }
}

TEST(BuildSuccessorTest, InRangeAppendMatchesFreshBuild) {
  // New tiles whose values stay inside the base range: the map survives,
  // and because min/max are unchanged a from-scratch build derives the
  // same map — so all bytes must match the fresh build exactly.
  std::vector<Sketch> window = HandSketches(4, kPoolParams.k);
  auto base = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), 4, QuantKind::kInt16, kPoolParams, 5, 4);
  ASSERT_TRUE(base.ok());

  Sketch inside;  // strictly between the existing min and max
  inside.values.assign(kPoolParams.k, 0.5);
  window.push_back(inside);
  std::vector<size_t> base_of = {0, 1, 2, 3,
                                 QuantizedCodePool::kNewTile};
  bool rebuilt = true;
  auto successor = QuantizedCodePool::BuildSuccessor(
      *base, GetterOver(window), base_of, &rebuilt);
  ASSERT_TRUE(successor.ok());
  EXPECT_FALSE(rebuilt);

  auto fresh = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), window.size(), QuantKind::kInt16, kPoolParams, 5,
      4);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(successor->scale(), fresh->scale());
  EXPECT_EQ(successor->offset(), fresh->offset());
  EXPECT_EQ(successor->raw_codes(), fresh->raw_codes());
  EXPECT_EQ(successor->usable_flags(), fresh->usable_flags());
}

TEST(BuildSuccessorTest, RangeGrowthRebuildsTheMap) {
  std::vector<Sketch> window = HandSketches(4, kPoolParams.k);
  auto base = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), 4, QuantKind::kInt8, kPoolParams, 5, 4);
  ASSERT_TRUE(base.ok());

  Sketch outlier;  // far beyond the base max: the pool range grew
  outlier.values.assign(kPoolParams.k, 1000.0);
  window.push_back(outlier);
  std::vector<size_t> base_of = {0, 1, 2, 3,
                                 QuantizedCodePool::kNewTile};
  bool rebuilt = false;
  auto successor = QuantizedCodePool::BuildSuccessor(
      *base, GetterOver(window), base_of, &rebuilt);
  ASSERT_TRUE(successor.ok());
  EXPECT_TRUE(rebuilt);

  auto fresh = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), window.size(), QuantKind::kInt8, kPoolParams, 5,
      4);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(successor->scale(), fresh->scale());
  EXPECT_EQ(successor->offset(), fresh->offset());
  EXPECT_EQ(successor->raw_codes(), fresh->raw_codes());
  EXPECT_EQ(successor->usable_flags(), fresh->usable_flags());
}

TEST(BuildSuccessorTest, NonFiniteNewTileStaysUnusableWithoutRebuild) {
  std::vector<Sketch> window = HandSketches(4, kPoolParams.k);
  auto base = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), 4, QuantKind::kInt8, kPoolParams, 5, 4);
  ASSERT_TRUE(base.ok());

  Sketch bad;  // non-finite sketches are map-independent: never a rebuild
  bad.values.assign(kPoolParams.k, 1e6);
  bad.values[2] = std::nan("");
  window.push_back(bad);
  std::vector<size_t> base_of = {0, 1, 2, 3,
                                 QuantizedCodePool::kNewTile};
  bool rebuilt = true;
  auto successor = QuantizedCodePool::BuildSuccessor(
      *base, GetterOver(window), base_of, &rebuilt);
  ASSERT_TRUE(successor.ok());
  EXPECT_FALSE(rebuilt);
  EXPECT_EQ(successor->scale(), base->scale());
  EXPECT_FALSE(successor->tile_usable(4));
  const size_t row = kPoolParams.k * QuantCodeBytes(QuantKind::kInt8);
  for (size_t b = 4 * row; b < 5 * row; ++b) {
    ASSERT_EQ(successor->raw_codes()[b], 0u) << "byte " << b;
  }
}

TEST(BuildSuccessorTest, RejectsOutOfRangeBaseIndex) {
  const std::vector<Sketch> window = HandSketches(2, kPoolParams.k);
  auto base = QuantizedCodePool::BuildFromGetter(
      GetterOver(window), 2, QuantKind::kInt8, kPoolParams, 5, 4);
  ASSERT_TRUE(base.ok());
  const std::vector<size_t> base_of = {0, 7};  // 7 is not a base tile
  bool rebuilt = false;
  auto successor = QuantizedCodePool::BuildSuccessor(
      *base, GetterOver(window), base_of, &rebuilt);
  EXPECT_FALSE(successor.ok());
  EXPECT_EQ(successor.status().code(), util::StatusCode::kInvalidArgument);
}

/// Every pair of usable tiles has a code estimate within pool.Slack() of the
/// exact estimate over the tiles' sketches.
void ExpectCodesWithinSlack(
    const QuantizedCodePool& pool,
    const std::vector<std::shared_ptr<const Sketch>>& sketches,
    const DistanceEstimator& estimator, const std::string& when) {
  ASSERT_EQ(pool.count(), sketches.size()) << when;
  const double slack = pool.Slack(estimator);
  kernels::CodeScratch code_scratch;
  std::vector<double> est_scratch;
  for (size_t a = 0; a < sketches.size(); ++a) {
    for (size_t b = a + 1; b < sketches.size(); ++b) {
      if (!pool.tile_usable(a) || !pool.tile_usable(b)) continue;
      const double exact = estimator.EstimateWithScratch(
          sketches[a]->values, sketches[b]->values, &est_scratch);
      const double code = pool.CodeEstimate(a, b, /*l2=*/false,
                                            &code_scratch) /
                          estimator.scale();
      EXPECT_LE(std::abs(code - exact), slack)
          << when << ": pair (" << a << "," << b << ")";
    }
  }
}

TEST(BuildSuccessorTest, CodeEstimatesStayWithinSlackAcrossSlides) {
  // Real window sketches through append + retire slides, as the ingest
  // daemon runs them. The first tile column's values are 1000x the rest, so
  // retiring it shrinks the value range: the successor keeps the base map,
  // wider than a cold build's, and its Slack() must still bound every code
  // estimate.
  const SketchParams params{.p = 1.0, .k = 16, .seed = 5};
  auto estimator = DistanceEstimator::Create(params);
  ASSERT_TRUE(estimator.ok());
  for (const QuantKind kind : {QuantKind::kInt8, QuantKind::kInt16}) {
    SCOPED_TRACE(QuantKindName(kind));
    auto store =
        GrowingTableSketcher::Create(params, kRows, kTileRows, kTileCols);
    ASSERT_TRUE(store.ok());
    table::Matrix loud = RandomPiece(kRows, kTileCols, 1);
    for (double& value : loud.Values()) value *= 1000.0;
    ASSERT_TRUE(store->AppendColumns(loud).ok());
    ASSERT_TRUE(
        store->AppendColumns(RandomPiece(kRows, 2 * kTileCols, 2)).ok());
    std::vector<std::shared_ptr<const Sketch>> shares =
        store->SketchSharesInGridOrder();
    const auto sketch_of = [&shares](size_t i) {
      return std::span<const double>(shares[i]->values);
    };
    auto pool = QuantizedCodePool::BuildFromGetter(
        sketch_of, shares.size(), kind, params, kTileRows, kTileCols);
    ASSERT_TRUE(pool.ok());

    const size_t rows = store->grid_rows();
    const size_t cols = store->grid_cols();
    for (size_t slide = 0; slide < 4; ++slide) {
      const std::string at = "slide " + std::to_string(slide);
      // Append one tile column; surviving tiles keep their grid position.
      ASSERT_TRUE(
          store->AppendColumns(RandomPiece(kRows, kTileCols, 10 + slide))
              .ok());
      shares = store->SketchSharesInGridOrder();
      std::vector<size_t> grown(rows * (cols + 1));
      for (size_t gr = 0; gr < rows; ++gr) {
        for (size_t gc = 0; gc <= cols; ++gc) {
          grown[gr * (cols + 1) + gc] = gc < cols
                                            ? gr * cols + gc
                                            : QuantizedCodePool::kNewTile;
        }
      }
      bool rebuilt = true;
      pool = QuantizedCodePool::BuildSuccessor(*pool, sketch_of, grown,
                                               &rebuilt);
      ASSERT_TRUE(pool.ok()) << pool.status().ToString();
      EXPECT_FALSE(rebuilt) << at;
      ExpectCodesWithinSlack(*pool, shares, *estimator, at + " append");

      // Retire the oldest tile column.
      ASSERT_TRUE(store->RetireColumns(1).ok());
      shares = store->SketchSharesInGridOrder();
      std::vector<size_t> slid(rows * cols);
      for (size_t gr = 0; gr < rows; ++gr) {
        for (size_t gc = 0; gc < cols; ++gc) {
          slid[gr * cols + gc] = gr * (cols + 1) + gc + 1;
        }
      }
      pool = QuantizedCodePool::BuildSuccessor(*pool, sketch_of, slid,
                                               &rebuilt);
      ASSERT_TRUE(pool.ok()) << pool.status().ToString();
      EXPECT_FALSE(rebuilt) << at;
      ExpectCodesWithinSlack(*pool, shares, *estimator, at + " retire");

      auto cold = QuantizedCodePool::BuildFromGetter(
          sketch_of, shares.size(), kind, params, kTileRows, kTileCols);
      ASSERT_TRUE(cold.ok());
      EXPECT_GT(pool->scale(), cold->scale()) << at;
    }
  }
}

// ---------------------------------------------------------------------------
// The golden append piece (the format `append` and `tabsketch ingest` read).
// ---------------------------------------------------------------------------

std::string GoldenPath(const std::string& name) {
  return std::string(TABSKETCH_TEST_GOLDEN_DIR) + "/" + name;
}

std::vector<char> ReadAllBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<char>(std::istreambuf_iterator<char>(in),
                           std::istreambuf_iterator<char>());
}

void WriteAllBytes(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(AppendPieceGoldenTest, ParsesThePinnedFixture) {
  auto piece = table::ReadBinary(GoldenPath("append_piece_v1.tbl"));
  ASSERT_TRUE(piece.ok()) << piece.status().ToString();
  ASSERT_EQ(piece->rows(), 4u);
  ASSERT_EQ(piece->cols(), 3u);
  for (size_t r = 0; r < piece->rows(); ++r) {
    for (size_t c = 0; c < piece->cols(); ++c) {
      EXPECT_EQ(piece->At(r, c), static_cast<double>(r) * 2.0 +
                                     static_cast<double>(c) * 0.5 - 4.0);
    }
  }
}

TEST(AppendPieceGoldenTest, TruncatedPieceIsAnError) {
  std::vector<char> bytes = ReadAllBytes(GoldenPath("append_piece_v1.tbl"));
  bytes.resize(bytes.size() - 5);  // cut into the last double
  const std::string path = TempPath("streaming_truncated_piece.tbl");
  WriteAllBytes(path, bytes);
  auto piece = table::ReadBinary(path);
  EXPECT_FALSE(piece.ok());
  EXPECT_EQ(piece.status().code(), util::StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST(AppendPieceGoldenTest, CorruptedMagicIsAnError) {
  std::vector<char> bytes = ReadAllBytes(GoldenPath("append_piece_v1.tbl"));
  bytes[0] = 'X';
  const std::string path = TempPath("streaming_corrupt_piece.tbl");
  WriteAllBytes(path, bytes);
  auto piece = table::ReadBinary(path);
  EXPECT_FALSE(piece.ok());
  EXPECT_EQ(piece.status().code(), util::StatusCode::kIOError);
  std::filesystem::remove(path);
}

TEST(AppendPieceGoldenTest, RowMismatchIsRejectedByTheStore) {
  auto piece = table::ReadBinary(GoldenPath("append_piece_v1.tbl"));
  ASSERT_TRUE(piece.ok());
  // The fixture has 4 rows; a 10-row store must refuse it.
  auto store = GrowingTableSketcher::Create({.p = 1.0, .k = 4, .seed = 1},
                                            kRows, kTileRows, kTileCols);
  ASSERT_TRUE(store.ok());
  const util::Status appended = store->AppendColumns(*piece);
  EXPECT_FALSE(appended.ok());
  EXPECT_EQ(appended.code(), util::StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace tabsketch::core
