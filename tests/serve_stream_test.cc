#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/growing.h"
#include "core/quantized_sketch.h"
#include "line_client.h"
#include "rng/xoshiro256.h"
#include "serve/ingest.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "table/matrix.h"
#include "table/table_io.h"
#include "util/status.h"

namespace tabsketch::serve {
namespace {

using testing::LineClient;

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 10.0;
  return out;
}

table::Matrix ConcatCols(const table::Matrix& left,
                         const table::Matrix& right) {
  table::Matrix out(left.rows(), left.cols() + right.cols());
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < left.cols(); ++c) out.At(r, c) = left.At(r, c);
    for (size_t c = 0; c < right.cols(); ++c) {
      out.At(r, left.cols() + c) = right.At(r, c);
    }
  }
  return out;
}

table::Matrix DropLeadingCols(const table::Matrix& in, size_t cols) {
  table::Matrix out(in.rows(), in.cols() - cols);
  for (size_t r = 0; r < out.rows(); ++r) {
    for (size_t c = 0; c < out.cols(); ++c) out.At(r, c) = in.At(r, cols + c);
  }
  return out;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

constexpr size_t kRows = 24;
constexpr size_t kTileRows = 6;
constexpr size_t kTileCols = 6;

/// Seed table (2 tile columns) plus three pieces: a full tile column, a
/// sub-tile piece that leaves pending columns, and the completion piece.
class StreamServeTest : public ::testing::Test {
 protected:
  StreamServeTest()
      : seed_(RandomTable(kRows, 2 * kTileCols, 41)),
        piece_full_(RandomTable(kRows, kTileCols, 42)),
        piece_partial_(RandomTable(kRows, kTileCols / 2, 43)),
        piece_complete_(RandomTable(kRows, kTileCols / 2, 44)) {}

  void SetUp() override {
    const std::string prefix =
        std::string("serve_stream_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_";
    seed_path_ = Write(prefix + "seed.tbl", seed_);
    piece_full_path_ = Write(prefix + "full.tbl", piece_full_);
    piece_partial_path_ = Write(prefix + "partial.tbl", piece_partial_);
    piece_complete_path_ = Write(prefix + "complete.tbl", piece_complete_);
  }

  void TearDown() override {
    for (const std::string& path : written_) std::remove(path.c_str());
  }

  std::string Write(const std::string& name, const table::Matrix& matrix) {
    const std::string path = TempPath(name);
    EXPECT_TRUE(table::WriteBinary(matrix, path).ok());
    written_.push_back(path);
    return path;
  }

  SnapshotSpec Spec(core::QuantKind quant, size_t threads,
                    bool refine = false) const {
    SnapshotSpec spec;
    spec.table_path = seed_path_;
    spec.tile_rows = kTileRows;
    spec.tile_cols = kTileCols;
    spec.params = {.p = 1.0, .k = 32, .seed = 7};
    spec.engine.threads = threads;
    spec.engine.refine = refine;
    spec.engine.quant = quant;
    return spec;
  }

  /// Every pairwise distance plus a knn per tile, as protocol lines.
  std::vector<std::string> QueryLines(size_t tiles) const {
    std::vector<std::string> lines;
    for (size_t i = 0; i < tiles; ++i) {
      lines.push_back("distance " + std::to_string(i) + " " +
                      std::to_string((i + 1) % tiles));
      lines.push_back("knn " + std::to_string(i) + " 3");
    }
    return lines;
  }

  std::vector<std::string> Answers(const Snapshot& snapshot,
                                   const std::vector<std::string>& lines) {
    std::vector<QueryRequest> batch;
    for (size_t i = 0; i < lines.size(); ++i) {
      auto parsed = ParseBatchLine(lines[i], i + 1);
      EXPECT_TRUE(parsed.ok()) << lines[i];
      if (parsed.ok() && parsed->has_value()) batch.push_back(**parsed);
    }
    auto results = snapshot.engine().Run(batch);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    return results.ok() ? *results : std::vector<std::string>{};
  }

  /// Cold-path reference: Snapshot::Create over `window` written to a file,
  /// with the same params/engine options.
  std::shared_ptr<const Snapshot> ColdSnapshot(const table::Matrix& window,
                                               const SnapshotSpec& like,
                                               const std::string& name) {
    SnapshotSpec spec = like;
    spec.table_path = Write(name, window);
    auto snapshot = Snapshot::Create(spec);
    EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    return snapshot.ok() ? *snapshot : nullptr;
  }

  table::Matrix seed_;
  table::Matrix piece_full_;
  table::Matrix piece_partial_;
  table::Matrix piece_complete_;
  std::string seed_path_;
  std::string piece_full_path_;
  std::string piece_partial_path_;
  std::string piece_complete_path_;
  std::vector<std::string> written_;
};

TEST_F(StreamServeTest, CreateValidatesTheSpec) {
  SnapshotSpec no_table = Spec(core::QuantKind::kOff, 1);
  no_table.table_path.clear();
  EXPECT_FALSE(StreamingIngest::Create(no_table).ok());

  SnapshotSpec with_sketches = Spec(core::QuantKind::kOff, 1);
  with_sketches.sketches_path = "whatever.skt";
  auto sketches = StreamingIngest::Create(with_sketches);
  ASSERT_FALSE(sketches.ok());
  EXPECT_EQ(sketches.status().code(), util::StatusCode::kInvalidArgument);

  SnapshotSpec with_cache = Spec(core::QuantKind::kOff, 1);
  with_cache.cache_bytes = 1 << 20;
  auto cache = StreamingIngest::Create(with_cache);
  ASSERT_FALSE(cache.ok());
  EXPECT_EQ(cache.status().code(), util::StatusCode::kInvalidArgument);
}

TEST_F(StreamServeTest, InitialGenerationMatchesColdSnapshot) {
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8}) {
    const SnapshotSpec spec = Spec(quant, 2);
    auto ingest = StreamingIngest::Create(spec);
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    auto cold = Snapshot::Create(spec);
    ASSERT_TRUE(cold.ok());
    const std::vector<std::string> lines =
        QueryLines((*ingest)->initial()->num_tiles());
    EXPECT_EQ(Answers(*(*ingest)->initial(), lines), Answers(**cold, lines));
  }
}

TEST_F(StreamServeTest, AppendMatchesColdSnapshotByteForByte) {
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8,
        core::QuantKind::kInt16}) {
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(std::string("quant=") + core::QuantKindName(quant) +
                   " threads=" + std::to_string(threads));
      const SnapshotSpec spec = Spec(quant, threads);
      auto ingest = StreamingIngest::Create(spec);
      ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();

      SnapshotHolder holder((*ingest)->initial());
      auto appended = (*ingest)->Append(piece_full_path_, &holder);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      EXPECT_EQ(appended->appended_cols, kTileCols);
      EXPECT_EQ(appended->new_tiles, kRows / kTileRows);
      EXPECT_EQ(appended->reused_tiles, 2 * (kRows / kTileRows));
      EXPECT_EQ(holder.Current().get(), appended->snapshot.get());

      const std::shared_ptr<const Snapshot> cold = ColdSnapshot(
          ConcatCols(seed_, piece_full_), spec,
          std::string("stitched_") + core::QuantKindName(quant) + "_" +
              std::to_string(threads) + ".tbl");
      ASSERT_NE(cold, nullptr);
      ASSERT_EQ(appended->snapshot->num_tiles(), cold->num_tiles());
      const std::vector<std::string> lines = QueryLines(cold->num_tiles());
      EXPECT_EQ(Answers(*appended->snapshot, lines), Answers(*cold, lines));
    }
  }
}

TEST_F(StreamServeTest, SubTilePieceLeavesAnswersUntouched) {
  const SnapshotSpec spec = Spec(core::QuantKind::kInt8, 1);
  auto ingest = StreamingIngest::Create(spec);
  ASSERT_TRUE(ingest.ok());
  SnapshotHolder holder((*ingest)->initial());

  auto partial = (*ingest)->Append(piece_partial_path_, &holder);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_EQ(partial->new_tiles, 0u);
  EXPECT_EQ(partial->window.pending_cols, kTileCols / 2);
  // No new tiles: answers are the seed generation's, byte for byte.
  const std::vector<std::string> lines =
      QueryLines((*ingest)->initial()->num_tiles());
  EXPECT_EQ(Answers(*partial->snapshot, lines),
            Answers(*(*ingest)->initial(), lines));

  // The completion piece finishes the tile column the partial one started.
  auto complete = (*ingest)->Append(piece_complete_path_, &holder);
  ASSERT_TRUE(complete.ok());
  EXPECT_EQ(complete->new_tiles, kRows / kTileRows);
  EXPECT_EQ(complete->window.pending_cols, 0u);
  const std::shared_ptr<const Snapshot> cold = ColdSnapshot(
      ConcatCols(ConcatCols(seed_, piece_partial_), piece_complete_), spec,
      "stitched_subtile.tbl");
  ASSERT_NE(cold, nullptr);
  const std::vector<std::string> all = QueryLines(cold->num_tiles());
  EXPECT_EQ(Answers(*complete->snapshot, all), Answers(*cold, all));
}

TEST_F(StreamServeTest, RetireMatchesColdSuffixSnapshot) {
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8}) {
    SCOPED_TRACE(std::string("quant=") + core::QuantKindName(quant));
    const SnapshotSpec spec = Spec(quant, 2);
    auto ingest = StreamingIngest::Create(spec);
    ASSERT_TRUE(ingest.ok());
    SnapshotHolder holder((*ingest)->initial());
    ASSERT_TRUE((*ingest)->Append(piece_full_path_, &holder).ok());

    auto retired = (*ingest)->Retire(1, &holder);
    ASSERT_TRUE(retired.ok()) << retired.status().ToString();
    EXPECT_EQ(retired->retired_tile_cols, 1u);
    EXPECT_EQ(retired->window.start_tile_col, 1u);
    EXPECT_EQ(holder.Current().get(), retired->snapshot.get());

    // After a retire-driven range shrink the reused (wider) map means code
    // BYTES may differ from a cold rebuild — the answers must not.
    const std::shared_ptr<const Snapshot> cold = ColdSnapshot(
        DropLeadingCols(ConcatCols(seed_, piece_full_), kTileCols), spec,
        std::string("suffix_") + core::QuantKindName(quant) + ".tbl");
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(retired->snapshot->num_tiles(), cold->num_tiles());
    const std::vector<std::string> lines = QueryLines(cold->num_tiles());
    EXPECT_EQ(Answers(*retired->snapshot, lines), Answers(*cold, lines));
  }
}

TEST_F(StreamServeTest, HeldGenerationKeepsRefinedAnswersAcrossSlides) {
  // Refine reads the window table a generation shares with the store, so a
  // generation a reader still holds must answer the same bytes after later
  // appends and retires, and the newest must match a cold snapshot.
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt16}) {
    SCOPED_TRACE(std::string("quant=") + core::QuantKindName(quant));
    const SnapshotSpec spec = Spec(quant, 2, /*refine=*/true);
    auto ingest = StreamingIngest::Create(spec);
    ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
    SnapshotHolder holder((*ingest)->initial());

    auto appended = (*ingest)->Append(piece_full_path_, &holder);
    ASSERT_TRUE(appended.ok()) << appended.status().ToString();
    const std::shared_ptr<const Snapshot> held = appended->snapshot;
    const std::vector<std::string> held_lines =
        QueryLines(held->num_tiles());
    const std::vector<std::string> held_answers = Answers(*held, held_lines);

    ASSERT_TRUE((*ingest)->Retire(1, &holder).ok());
    auto newest = (*ingest)->Append(piece_full_path_, &holder);
    ASSERT_TRUE(newest.ok()) << newest.status().ToString();
    EXPECT_EQ(Answers(*held, held_lines), held_answers);

    const std::shared_ptr<const Snapshot> cold = ColdSnapshot(
        ConcatCols(DropLeadingCols(ConcatCols(seed_, piece_full_), kTileCols),
                   piece_full_),
        spec, std::string("slid_refined_") + core::QuantKindName(quant) +
                  ".tbl");
    ASSERT_NE(cold, nullptr);
    ASSERT_EQ(newest->snapshot->num_tiles(), cold->num_tiles());
    const std::vector<std::string> lines = QueryLines(cold->num_tiles());
    EXPECT_EQ(Answers(*newest->snapshot, lines), Answers(*cold, lines));
  }
}

TEST_F(StreamServeTest, FirstGenerationCodesMatchOneThreadBuild) {
  // The first generation's code tier is built over its sketch source with
  // the engine's threads; its bytes and map must be a one-thread build's.
  for (const core::QuantKind quant :
       {core::QuantKind::kInt8, core::QuantKind::kInt16}) {
    for (const size_t threads : {size_t{1}, size_t{3}}) {
      SCOPED_TRACE(std::string("quant=") + core::QuantKindName(quant) +
                   " threads=" + std::to_string(threads));
      const SnapshotSpec spec = Spec(quant, threads);
      auto ingest = StreamingIngest::Create(spec);
      ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
      const core::QuantizedCodePool* codes = (*ingest)->initial()->codes();
      ASSERT_NE(codes, nullptr);

      auto store = core::GrowingTableSketcher::Create(spec.params, kRows,
                                                      kTileRows, kTileCols);
      ASSERT_TRUE(store.ok());
      ASSERT_TRUE(store->AppendColumns(seed_).ok());
      const std::vector<std::shared_ptr<const core::Sketch>> shares =
          store->SketchSharesInGridOrder();
      auto reference = core::QuantizedCodePool::BuildFromGetter(
          [&shares](size_t i) -> std::span<const double> {
            return shares[i]->values;
          },
          shares.size(), quant, spec.params, kTileRows, kTileCols);
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      EXPECT_EQ(codes->raw_codes(), reference->raw_codes());
      EXPECT_EQ(codes->usable_flags(), reference->usable_flags());
      EXPECT_EQ(std::bit_cast<uint64_t>(codes->offset()),
                std::bit_cast<uint64_t>(reference->offset()));
      EXPECT_EQ(std::bit_cast<uint64_t>(codes->scale()),
                std::bit_cast<uint64_t>(reference->scale()));
    }
  }
}

TEST_F(StreamServeTest, RefinedServingRefusesToRetireTheWholeWindow) {
  const SnapshotSpec spec = Spec(core::QuantKind::kOff, 1, /*refine=*/true);
  auto ingest = StreamingIngest::Create(spec);
  ASSERT_TRUE(ingest.ok()) << ingest.status().ToString();
  SnapshotHolder holder((*ingest)->initial());
  const size_t swaps_before = holder.swaps();
  auto retired = (*ingest)->Retire(2, &holder);
  ASSERT_FALSE(retired.ok());
  EXPECT_EQ(retired.status().code(), util::StatusCode::kFailedPrecondition);
  // Nothing was published: the previous generation keeps serving.
  EXPECT_EQ(holder.swaps(), swaps_before);
  EXPECT_TRUE((*ingest)->Retire(1, &holder).ok());
}

TEST_F(StreamServeTest, WireVerbsRoundTrip) {
  const SnapshotSpec spec = Spec(core::QuantKind::kInt8, 2);
  auto ingest = StreamingIngest::Create(spec);
  ASSERT_TRUE(ingest.ok());
  SnapshotHolder holder((*ingest)->initial());
  ServerOptions options;
  options.ingest = ingest->get();
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  LineClient client((*server)->port());

  EXPECT_EQ(client.Ask("window"),
            "ok window tile-cols=2 start=0 pending=0 tiles=8");

  // remap depends on whether the new tiles' sketch values grew the pool
  // range, so the ack is matched up to it.
  const std::string append_ack = client.Ask("append " + piece_full_path_);
  const std::string append_prefix = "ok append " + piece_full_path_ +
                                    " cols=6 tiles=12 new=4 reused=8 "
                                    "pending=0 remap=";
  EXPECT_EQ(append_ack.rfind(append_prefix, 0), 0u) << append_ack;
  EXPECT_NE(append_ack.find(" swaps=1"), std::string::npos) << append_ack;

  // Post-append wire answers match the published generation's engine.
  const std::vector<std::string> lines = QueryLines(12);
  const std::vector<std::string> expected =
      Answers(*holder.Current(), lines);
  for (size_t i = 0; i < lines.size(); ++i) {
    EXPECT_EQ(client.Ask(lines[i]), expected[i]) << lines[i];
  }

  EXPECT_EQ(client.Ask("retire 1"), "ok retire 1 tiles=8 start=1 swaps=2");
  EXPECT_EQ(client.Ask("window"),
            "ok window tile-cols=2 start=1 pending=0 tiles=8");

  // Malformed and failing requests answer an error line and keep serving.
  EXPECT_EQ(client.Ask("append"),
            "error invalid-argument expected 'append <columns-file>'");
  EXPECT_EQ(client.Ask("retire one"),
            "error invalid-argument retire count must be a non-negative "
            "integer");
  const std::string missing = client.Ask("append /nonexistent/piece.tbl");
  EXPECT_EQ(missing.rfind("error ", 0), 0u) << missing;
  const std::string too_many = client.Ask("retire 99");
  EXPECT_EQ(too_many.rfind("error invalid-argument", 0), 0u) << too_many;
  EXPECT_EQ(client.Ask("ping"), "ok ping");
  // reload is off under ingest: generations must flow through the driver.
  EXPECT_EQ(client.Ask("reload " + seed_path_),
            "error failed-precondition reload disabled");
}

TEST_F(StreamServeTest, VerbsFailClosedWithoutIngest) {
  auto snapshot = Snapshot::Create(Spec(core::QuantKind::kOff, 1));
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(std::move(*snapshot));
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok());
  LineClient client((*server)->port());
  const std::string expected =
      "error failed-precondition streaming ingest disabled (start serve "
      "with --ingest)";
  EXPECT_EQ(client.Ask("append some.tbl"), expected);
  EXPECT_EQ(client.Ask("retire 1"), expected);
  EXPECT_EQ(client.Ask("window"), expected);
  EXPECT_EQ(client.Ask("ping"), "ok ping");
}

TEST_F(StreamServeTest, ConcurrentAppendsNeverMixGenerations) {
  // Hammer `append`/`retire` concurrently with query traffic: every answer
  // must match one published generation exactly — never a blend of two.
  // int8 exercises the incremental code-pool path under the same race.
  for (const core::QuantKind quant :
       {core::QuantKind::kOff, core::QuantKind::kInt8}) {
    SCOPED_TRACE(std::string("quant=") + core::QuantKindName(quant));
    const SnapshotSpec spec = Spec(quant, 2);
    auto ingest = StreamingIngest::Create(spec);
    ASSERT_TRUE(ingest.ok());
    SnapshotHolder holder((*ingest)->initial());
    ServerOptions options;
    options.ingest = ingest->get();
    options.max_inflight = 8;
    options.max_queue = 256;
    auto server = Server::Start(&holder, options);
    ASSERT_TRUE(server.ok());

    // Tiles 0..7 exist in every generation (the window never shrinks below
    // two tile columns here), so these lines are valid throughout.
    const std::vector<std::string> lines = QueryLines(8);

    std::vector<std::shared_ptr<const Snapshot>> generations;
    generations.push_back((*ingest)->initial());

    constexpr size_t kQueryThreads = 4;
    constexpr size_t kRoundsPerThread = 30;
    std::vector<std::vector<std::pair<size_t, std::string>>> seen(
        kQueryThreads);
    std::vector<std::thread> clients;
    clients.reserve(kQueryThreads);
    for (size_t t = 0; t < kQueryThreads; ++t) {
      clients.emplace_back([&, t] {
        LineClient client((*server)->port());
        for (size_t round = 0; round < kRoundsPerThread; ++round) {
          const size_t pick = (t * kRoundsPerThread + round) % lines.size();
          seen[t].push_back({pick, client.Ask(lines[pick])});
        }
      });
    }

    // Interleaved appends and retires while the clients run: grow by one
    // tile column, then slide the window forward by one.
    for (int round = 0; round < 4; ++round) {
      auto appended = (*ingest)->Append(piece_full_path_, &holder);
      ASSERT_TRUE(appended.ok()) << appended.status().ToString();
      generations.push_back(appended->snapshot);
      auto retired = (*ingest)->Retire(1, &holder);
      ASSERT_TRUE(retired.ok()) << retired.status().ToString();
      generations.push_back(retired->snapshot);
    }
    for (std::thread& thread : clients) thread.join();

    // Per-generation reference answers for every line.
    std::vector<std::set<std::string>> valid(lines.size());
    for (const auto& generation : generations) {
      const std::vector<std::string> answers = Answers(*generation, lines);
      for (size_t i = 0; i < lines.size(); ++i) valid[i].insert(answers[i]);
    }
    for (size_t t = 0; t < kQueryThreads; ++t) {
      for (const auto& [pick, answer] : seen[t]) {
        EXPECT_TRUE(valid[pick].count(answer) == 1)
            << "thread " << t << " got an answer matching no generation for "
            << lines[pick] << ": " << answer;
      }
    }
  }
}

}  // namespace
}  // namespace tabsketch::serve
