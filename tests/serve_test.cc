#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/ondemand.h"
#include "core/sketch_io.h"
#include "core/sketcher.h"
#include "json_checker.h"
#include "line_client.h"
#include "rng/xoshiro256.h"
#include "serve/query_engine.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "table/matrix.h"
#include "table/table_io.h"
#include "table/tiling.h"
#include "util/metrics.h"
#include "util/metrics_snapshot.h"

namespace tabsketch::serve {
namespace {

using std::chrono::steady_clock;
using testing::LineClient;

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble();
  return out;
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

/// Writes the shared table + two sketch-set generations (different seeds) to
/// temp files once for the whole suite.
class ServeTest : public ::testing::Test {
 protected:
  static constexpr size_t kTileRows = 6;
  static constexpr size_t kTileCols = 6;

  ServeTest()
      : data_(RandomTable(24, 24, 9)),
        grid_(*table::TileGrid::Create(&data_, kTileRows, kTileCols)) {}

  void SetUp() override {
    // Unique per test: ctest runs suite members as concurrent processes, and
    // shared fixture paths would race a reader against another test's
    // truncate-and-rewrite.
    const std::string prefix =
        std::string("serve_test_") +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() + "_";
    table_path_ = TempPath(prefix + "table.tbl");
    day1_path_ = TempPath(prefix + "day1.sks");
    day2_path_ = TempPath(prefix + "day2.sks");
    ASSERT_TRUE(table::WriteBinary(data_, table_path_).ok());
    WriteGeneration(day1_path_, /*seed=*/5);
    WriteGeneration(day2_path_, /*seed=*/6);
  }

  void TearDown() override {
    std::remove(table_path_.c_str());
    std::remove(day1_path_.c_str());
    std::remove(day2_path_.c_str());
  }

  void WriteGeneration(const std::string& path, uint64_t seed) {
    core::Sketcher sketcher =
        core::Sketcher::Create({.p = 1.0, .k = 64, .seed = seed}).value();
    core::SketchSet set;
    set.params = {.p = 1.0, .k = 64, .seed = seed};
    set.object_rows = kTileRows;
    set.object_cols = kTileCols;
    set.sketches = SketchAllTilesParallel(sketcher, grid_);
    ASSERT_TRUE(core::WriteSketchSet(set, path).ok());
  }

  SnapshotSpec TableSpec() const {
    SnapshotSpec spec;
    spec.table_path = table_path_;
    spec.tile_rows = kTileRows;
    spec.tile_cols = kTileCols;
    spec.params = {.p = 1.0, .k = 64, .seed = 5};
    return spec;
  }

  /// The mixed batch the byte-identity tests replay, as protocol lines.
  std::vector<std::string> MixedBatchLines() const {
    std::vector<std::string> lines;
    const size_t n = grid_.num_tiles();
    for (size_t i = 0; i < n; ++i) {
      lines.push_back("distance " + std::to_string(i) + " " +
                      std::to_string((i + 3) % n));
      lines.push_back("knn " + std::to_string(i) + " 3");
    }
    return lines;
  }

  /// Reference answers for `lines` straight from a snapshot's engine.
  std::vector<std::string> ReferenceAnswers(
      const Snapshot& snapshot, const std::vector<std::string>& lines) const {
    std::vector<QueryRequest> batch;
    for (size_t i = 0; i < lines.size(); ++i) {
      auto parsed = ParseBatchLine(lines[i], i + 1);
      EXPECT_TRUE(parsed.ok());
      if (parsed.ok() && parsed->has_value()) batch.push_back(**parsed);
    }
    auto results = snapshot.engine().Run(batch);
    EXPECT_TRUE(results.ok()) << results.status().ToString();
    return results.ok() ? *results : std::vector<std::string>{};
  }

  table::Matrix data_;
  table::TileGrid grid_;
  std::string table_path_;
  std::string day1_path_;
  std::string day2_path_;
};

TEST(AdmissionControllerTest, AdmitsUpToLimitThenQueuesAndSheds) {
  AdmissionController admission(/*max_inflight=*/2, /*max_queue=*/0);
  EXPECT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  EXPECT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  // Queue size 0: the third concurrent request is shed without waiting.
  EXPECT_EQ(admission.Enter(steady_clock::now() + std::chrono::hours(1)),
            AdmissionController::Admission::kShed);
  admission.Leave();
  EXPECT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  admission.Leave();
  admission.Leave();
}

TEST(AdmissionControllerTest, QueuedRequestGetsSlotWhenFreed) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  std::promise<AdmissionController::Admission> verdict;
  std::thread waiter(
      [&] { verdict.set_value(admission.Enter(std::nullopt)); });
  while (admission.queue_depth() == 0) std::this_thread::yield();
  admission.Leave();
  EXPECT_EQ(verdict.get_future().get(),
            AdmissionController::Admission::kAdmitted);
  waiter.join();
  admission.Leave();
}

TEST(AdmissionControllerTest, DeadlineExpiresWhileQueued) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  EXPECT_EQ(
      admission.Enter(steady_clock::now() + std::chrono::milliseconds(20)),
      AdmissionController::Admission::kDeadlineExpired);
  EXPECT_EQ(admission.queue_depth(), 0u);
  admission.Leave();
}

TEST(AdmissionControllerTest, CloseRejectsWaitersAndNewcomers) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queue=*/4);
  ASSERT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kAdmitted);
  std::promise<AdmissionController::Admission> verdict;
  std::thread waiter(
      [&] { verdict.set_value(admission.Enter(std::nullopt)); });
  while (admission.queue_depth() == 0) std::this_thread::yield();
  admission.Close();
  EXPECT_EQ(verdict.get_future().get(),
            AdmissionController::Admission::kClosed);
  waiter.join();
  EXPECT_EQ(admission.Enter(std::nullopt),
            AdmissionController::Admission::kClosed);
  admission.Leave();
}

TEST_F(ServeTest, SnapshotCreateMatchesQueryComposition) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  EXPECT_EQ((*snapshot)->num_tiles(), grid_.num_tiles());
  EXPECT_NE((*snapshot)->description().find(table_path_), std::string::npos);
}

TEST_F(ServeTest, SnapshotRequiresTableOrSketches) {
  EXPECT_FALSE(Snapshot::Create(SnapshotSpec{}).ok());
}

TEST_F(ServeTest, WithSketchSetReusesGridAndSwapsAnswers) {
  auto day1 = Snapshot::Create(TableSpec());
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  auto day2 = Snapshot::WithSketchSet(**day1, day2_path_);
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  EXPECT_EQ((*day2)->num_tiles(), grid_.num_tiles());

  const std::vector<QueryRequest> batch = {
      QueryRequest{QueryRequest::Kind::kDistance, 2, 7, 0}};
  auto a1 = (*day1)->engine().Run(batch);
  auto a2 = (*day2)->engine().Run(batch);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  // Different sketch seeds → different estimates: the swap is observable.
  EXPECT_NE((*a1)[0], (*a2)[0]);
}

TEST_F(ServeTest, WithSketchSetRejectsMismatchUnderRefine) {
  SnapshotSpec spec = TableSpec();
  spec.engine.refine = true;
  auto base = Snapshot::Create(spec);
  ASSERT_TRUE(base.ok()) << base.status().ToString();

  // A sketch set over a different tile shape cannot back refined serving.
  const std::string odd_path = TempPath("serve_test_odd.sks");
  core::Sketcher sketcher =
      core::Sketcher::Create({.p = 1.0, .k = 64, .seed = 5}).value();
  core::SketchSet set;
  set.params = {.p = 1.0, .k = 64, .seed = 5};
  set.object_rows = kTileRows + 1;
  set.object_cols = kTileCols;
  set.sketches.resize(grid_.num_tiles(),
                      core::Sketch{std::vector<double>(64, 0.0)});
  ASSERT_TRUE(core::WriteSketchSet(set, odd_path).ok());
  EXPECT_FALSE(Snapshot::WithSketchSet(**base, odd_path).ok());
}

TEST_F(ServeTest, QuantSnapshotPinsCodesAndMatchesOff) {
  // A quantized snapshot builds and pins the code tier, subtracts its bytes
  // from the cache budget, and answers byte-identically to the unquantized
  // composition — including under a constrained total budget.
  auto reference = Snapshot::Create(TableSpec());
  ASSERT_TRUE(reference.ok());
  const std::vector<std::string> lines = MixedBatchLines();
  const std::vector<std::string> expected =
      ReferenceAnswers(**reference, lines);

  for (size_t cache_bytes : {size_t{0}, size_t{20000}}) {
    SnapshotSpec spec = TableSpec();
    spec.engine.quant = core::QuantKind::kInt8;
    spec.cache_bytes = cache_bytes;
    auto snapshot = Snapshot::Create(spec);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_NE((*snapshot)->codes(), nullptr);
    EXPECT_EQ((*snapshot)->codes()->kind(), core::QuantKind::kInt8);
    EXPECT_EQ((*snapshot)->codes()->count(), grid_.num_tiles());
    EXPECT_EQ(ReferenceAnswers(**snapshot, lines), expected)
        << "cache_bytes=" << cache_bytes;
  }

  // Off snapshots carry no code tier.
  EXPECT_EQ((*reference)->codes(), nullptr);
}

TEST_F(ServeTest, ReloadRebuildsCodeTierAtomically) {
  // WithSketchSet derives the successor's codes from the *new* sketches; the
  // reloaded generation must answer exactly like a from-scratch quantized
  // snapshot over the same set, and differently from day 1.
  SnapshotSpec spec = TableSpec();
  spec.engine.quant = core::QuantKind::kInt16;
  auto day1 = Snapshot::Create(spec);
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  auto day2 = Snapshot::WithSketchSet(**day1, day2_path_);
  ASSERT_TRUE(day2.ok()) << day2.status().ToString();
  ASSERT_NE((*day2)->codes(), nullptr);
  EXPECT_EQ((*day2)->codes()->kind(), core::QuantKind::kInt16);

  SnapshotSpec fresh_spec;
  fresh_spec.sketches_path = day2_path_;
  fresh_spec.engine.quant = core::QuantKind::kInt16;
  auto fresh = Snapshot::Create(fresh_spec);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  const std::vector<std::string> lines = MixedBatchLines();
  const std::vector<std::string> reloaded = ReferenceAnswers(**day2, lines);
  EXPECT_EQ(reloaded, ReferenceAnswers(**fresh, lines));
  EXPECT_NE(reloaded, ReferenceAnswers(**day1, lines));
}

TEST_F(ServeTest, SnapshotHolderSwapCounts) {
  auto day1 = Snapshot::Create(TableSpec());
  ASSERT_TRUE(day1.ok());
  SnapshotHolder holder(*day1);
  EXPECT_EQ(holder.swaps(), 0u);
  EXPECT_EQ(holder.Current().get(), day1->get());
  auto day2 = Snapshot::WithSketchSet(**day1, day2_path_);
  ASSERT_TRUE(day2.ok());
  holder.Swap(*day2);
  EXPECT_EQ(holder.swaps(), 1u);
  EXPECT_EQ(holder.Current().get(), day2->get());
}

TEST_F(ServeTest, PingQuitAndBlankLineProtocol) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient client((*server)->port());
  // Blank and comment lines produce no response; the next response after
  // them must be the ping's.
  client.SendLine("");
  client.SendLine("# comment only");
  client.SendLine("ping");
  EXPECT_EQ(client.RecvLine(), "ok ping");
  client.SendLine("frobnicate 1 2");
  const std::string error = client.RecvLine();
  EXPECT_EQ(error.find("error invalid-argument"), 0u) << error;
  client.SendLine("quit");
  EXPECT_EQ(client.RecvLine(), "ok bye");
  EXPECT_TRUE(client.AtEof());
  (*server)->Shutdown();
}

TEST_F(ServeTest, OverlongLineGetsOneErrorThenEofOthersUnaffected) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient bystander((*server)->port());
  LineClient flooder((*server)->port());
  flooder.SetRecvTimeout(10);
  // 1 MiB with no newline. The daemon stops reading at the cap, so the tail
  // of the send may fail once it hangs up; only the reply matters.
  std::thread send_thread(
      [&flooder] { flooder.SendRaw(std::string(size_t{1} << 20, 'x')); });
  EXPECT_EQ(flooder.RecvLine(), "error invalid-argument line exceeds " +
                                    std::to_string(kMaxLineBytes) + " bytes");
  EXPECT_TRUE(flooder.AtEof());
  send_thread.join();

  bystander.SendLine("ping");
  EXPECT_EQ(bystander.RecvLine(), "ok ping");
  LineClient newcomer((*server)->port());
  newcomer.SendLine("ping");
  EXPECT_EQ(newcomer.RecvLine(), "ok ping");
  (*server)->Shutdown();
}

size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  size_t lines = 0;
  for (std::string line; std::getline(maps, line);) ++lines;
  return lines;
}

TEST_F(ServeTest, FinishedConnectionThreadsAreReaped) {
  // Every handler thread owns a stack mapping until it is joined. A daemon
  // that joined only at shutdown would add about two mappings per connection
  // it ever served; reaping keeps the count flat over sequential clients.
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const size_t before = MappingCount();
  for (int i = 0; i < 500; ++i) {
    LineClient client((*server)->port());
    client.SendLine("ping");
    ASSERT_EQ(client.RecvLine(), "ok ping");
    client.SendLine("quit");
    ASSERT_EQ(client.RecvLine(), "ok bye");
  }
  const size_t after = MappingCount();
  EXPECT_LT(after, before + 100) << before << " -> " << after;
  EXPECT_EQ((*server)->connections_accepted(), 500u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, MixedBatchByteIdenticalToQueryEngineAcrossConfigs) {
  // The daemon must answer byte-identically to the engine for each cache
  // policy / thread count combination (the `query` CLI equivalence).
  struct Config {
    size_t cache_bytes;
    size_t threads;
  };
  for (const Config& config :
       {Config{0, 1}, Config{1, 1}, Config{0, 4}, Config{1 << 20, 4}}) {
    SnapshotSpec spec = TableSpec();
    spec.cache_bytes = config.cache_bytes;
    spec.engine.threads = config.threads;
    auto snapshot = Snapshot::Create(spec);
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    const std::vector<std::string> lines = MixedBatchLines();
    const std::vector<std::string> expected =
        ReferenceAnswers(**snapshot, lines);

    SnapshotHolder holder(*snapshot);
    auto server = Server::Start(&holder, ServerOptions{});
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    LineClient client((*server)->port());
    for (const std::string& line : lines) client.SendLine(line);
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(client.RecvLine(), expected[i])
          << "line " << i << " cache_bytes=" << config.cache_bytes
          << " threads=" << config.threads;
    }
    (*server)->Shutdown();
  }
}

TEST_F(ServeTest, ConcurrentClientsGetByteIdenticalAnswers) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  const std::vector<std::string> lines = MixedBatchLines();
  const std::vector<std::string> expected =
      ReferenceAnswers(**snapshot, lines);

  SnapshotHolder holder(*snapshot);
  ServerOptions options;
  options.max_inflight = 4;
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  std::vector<std::vector<std::string>> answers(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      LineClient client((*server)->port());
      for (const std::string& line : lines) client.SendLine(line);
      for (size_t i = 0; i < lines.size(); ++i) {
        answers[c].push_back(client.RecvLine());
      }
    });
  }
  for (std::thread& thread : clients) thread.join();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(answers[c], expected) << "client " << c;
  }
  EXPECT_EQ((*server)->connections_accepted(), kClients);
  (*server)->Shutdown();
}

TEST_F(ServeTest, DeadlineExpiryReturnsTypedError) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  // One execution slot; the first request parks in the hook, so the second
  // request must sit in the admission queue past its deadline.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 4;
  options.deadline_ms = 50;
  options.pre_request_hook = [&](const QueryRequest&) {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient blocker((*server)->port());
  blocker.SendLine("distance 0 1");
  while (entered.load() == 0) std::this_thread::yield();

  LineClient victim((*server)->port());
  victim.SendLine("distance 2 3");
  const std::string error = victim.RecvLine();
  EXPECT_EQ(error.find("error deadline-exceeded"), 0u) << error;

  release.set_value();
  EXPECT_EQ(blocker.RecvLine().find("distance 0 1 = "), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, OverloadedQueueShedsWithTypedError) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;  // no waiting: excess is shed immediately
  options.pre_request_hook = [&](const QueryRequest&) {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient blocker((*server)->port());
  blocker.SendLine("distance 0 1");
  while (entered.load() == 0) std::this_thread::yield();

  LineClient shed((*server)->port());
  shed.SendLine("distance 2 3");
  const std::string error = shed.RecvLine();
  EXPECT_EQ(error.find("error overloaded"), 0u) << error;

  release.set_value();
  EXPECT_EQ(blocker.RecvLine().find("distance 0 1 = "), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, ReloadSwapsSnapshotForNewRequests) {
  SnapshotSpec spec = TableSpec();
  spec.sketches_path = day1_path_;
  auto day1 = Snapshot::Create(spec);
  ASSERT_TRUE(day1.ok()) << day1.status().ToString();
  auto day2 = Snapshot::WithSketchSet(**day1, day2_path_);
  ASSERT_TRUE(day2.ok());
  const std::vector<std::string> line = {"distance 2 7"};
  const std::string day1_answer = ReferenceAnswers(**day1, line)[0];
  const std::string day2_answer = ReferenceAnswers(**day2, line)[0];
  ASSERT_NE(day1_answer, day2_answer);

  SnapshotHolder holder(*day1);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  LineClient client((*server)->port());
  client.SendLine("distance 2 7");
  EXPECT_EQ(client.RecvLine(), day1_answer);
  client.SendLine("reload " + day2_path_);
  const std::string ack = client.RecvLine();
  EXPECT_EQ(ack.find("ok reload "), 0u) << ack;
  EXPECT_NE(ack.find("tiles=16"), std::string::npos) << ack;
  client.SendLine("distance 2 7");
  EXPECT_EQ(client.RecvLine(), day2_answer);
  EXPECT_EQ(holder.swaps(), 1u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, ReloadFailureKeepsServingOldSnapshot) {
  SnapshotSpec spec = TableSpec();
  spec.sketches_path = day1_path_;
  auto day1 = Snapshot::Create(spec);
  ASSERT_TRUE(day1.ok());
  const std::vector<std::string> line = {"distance 2 7"};
  const std::string day1_answer = ReferenceAnswers(**day1, line)[0];

  SnapshotHolder holder(*day1);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  LineClient client((*server)->port());
  client.SendLine("reload " + TempPath("serve_test_missing.sks"));
  const std::string error = client.RecvLine();
  EXPECT_EQ(error.find("error io-error"), 0u) << error;
  client.SendLine("distance 2 7");
  EXPECT_EQ(client.RecvLine(), day1_answer);
  EXPECT_EQ(holder.swaps(), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, SnapshotSwapMidRequestKeepsOldSnapshotAnswer) {
  // RCU consistency: a request that captured its snapshot before a reload
  // must answer from that old generation even though the swap completed
  // while it was in flight.
  SnapshotSpec spec = TableSpec();
  spec.sketches_path = day1_path_;
  auto day1 = Snapshot::Create(spec);
  ASSERT_TRUE(day1.ok());
  auto day2_preview = Snapshot::WithSketchSet(**day1, day2_path_);
  ASSERT_TRUE(day2_preview.ok());
  const std::vector<std::string> line = {"distance 2 7"};
  const std::string day1_answer = ReferenceAnswers(**day1, line)[0];
  const std::string day2_answer = ReferenceAnswers(**day2_preview, line)[0];
  ASSERT_NE(day1_answer, day2_answer);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 2;  // the parked request must not block the reload
  options.pre_request_hook = [&](const QueryRequest&) {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  SnapshotHolder holder(*day1);
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient inflight((*server)->port());
  inflight.SendLine("distance 2 7");  // captures day1, parks in the hook
  while (entered.load() == 0) std::this_thread::yield();

  LineClient admin((*server)->port());
  admin.SendLine("reload " + day2_path_);
  EXPECT_EQ(admin.RecvLine().find("ok reload "), 0u);
  EXPECT_EQ(holder.swaps(), 1u);

  // The parked request finishes on the old generation...
  release.set_value();
  EXPECT_EQ(inflight.RecvLine(), day1_answer);
  // ...and its next request sees the new one.
  inflight.SendLine("distance 2 7");
  EXPECT_EQ(inflight.RecvLine(), day2_answer);
  (*server)->Shutdown();
}

TEST_F(ServeTest, GracefulShutdownDrainsInflightRequest) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServerOptions options;
  options.pre_request_hook = [&](const QueryRequest&) {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient client((*server)->port());
  client.SendLine("distance 0 1");
  while (entered.load() == 0) std::this_thread::yield();

  // Shutdown must block on the parked request (drain), not abandon it.
  std::atomic<bool> shutdown_done{false};
  std::thread closer([&] {
    (*server)->Shutdown();
    shutdown_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(shutdown_done.load());

  release.set_value();
  // The in-flight answer is still delivered, then the connection closes.
  EXPECT_EQ(client.RecvLine().find("distance 0 1 = "), 0u);
  EXPECT_TRUE(client.AtEof());
  closer.join();
  EXPECT_TRUE(shutdown_done.load());
}

// ---------------------------------------------------------------------------
// Introspection plane: stats / health verbs, slow-query log, gauges.

/// Enables the global metrics registry for one test and restores/wipes it on
/// exit, so serve tests can assert on live counters without leaking state
/// (mirrors GlobalMetricsGuard in metrics_test.cc).
class ScopedGlobalMetrics {
 public:
  ScopedGlobalMetrics() : was_enabled_(util::MetricsRegistry::Enabled()) {
    util::PreregisterCoreMetrics(&util::MetricsRegistry::Global());
    util::MetricsRegistry::Global().ResetValues();
    util::MetricsRegistry::SetEnabled(true);
  }
  ~ScopedGlobalMetrics() {
    util::MetricsRegistry::SetEnabled(was_enabled_);
    util::MetricsRegistry::Global().ResetValues();
  }
  ScopedGlobalMetrics(const ScopedGlobalMetrics&) = delete;
  ScopedGlobalMetrics& operator=(const ScopedGlobalMetrics&) = delete;

 private:
  const bool was_enabled_;
};

/// Pulls the number after `"key":` out of a flat one-line JSON object;
/// -1 when the key is missing.
double JsonNumber(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Reads a multi-line `stats prom` response until its `# EOF` marker.
std::string RecvPromText(LineClient* client) {
  std::string text;
  for (;;) {
    const std::string line = client->RecvLine();
    if (line.empty() && text.empty()) return text;  // EOF before any data
    text += line + "\n";
    if (line == "# EOF") return text;
  }
}

TEST_F(ServeTest, HealthAndStatsAnswerOneLineJson) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  LineClient client((*server)->port());

  client.SendLine("health");
  const std::string health = client.RecvLine();
  EXPECT_EQ(health.find("{\"schema\":\"tabsketch-health-v1\","
                        "\"status\":\"ok\""),
            0u)
      << health;
  EXPECT_TRUE(testing::JsonChecker::Valid(health)) << health;
  EXPECT_EQ(JsonNumber(health, "tiles"), 16.0) << health;

  // `stats` defaults to the json mode; the v1 document's keys must appear in
  // their documented order (the golden shape clients and `top` rely on).
  client.SendLine("stats");
  const std::string stats = client.RecvLine();
  EXPECT_EQ(stats.find("{\"schema\":\"tabsketch-stats-v1\""), 0u) << stats;
  EXPECT_TRUE(testing::JsonChecker::Valid(stats)) << stats;
  const char* const kOrderedKeys[] = {
      "uptime_seconds",     "generation",         "tiles",
      "connections_accepted", "connections_active", "inflight_distance",
      "inflight_knn",       "queue_depth",        "requests_distance",
      "requests_knn",       "requests_total",     "errors_total",
      "shed_total",         "deadline_total",     "slow_total",
      "ticker_ticks",       "latency_p50_ms",     "latency_p99_ms",
      "cache_hits",         "cache_misses",       "cache_hit_ratio",
      "quant_scanned",      "quant_kept",         "quant_keep_ratio",
      "window_start_col",   "window_tile_cols",   "window_pending_cols",
      "window_seconds",     "window_rps",         "window_p50_ms",
      "window_p99_ms",      "window_shed",        "window_deadline",
      "window_cache_hit_ratio", "window_quant_keep_ratio"};
  size_t last_pos = 0;
  for (const char* key : kOrderedKeys) {
    std::string needle = "\"";
    needle += key;
    needle += "\":";
    const size_t pos = stats.find(needle);
    ASSERT_NE(pos, std::string::npos) << "missing key " << key << ": " << stats;
    EXPECT_GT(pos, last_pos) << "key out of order: " << key;
    last_pos = pos;
  }

  client.SendLine("stats json");
  EXPECT_TRUE(testing::JsonChecker::Valid(client.RecvLine()));
  client.SendLine("stats bogus");
  EXPECT_EQ(client.RecvLine().find("error invalid-argument"), 0u);
  client.SendLine("stats json extra");
  EXPECT_EQ(client.RecvLine().find("error invalid-argument"), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, SlowQueryLogRecordsWithAttributionAndJsonlMirror) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  const std::string jsonl_path = TempPath("serve_test_slow.jsonl");
  std::remove(jsonl_path.c_str());
  ServerOptions options;
  options.slow_ms = 5.0;
  options.slow_log_path = jsonl_path;
  // Every query deterministically exceeds the threshold.
  options.pre_request_hook = [](const QueryRequest&) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  };
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient client((*server)->port());
  client.SendLine("distance 0 1");
  EXPECT_EQ(client.RecvLine().find("distance 0 1 = "), 0u);
  client.SendLine("knn 2 3");
  EXPECT_EQ(client.RecvLine().find("knn 2 "), 0u);

  client.SendLine("stats slow");
  const std::string slow = client.RecvLine();
  EXPECT_EQ(slow.find("{\"schema\":\"tabsketch-slow-v1\""), 0u) << slow;
  EXPECT_TRUE(testing::JsonChecker::Valid(slow)) << slow;
  EXPECT_EQ(JsonNumber(slow, "total"), 2.0) << slow;
  EXPECT_NE(slow.find("\"verb\":\"distance\""), std::string::npos) << slow;
  EXPECT_NE(slow.find("\"verb\":\"knn\""), std::string::npos) << slow;

  const std::vector<SlowQueryEntry> entries = (*server)->slow_log().Entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].id, 1u);
  EXPECT_EQ(entries[1].id, 2u);
  EXPECT_EQ(entries[0].verb, "distance");
  EXPECT_GE(entries[0].handle_seconds, 0.005);
  EXPECT_EQ(entries[0].bytes, std::string("distance 0 1").size());
  EXPECT_EQ(entries[0].generation, 0u);
  // Cache attribution rode along: a distance touches two tile sketches.
  EXPECT_EQ(entries[0].stats.cache_hits + entries[0].stats.cache_misses, 2u);
  (*server)->Shutdown();

  // The JSONL mirror holds one valid object per line, flushed per record.
  std::ifstream mirror(jsonl_path);
  ASSERT_TRUE(mirror.good());
  std::string line;
  size_t lines = 0;
  while (std::getline(mirror, line)) {
    EXPECT_TRUE(testing::JsonChecker::Valid(line)) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
  std::remove(jsonl_path.c_str());
}

TEST_F(ServeTest, FastRequestsStayOutOfSlowLog) {
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  ServerOptions options;
  options.slow_ms = 10000.0;  // nothing in this test is that slow
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  LineClient client((*server)->port());
  client.SendLine("distance 0 1");
  EXPECT_EQ(client.RecvLine().find("distance 0 1 = "), 0u);
  client.SendLine("stats slow");
  const std::string slow = client.RecvLine();
  EXPECT_EQ(JsonNumber(slow, "total"), 0.0) << slow;
  EXPECT_NE(slow.find("\"entries\":[]"), std::string::npos) << slow;
  EXPECT_EQ((*server)->slow_log().total(), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, StatsVerbsAnswerWhileQueryPathIsSaturated) {
  // The introspection plane bypasses admission control: with the single
  // execution slot wedged by a parked request, stats / health / stats slow
  // must still answer.
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> entered{0};
  ServerOptions options;
  options.max_inflight = 1;
  options.max_queue = 0;
  options.pre_request_hook = [&](const QueryRequest&) {
    if (entered.fetch_add(1) == 0) released.wait();
  };
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient blocker((*server)->port());
  blocker.SendLine("distance 0 1");
  while (entered.load() == 0) std::this_thread::yield();

  LineClient observer((*server)->port());
  observer.SendLine("stats json");
  EXPECT_TRUE(testing::JsonChecker::Valid(observer.RecvLine()));
  observer.SendLine("health");
  EXPECT_EQ(observer.RecvLine().find("{\"schema\":\"tabsketch-health-v1\""),
            0u);
  observer.SendLine("stats slow");
  EXPECT_TRUE(testing::JsonChecker::Valid(observer.RecvLine()));
  observer.SendLine("stats prom");
  EXPECT_NE(RecvPromText(&observer).find("# EOF\n"), std::string::npos);

  release.set_value();
  EXPECT_EQ(blocker.RecvLine().find("distance 0 1 = "), 0u);
  (*server)->Shutdown();
}

TEST_F(ServeTest, StatsJsonCountsTrafficAndPromExposesRegistry) {
  const ScopedGlobalMetrics metrics;
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);
  auto server = Server::Start(&holder, ServerOptions{});
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient client((*server)->port());
  for (int i = 0; i < 3; ++i) {
    client.SendLine("distance 0 1");
    EXPECT_EQ(client.RecvLine().find("distance 0 1 = "), 0u);
  }
  for (int i = 0; i < 2; ++i) {
    client.SendLine("knn 2 3");
    EXPECT_EQ(client.RecvLine().find("knn 2 "), 0u);
  }

  client.SendLine("stats json");
  const std::string stats = client.RecvLine();
  EXPECT_EQ(JsonNumber(stats, "requests_distance"), 3.0) << stats;
  EXPECT_EQ(JsonNumber(stats, "requests_knn"), 2.0) << stats;
  EXPECT_EQ(JsonNumber(stats, "requests_total"), 5.0) << stats;
  EXPECT_EQ(JsonNumber(stats, "connections_accepted"), 1.0) << stats;
  EXPECT_EQ(JsonNumber(stats, "connections_active"), 1.0) << stats;
  EXPECT_GT(JsonNumber(stats, "latency_p50_ms"), 0.0) << stats;

  client.SendLine("stats prom");
  const std::string prom = RecvPromText(&client);
  EXPECT_NE(prom.find("# TYPE tabsketch_serve_requests_distance counter\n"
                      "tabsketch_serve_requests_distance 3\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(
      prom.find("# TYPE tabsketch_serve_request_latency_seconds histogram\n"),
      std::string::npos)
      << prom;
  EXPECT_NE(prom.find("tabsketch_serve_request_latency_seconds_count 5\n"),
            std::string::npos)
      << prom;
  EXPECT_NE(prom.find("_bucket{le=\"+Inf\"} 5\n"), std::string::npos) << prom;
  EXPECT_NE(prom.find("# EOF\n"), std::string::npos) << prom;
  (*server)->Shutdown();
}

TEST_F(ServeTest, StatsJsonWindowRatesComeFromTickerBaseline) {
  const ScopedGlobalMetrics metrics;
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  SnapshotHolder holder(*snapshot);

  util::MetricsTicker::Options ticker_options;
  ticker_options.interval_seconds = 0.02;
  util::MetricsTicker ticker(ticker_options);
  ServerOptions options;
  options.ticker = &ticker;
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // Keep traffic flowing while polling: once a ticker capture at least half
  // an interval old exists, the diff window over the continuing stream must
  // show a non-zero rate. (A single up-front burst could race the ticker —
  // a tick between burst and scrape would swallow it into the baseline.)
  LineClient client((*server)->port());
  std::string last_stats;
  bool saw_window_rate = false;
  for (int attempt = 0; attempt < 400 && !saw_window_rate; ++attempt) {
    client.SendLine("distance 0 1");
    EXPECT_EQ(client.RecvLine().find("distance 0 1 = "), 0u);
    client.SendLine("stats json");
    last_stats = client.RecvLine();
    ASSERT_TRUE(testing::JsonChecker::Valid(last_stats)) << last_stats;
    saw_window_rate = JsonNumber(last_stats, "window_seconds") > 0.0 &&
                      JsonNumber(last_stats, "window_rps") > 0.0;
  }
  EXPECT_TRUE(saw_window_rate) << last_stats;
  EXPECT_GT(JsonNumber(last_stats, "ticker_ticks"), 0.0) << last_stats;
  (*server)->Shutdown();
}

TEST_F(ServeTest, GaugesBalanceOnEveryExitPath) {
  const ScopedGlobalMetrics metrics;
  util::Gauge* const connections =
      util::MetricsRegistry::Global().GetGauge("serve.connections.active");
  util::Gauge* const inflight_distance =
      util::MetricsRegistry::Global().GetGauge("serve.inflight.distance");
  util::Gauge* const inflight_knn =
      util::MetricsRegistry::Global().GetGauge("serve.inflight.knn");

  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());

  {
    // Phase A: normal answers, a protocol error, and a shed request
    // (max_queue = 0) all release their gauges.
    SnapshotHolder holder(*snapshot);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<int> entered{0};
    ServerOptions options;
    options.max_inflight = 1;
    options.max_queue = 0;
    options.pre_request_hook = [&](const QueryRequest&) {
      if (entered.fetch_add(1) == 0) released.wait();
    };
    auto server = Server::Start(&holder, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    LineClient blocker((*server)->port());
    blocker.SendLine("distance 0 1");
    while (entered.load() == 0) std::this_thread::yield();
    // The parked request holds its per-verb in-flight gauge.
    EXPECT_EQ(inflight_distance->value(), 1.0);

    LineClient shed((*server)->port());
    shed.SendLine("knn 2 3");
    EXPECT_EQ(shed.RecvLine().find("error overloaded"), 0u);
    shed.SendLine("frobnicate");
    EXPECT_EQ(shed.RecvLine().find("error invalid-argument"), 0u);

    release.set_value();
    EXPECT_EQ(blocker.RecvLine().find("distance 0 1 = "), 0u);
    (*server)->Shutdown();
  }
  EXPECT_EQ(connections->value(), 0.0);
  EXPECT_EQ(inflight_distance->value(), 0.0);
  EXPECT_EQ(inflight_knn->value(), 0.0);

  {
    // Phase B: the deadline-expired exit path also balances.
    SnapshotHolder holder(*snapshot);
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    std::atomic<int> entered{0};
    ServerOptions options;
    options.max_inflight = 1;
    options.max_queue = 4;
    options.deadline_ms = 50;
    options.pre_request_hook = [&](const QueryRequest&) {
      if (entered.fetch_add(1) == 0) released.wait();
    };
    auto server = Server::Start(&holder, options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();

    LineClient blocker((*server)->port());
    blocker.SendLine("distance 0 1");
    while (entered.load() == 0) std::this_thread::yield();
    LineClient victim((*server)->port());
    victim.SendLine("knn 2 3");
    EXPECT_EQ(victim.RecvLine().find("error deadline-exceeded"), 0u);
    release.set_value();
    EXPECT_EQ(blocker.RecvLine().find("distance 0 1 = "), 0u);
    (*server)->Shutdown();
  }
  EXPECT_EQ(connections->value(), 0.0);
  EXPECT_EQ(inflight_distance->value(), 0.0);
  EXPECT_EQ(inflight_knn->value(), 0.0);
}

TEST_F(ServeTest, AnswersByteIdenticalWithIntrospectionPlaneOn) {
  // The whole plane at once — metrics on, a fast ticker,
  // an everything-is-slow slow log, interleaved stats scrapes — must not
  // change a single answer byte relative to the bare engine.
  const ScopedGlobalMetrics metrics;
  auto snapshot = Snapshot::Create(TableSpec());
  ASSERT_TRUE(snapshot.ok());
  const std::vector<std::string> lines = MixedBatchLines();
  const std::vector<std::string> expected = ReferenceAnswers(**snapshot, lines);

  util::MetricsTicker::Options ticker_options;
  ticker_options.interval_seconds = 0.01;
  util::MetricsTicker ticker(ticker_options);
  SnapshotHolder holder(*snapshot);
  ServerOptions options;
  options.ticker = &ticker;
  options.slow_ms = 1e-6;  // record every request
  auto server = Server::Start(&holder, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  LineClient observer((*server)->port());
  LineClient client((*server)->port());
  for (size_t i = 0; i < lines.size(); ++i) {
    client.SendLine(lines[i]);
    EXPECT_EQ(client.RecvLine(), expected[i]) << "line " << i;
    if (i % 8 == 0) {
      observer.SendLine("stats json");
      EXPECT_TRUE(testing::JsonChecker::Valid(observer.RecvLine()));
    }
  }
  EXPECT_EQ((*server)->slow_log().total(), lines.size());
  (*server)->Shutdown();
}

}  // namespace
}  // namespace tabsketch::serve
