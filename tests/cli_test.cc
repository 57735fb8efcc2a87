#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cli/commands.h"
#include "cli/flags.h"
#include "json_checker.h"
#include "line_client.h"
#include "table/matrix.h"
#include "table/table_io.h"
#include "util/metrics.h"

namespace tabsketch::cli {
namespace {

using testing::LineClient;

util::Result<Flags> ParseArgs(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tabsketch");
  return Flags::Parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagsTest, ParsesCommandAndFlags) {
  auto flags = ParseArgs({"cluster", "--table=x.tbl", "--k=20"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->command(), "cluster");
  EXPECT_TRUE(flags->Has("table"));
  EXPECT_EQ(flags->GetString("table", "").value(), "x.tbl");
  EXPECT_EQ(flags->GetInt("k", 0).value(), 20);
}

TEST(FlagsTest, SpaceSeparatedValues) {
  auto flags = ParseArgs({"info", "--table", "y.tbl"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetString("table", "").value(), "y.tbl");
}

TEST(FlagsTest, ValuelessFlagIsBooleanTrue) {
  auto flags = ParseArgs({"run", "--verbose"});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->GetBool("verbose", false).value());
}

TEST(FlagsTest, EmptyArgvHasNoCommand) {
  auto flags = ParseArgs({});
  ASSERT_TRUE(flags.ok());
  EXPECT_TRUE(flags->command().empty());
}

TEST(FlagsTest, RejectsPositionalAfterFlags) {
  EXPECT_FALSE(ParseArgs({"cmd", "--a=1", "stray"}).ok());
}

TEST(FlagsTest, RejectsDuplicateFlags) {
  EXPECT_FALSE(ParseArgs({"cmd", "--a=1", "--a=2"}).ok());
}

TEST(FlagsTest, TypedGetterErrors) {
  auto flags = ParseArgs({"cmd", "--n=abc", "--x=1.2.3", "--b=maybe",
                          "--size=-1", "--zero=0"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->GetInt("n", 0).ok());
  EXPECT_FALSE(flags->GetDouble("x", 0.0).ok());
  EXPECT_FALSE(flags->GetBool("b", false).ok());
  EXPECT_FALSE(flags->GetSize("n", 0).ok());
  EXPECT_FALSE(flags->GetSize("size", 0).ok());
  EXPECT_EQ(flags->GetSize("zero", 5).value(), 0u);
}

TEST(FlagsTest, FallbacksWhenAbsent) {
  auto flags = ParseArgs({"cmd"});
  ASSERT_TRUE(flags.ok());
  EXPECT_EQ(flags->GetInt("n", 7).value(), 7);
  EXPECT_EQ(flags->GetSize("n", 9).value(), 9u);
  EXPECT_EQ(flags->GetDouble("x", 1.5).value(), 1.5);
  EXPECT_EQ(flags->GetString("s", "d").value(), "d");
  EXPECT_FALSE(flags->GetRequired("s").ok());
}

TEST(FlagsTest, AllowOnlyCatchesTypos) {
  auto flags = ParseArgs({"cmd", "--tile-row=8"});
  ASSERT_TRUE(flags.ok());
  EXPECT_FALSE(flags->AllowOnly({"tile-rows"}).ok());
  EXPECT_TRUE(flags->AllowOnly({"tile-row"}).ok());
}

TEST(ParseSizeListTest, ParsesExactCount) {
  auto parsed = ParseSizeList("1,2,30,4", 4);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(*parsed, (std::vector<size_t>{1, 2, 30, 4}));
}

TEST(ParseSizeListTest, RejectsWrongCountAndGarbage) {
  EXPECT_FALSE(ParseSizeList("1,2,3", 4).ok());
  EXPECT_FALSE(ParseSizeList("1,x,3,4", 4).ok());
  EXPECT_FALSE(ParseSizeList("1,-2,3,4", 4).ok());
}

/// Runs the CLI with the given args; returns {exit code, stdout, stderr}.
struct CliRun {
  int code;
  std::string out;
  std::string err;
};

CliRun RunCli(std::vector<const char*> argv) {
  argv.insert(argv.begin(), "tabsketch");
  std::ostringstream out;
  std::ostringstream err;
  const int code = RunTabsketchCli(static_cast<int>(argv.size()),
                                   argv.data(), out, err);
  return {code, out.str(), err.str()};
}

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

std::string ReadWholeFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Extracts the numeric value of `"key": <number>` from a metrics dump.
/// Returns -1 when the key is absent (all real metric values are >= 0).
double MetricValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

/// Extracts `"inner": <number>` from inside the one-line JSON object dumped
/// for `"outer": {...}` — used to read a single histogram percentile.
/// Returns -1 when either key is absent.
double NestedMetricValue(const std::string& json, const std::string& outer,
                         const std::string& inner) {
  const size_t start = json.find("\"" + outer + "\": {");
  if (start == std::string::npos) return -1.0;
  const size_t end = json.find('}', start);
  const std::string needle = "\"" + inner + "\": ";
  const size_t pos = json.find(needle, start);
  if (pos == std::string::npos || pos > end) return -1.0;
  return std::strtod(json.c_str() + pos + needle.size(), nullptr);
}

TEST(CliTest, NoCommandPrintsUsageAndFails) {
  const CliRun run = RunCli({});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.out.find("usage:"), std::string::npos);
}

TEST(CliTest, HelpSucceeds) {
  const CliRun run = RunCli({"help"});
  EXPECT_EQ(run.code, 0);
  EXPECT_NE(run.out.find("usage:"), std::string::npos);
}

TEST(CliTest, UnknownCommandFails) {
  const CliRun run = RunCli({"frobnicate"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown command"), std::string::npos);
}

TEST(CliTest, GenerateRequiresDataset) {
  const CliRun run = RunCli({"generate", "--out=/tmp/x.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--dataset"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownDataset) {
  const CliRun run =
      RunCli({"generate", "--dataset=nope", "--out=/tmp/x.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown --dataset"), std::string::npos);
}

TEST(CliTest, GenerateRejectsUnknownFlag) {
  const CliRun run = RunCli({"generate", "--dataset=six-region",
                          "--out=/tmp/x.tbl", "--bogus=1"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("unknown flag"), std::string::npos);
}

TEST(CliTest, EndToEndPipeline) {
  const std::string table_path = TempPath("cli_test_table.tbl");
  const std::string sketch_path = TempPath("cli_test_sketches.bin");
  const std::string assign_path = TempPath("cli_test_assign.csv");
  const std::string ondemand_path = TempPath("cli_test_assign_ondemand.csv");
  const std::string table_flag = "--table=" + table_path;

  // generate
  {
    const std::string out_flag = "--out=" + table_path;
    const CliRun run =
        RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
             "--rows=64", "--cols=128", "--seed=7"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("64x128"), std::string::npos);
  }
  // info
  {
    const CliRun run = RunCli({"info", table_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("64x128"), std::string::npos);
    EXPECT_NE(run.out.find("mean"), std::string::npos);
  }
  // sketch
  {
    const std::string out_flag = "--out=" + sketch_path;
    const CliRun run =
        RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
             "--tile-rows=8", "--tile-cols=8", "--p=0.5", "--k=32"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("sketched 128 tiles"), std::string::npos);
    EXPECT_TRUE(std::filesystem::exists(sketch_path));
  }
  // distance
  {
    const CliRun run =
        RunCli({"distance", table_flag.c_str(), "--rect1=0,0,16,16",
             "--rect2=40,40,16,16", "--p=1", "--k=128"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("exact:"), std::string::npos);
    EXPECT_NE(run.out.find("estimated:"), std::string::npos);
  }
  // cluster (kmeans, precomputed) with CSV output
  {
    const std::string out_flag = "--out=" + assign_path;
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
             "--tile-cols=8", "--k=6", "--p=0.5", out_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("kmeans:"), std::string::npos);
    std::ifstream csv(assign_path);
    std::string header;
    std::getline(csv, header);
    EXPECT_EQ(header, "tile,grid_row,grid_col,cluster");
    size_t lines = 0;
    std::string line;
    while (std::getline(csv, line)) {
      if (!line.empty()) ++lines;
    }
    EXPECT_EQ(lines, 128u);
  }
  // cluster (kmeans, on-demand sketches): the same sketches computed lazily,
  // so the assignment CSV is byte-identical to the precomputed run's.
  {
    const std::string out_flag = "--out=" + ondemand_path;
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
             "--tile-cols=8", "--k=6", "--p=0.5", "--mode=ondemand",
             out_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("kmeans:"), std::string::npos);
    EXPECT_EQ(ReadWholeFile(ondemand_path), ReadWholeFile(assign_path));
  }

  std::remove(table_path.c_str());
  std::remove(sketch_path.c_str());
  std::remove(assign_path.c_str());
  std::remove(ondemand_path.c_str());
}

TEST(CliTest, PoolBuildAndQuery) {
  const std::string table_path = TempPath("cli_pool_table.tbl");
  const std::string pool_path = TempPath("cli_pool.pool");
  const std::string table_flag = "--table=" + table_path;
  const std::string pool_flag = "--pool=" + pool_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  {
    const std::string out_flag = "--out=" + pool_path;
    const CliRun run =
        RunCli({"pool-build", table_flag.c_str(), out_flag.c_str(),
                "--k=8", "--min-log2=3", "--max-log2=4"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("canonical sizes"), std::string::npos);
  }
  {
    const CliRun run = RunCli({"pool-query", pool_flag.c_str(),
                               "--rect1=0,0,12,12", "--rect2=40,40,12,12",
                               table_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.out.find("compound-sketch estimate"), std::string::npos);
    EXPECT_NE(run.out.find("exact reference"), std::string::npos);
  }
  {
    // Query below the minimum canonical size must fail cleanly.
    const CliRun run = RunCli({"pool-query", pool_flag.c_str(),
                               "--rect1=0,0,4,4", "--rect2=8,8,4,4"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("NotFound"), std::string::npos);
  }
  std::remove(table_path.c_str());
  std::remove(pool_path.c_str());
}

TEST(CliTest, PoolQueryRejectsRectanglesOutsideTheTable) {
  // The exact reference used to reach Matrix::Window's CHECK when --table
  // is smaller than the queried rectangles; distance already said this.
  const std::string big_path = TempPath("cli_poolrect_big.tbl");
  const std::string small_path = TempPath("cli_poolrect_small.tbl");
  const std::string pool_path = TempPath("cli_poolrect.pool");
  {
    const std::string out_flag = "--out=" + big_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=128"})
                  .code,
              0);
  }
  {
    const std::string table_flag = "--table=" + big_path;
    const std::string out_flag = "--out=" + pool_path;
    const CliRun run =
        RunCli({"pool-build", table_flag.c_str(), out_flag.c_str(), "--k=8",
                "--min-log2=3", "--max-log2=3"});
    ASSERT_EQ(run.code, 0) << run.err;
  }
  ASSERT_TRUE(table::WriteBinary(table::Matrix(16, 16), small_path).ok());
  const std::string pool_flag = "--pool=" + pool_path;
  const std::string table_flag = "--table=" + small_path;
  const CliRun run =
      RunCli({"pool-query", pool_flag.c_str(), "--rect1=0,0,12,12",
              "--rect2=40,100,12,12", table_flag.c_str()});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("OutOfRange: rectangle exceeds the table"),
            std::string::npos)
      << run.err;
  std::remove(big_path.c_str());
  std::remove(small_path.c_str());
  std::remove(pool_path.c_str());
}

TEST(CliTest, QueryOutputIsByteIdenticalAcrossThreadsAndCaches) {
  const std::string table_path = TempPath("cli_query_table.tbl");
  const std::string batch_path = TempPath("cli_query_batch.txt");
  const std::string sketch_path = TempPath("cli_query_sketches.bin");
  const std::string out_path = TempPath("cli_query_out.txt");
  const std::string json_path = TempPath("cli_query_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=11"})
                  .code,
              0);
  }
  {
    // Mixed batch with repeats (cache hits), comments, and blank lines.
    std::ofstream batch(batch_path);
    batch << "# mixed batch\n"
          << "distance 0 63\n"
          << "knn 5 4\n"
          << "\n"
          << "distance 0 63   # repeat\n"
          << "knn 5 4\n"
          << "distance 17 42\n"
          << "knn 63 2\n";
  }

  // Reference run: single thread, unbounded on-demand cache.
  const CliRun reference =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--threads=1"});
  ASSERT_EQ(reference.code, 0) << reference.err;
  EXPECT_NE(reference.out.find("distance 0 63 = "), std::string::npos);
  EXPECT_NE(reference.out.find("knn 5 4 = "), std::string::npos);
  EXPECT_NE(reference.err.find("answered 6 requests"), std::string::npos);

  // Every thread count and cache budget — including a 1-byte budget that
  // evicts on every lookup — must reproduce the reference bytes exactly.
  for (const char* extra : {"--threads=4", "--cache-bytes=1",
                            "--cache-bytes=1000000"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", extra});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, reference.out) << "with " << extra;
  }
  {
    // The eviction-forcing budget must actually report LRU churn on stderr.
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--cache-bytes=1"});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_NE(run.err.find("lru cache:"), std::string::npos);
  }
  {
    // A budget of a few sketches shared by 4 threads: the metrics dump
    // shows evictions, a nonzero residency peak within the budget (the
    // budget keeps sketches) and every request.
    const std::string json_flag = "--metrics-json=" + json_path;
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--cache-bytes=4096",
                "--threads=4", json_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out,
              reference.out + "metrics written to " + json_path + "\n");
    const std::string json = ReadWholeFile(json_path);
    EXPECT_GT(MetricValue(json, "lru.cache.evictions"), 0.0) << json;
    EXPECT_EQ(MetricValue(json, "lru.cache.capacity_bytes"), 4096.0);
    EXPECT_GT(MetricValue(json, "lru.cache.peak_bytes"), 0.0);
    EXPECT_LE(MetricValue(json, "lru.cache.peak_bytes"), 4096.0);
    EXPECT_EQ(MetricValue(json, "query.requests.distance"), 3.0);
    EXPECT_EQ(MetricValue(json, "query.requests.knn"), 3.0);
  }
  {
    // Serving from a sketch set written by `tabsketch sketch` with the same
    // parameters also matches byte-for-byte.
    const std::string out_flag = "--out=" + sketch_path;
    ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
                      "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=64",
                      "--seed=42"})
                  .code,
              0);
    const std::string sketches_flag = "--sketches=" + sketch_path;
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), sketches_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, reference.out);

    // --sketches carries its own params; explicit ones are rejected.
    const CliRun clash =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), sketches_flag.c_str(), "--k=64"});
    EXPECT_EQ(clash.code, 1);
    EXPECT_NE(clash.err.find("--sketches"), std::string::npos);
  }
  {
    // --out routes the answers to a file; stdout stays empty.
    const std::string out_flag = "--out=" + out_path;
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", out_flag.c_str()});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_TRUE(run.out.empty());
    std::ifstream in(out_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    EXPECT_EQ(buffer.str(), reference.out);
  }

  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
  std::remove(sketch_path.c_str());
  std::remove(out_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliTest, QueryCountsOnlyTheBatchsCacheLookups) {
  // The cache counters also saw the code tier's build; the stderr summary
  // counts only the batch's own lookups: one distance, two tiles.
  const std::string table_path = TempPath("cli_query_counts_table.tbl");
  const std::string batch_path = TempPath("cli_query_counts_batch.txt");
  const std::string sketch_path = TempPath("cli_query_counts_sketches.bin");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const std::string sketches_flag = "--sketches=" + sketch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=11"})
                  .code,
              0);
    const std::string sketch_out = "--out=" + sketch_path;
    ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), sketch_out.c_str(),
                      "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=64",
                      "--seed=42"})
                  .code,
              0);
    std::ofstream batch(batch_path);
    batch << "distance 0 1\n";
  }
  const auto summary = [&](std::vector<const char*> extra) {
    std::vector<const char*> argv = {"query", table_flag.c_str(),
                                     "--tile-rows=8", "--tile-cols=8",
                                     batch_flag.c_str()};
    argv.insert(argv.end(), extra.begin(), extra.end());
    const CliRun run = RunCli(argv);
    EXPECT_EQ(run.code, 0) << run.err;
    const size_t open = run.err.find("s (");
    const size_t close = run.err.find(")\n", open);
    return open == std::string::npos || close == std::string::npos
               ? run.err
               : run.err.substr(open + 3, close - open - 3);
  };
  EXPECT_EQ(summary({"--p=1", "--k=64"}),
            "0 cache hits, 2 sketches computed");
  EXPECT_EQ(summary({"--p=1", "--k=64", "--quant=int8"}),
            "2 cache hits, 0 sketches computed");
  EXPECT_EQ(summary({sketches_flag.c_str()}),
            "2 cache hits, 0 sketches computed");
  EXPECT_EQ(summary({sketches_flag.c_str(), "--quant=int16"}),
            "2 cache hits, 0 sketches computed");

  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
  std::remove(sketch_path.c_str());
}

/// Runs the CLI in a child capped at 1 KiB per file, with the cap's SIGXFSZ
/// ignored so a write past it fails with EFBIG instead of killing the
/// child; the child exits with the CLI's exit code.
void RunCliUnderFileSizeCap(const std::vector<const char*>& argv) {
  rlimit cap{};
  cap.rlim_cur = cap.rlim_max = 1024;
  setrlimit(RLIMIT_FSIZE, &cap);
  std::signal(SIGXFSZ, SIG_IGN);
  std::exit(RunCli(argv).code);
}

TEST(CliWriteDeathTest, QueryOutFailedWriteKeepsThePreviousFile) {
  const std::string table_path = TempPath("cli_fsize_query.tbl");
  const std::string batch_path = TempPath("cli_fsize_query_batch.txt");
  const std::string out_path = TempPath("cli_fsize_query_out.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const std::string out_flag = "--out=" + out_path;
  {
    const std::string generate_out = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region",
                      generate_out.c_str(), "--rows=64", "--cols=64",
                      "--seed=11"})
                  .code,
              0);
  }
  {
    // 8 knn lines over 64 tiles print far more than the 1 KiB cap.
    std::ofstream batch(batch_path);
    for (int i = 0; i < 8; ++i) batch << "knn " << i << " 63\n";
  }
  { std::ofstream(out_path) << "previous answers\n"; }
  EXPECT_EXIT(RunCliUnderFileSizeCap({"query", table_flag.c_str(),
                                      "--tile-rows=8", "--tile-cols=8",
                                      batch_flag.c_str(), out_flag.c_str()}),
              ::testing::ExitedWithCode(1), "");
  // The previous file is intact and no temp file is left behind.
  EXPECT_EQ(ReadWholeFile(out_path), "previous answers\n");
  EXPECT_FALSE(std::filesystem::exists(out_path + ".tmp"));
  for (const std::string& path : {table_path, batch_path, out_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliWriteDeathTest, ClusterOutFailedWriteKeepsThePreviousFile) {
  const std::string table_path = TempPath("cli_fsize_cluster.tbl");
  const std::string out_path = TempPath("cli_fsize_cluster_out.csv");
  const std::string table_flag = "--table=" + table_path;
  const std::string out_flag = "--out=" + out_path;
  {
    const std::string generate_out = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region",
                      generate_out.c_str(), "--rows=64", "--cols=64",
                      "--seed=11"})
                  .code,
              0);
  }
  { std::ofstream(out_path) << "previous assignments\n"; }
  // 256 tiles of 4x4: the CSV runs past the 1 KiB cap.
  EXPECT_EXIT(RunCliUnderFileSizeCap({"cluster", table_flag.c_str(),
                                      "--tile-rows=4", "--tile-cols=4",
                                      "--k=3", "--mode=exact",
                                      "--threads=1", out_flag.c_str()}),
              ::testing::ExitedWithCode(1), "");
  EXPECT_EQ(ReadWholeFile(out_path), "previous assignments\n");
  EXPECT_FALSE(std::filesystem::exists(out_path + ".tmp"));
  std::remove(table_path.c_str());
  std::remove(out_path.c_str());
}

// The quantized code tier is a filter only: every --quant width must
// reproduce the --quant=off bytes exactly, for both query and cluster,
// across thread counts and cache budgets. Bad widths and exact-mode
// combinations are rejected up front.
TEST(CliTest, QuantOutputsAreByteIdenticalToOff) {
  const std::string table_path = TempPath("cli_quant_table.tbl");
  const std::string batch_path = TempPath("cli_quant_batch.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=23"})
                  .code,
              0);
  }
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 63\n"
          << "knn 5 4\n"
          << "distance 17 42\n"
          << "knn 63 20\n";
  }

  const CliRun query_off =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--quant=off"});
  ASSERT_EQ(query_off.code, 0) << query_off.err;
  // Each quantized run's metrics show that the code scan actually ran.
  const std::string json_path = TempPath("cli_quant_metrics.json");
  const std::string json_flag = "--metrics-json=" + json_path;
  for (const char* quant : {"--quant=int8", "--quant=int16"}) {
    for (const char* extra : {"--threads=4", "--cache-bytes=4096"}) {
      const CliRun run =
          RunCli({"query", table_flag.c_str(), "--tile-rows=8",
                  "--tile-cols=8", batch_flag.c_str(), "--p=1", "--k=64",
                  quant, extra, json_flag.c_str()});
      ASSERT_EQ(run.code, 0) << run.err;
      EXPECT_EQ(run.out,
                query_off.out + "metrics written to " + json_path + "\n")
          << quant << " with " << extra;
      const std::string json = ReadWholeFile(json_path);
      EXPECT_GT(MetricValue(json, "quant.scan.tiles"), 0.0) << quant;
      EXPECT_GT(MetricValue(json, "quant.scan.bytes"), 0.0) << quant;
    }
  }

  // Filter-and-refine knn on top of the code tier also matches --quant=off.
  const CliRun refine_off =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--refine"});
  ASSERT_EQ(refine_off.code, 0) << refine_off.err;
  for (const char* quant : {"--quant=int8", "--quant=int16"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--refine", quant});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, refine_off.out) << "refine with " << quant;
  }

  // Clustering: the assignment CSV must match byte-for-byte (stdout also
  // reports distance-eval counts and wall time, which the prefilter is
  // allowed — indeed expected — to change).
  const std::string csv_path = TempPath("cli_quant_assign.csv");
  const std::string csv_flag = "--out=" + csv_path;
  auto run_cluster = [&](const char* quant) -> std::string {
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                "--tile-cols=8", "--p=2", "--sketch-k=64", "--k=3",
                "--seed=7", csv_flag.c_str(), quant});
    EXPECT_EQ(run.code, 0) << run.err;
    std::ifstream in(csv_path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  const std::string cluster_off = run_cluster("--quant=off");
  ASSERT_NE(cluster_off.find("tile,grid_row,grid_col,cluster"),
            std::string::npos);
  EXPECT_EQ(run_cluster("--quant=int8"), cluster_off);
  EXPECT_EQ(run_cluster("--quant=int16"), cluster_off);

  {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--quant=int7"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("quantization"), std::string::npos);
  }
  {
    // Exact mode has no sketches, so there is nothing to quantize.
    const CliRun run =
        RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                "--tile-cols=8", "--mode=exact", "--k=3", "--quant=int8"});
    EXPECT_EQ(run.code, 1);
    EXPECT_NE(run.err.find("--quant"), std::string::npos);
  }

  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
  std::remove(csv_path.c_str());
  std::remove(json_path.c_str());
}

std::vector<std::string> SplitLines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

/// Polls `path` until it appears and parses the port the daemon wrote.
uint16_t WaitForPortFile(const std::string& path) {
  for (int i = 0; i < 2000; ++i) {
    std::ifstream in(path);
    int port = 0;
    if (in >> port && port > 0) return static_cast<uint16_t>(port);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return 0;
}

// The ISSUE-6 acceptance scenario: the daemon answers a mixed batch over a
// socket byte-identically to single-shot `query` on the same inputs,
// including across a live `reload` snapshot swap, shuts down cleanly on
// SIGTERM, and its metrics dump carries the serve.* schema.
TEST(CliTest, ServeDaemonMatchesQueryAndReloads) {
  const std::string table_path = TempPath("cli_serve_table.tbl");
  const std::string batch_path = TempPath("cli_serve_batch.txt");
  const std::string day1_path = TempPath("cli_serve_day1.sks");
  const std::string day2_path = TempPath("cli_serve_day2.sks");
  const std::string port_path = TempPath("cli_serve.port");
  const std::string json_path = TempPath("cli_serve_metrics.json");
  const std::string slow_path = TempPath("cli_serve_slow.jsonl");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=11"})
                  .code,
              0);
  }
  // Two sketch-set generations over the same table, different seeds.
  for (const auto& [path, seed] :
       {std::pair<std::string, const char*>{day1_path, "--seed=42"},
        std::pair<std::string, const char*>{day2_path, "--seed=43"}}) {
    const std::string out_flag = "--out=" + path;
    ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
                      "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=64",
                      seed})
                  .code,
              0);
  }
  const std::vector<std::string> batch_lines = {
      "distance 0 63", "knn 5 4", "distance 17 42", "knn 63 2"};
  {
    std::ofstream batch(batch_path);
    for (const std::string& line : batch_lines) batch << line << "\n";
  }

  // `query` reference answers for each generation.
  const std::string day1_flag = "--sketches=" + day1_path;
  const std::string day2_flag = "--sketches=" + day2_path;
  const CliRun day1_ref =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), day1_flag.c_str()});
  ASSERT_EQ(day1_ref.code, 0) << day1_ref.err;
  const CliRun day2_ref =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), day2_flag.c_str()});
  ASSERT_EQ(day2_ref.code, 0) << day2_ref.err;
  const std::vector<std::string> day1_lines = SplitLines(day1_ref.out);
  const std::vector<std::string> day2_lines = SplitLines(day2_ref.out);
  ASSERT_EQ(day1_lines.size(), batch_lines.size());
  ASSERT_NE(day1_lines, day2_lines);

  // The daemon runs in-process on another thread; SIGTERM stops it. It runs
  // twice: plain, then with int8 codes (rebuilt on every reload) and the
  // introspection plane at full tilt — a 50 ms ticker, a 1 us slow threshold
  // mirrored to JSONL, and a `stats json` scrape after every answer on the
  // same wire. Neither run may change an answer byte.
  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  const std::string slow_flag = "--slow-log=" + slow_path;
  for (const bool full_tilt : {false, true}) {
    SCOPED_TRACE(full_tilt ? "full tilt" : "plain");
    std::remove(port_path.c_str());
    std::remove(slow_path.c_str());
    std::vector<const char*> serve_args = {
        "serve",          table_flag.c_str(),      "--tile-rows=8",
        "--tile-cols=8",  day1_flag.c_str(),       "--cache-bytes=1000000",
        port_flag.c_str(), json_flag.c_str()};
    if (full_tilt) {
      serve_args.insert(serve_args.end(),
                        {"--quant=int8", "--stats-interval=0.05",
                         "--slow-ms=0.001", slow_flag.c_str()});
    }
    CliRun serve_run{-1, "", ""};
    std::thread daemon([&] { serve_run = RunCli(serve_args); });
    const uint16_t port = WaitForPortFile(port_path);
    ASSERT_NE(port, 0) << "daemon never wrote its port file";

    {
      LineClient client(port);
      ASSERT_TRUE(client.connected());
      client.SendLine("ping");
      EXPECT_EQ(client.RecvLine(), "ok ping");
      const auto expect_answers = [&](const std::vector<std::string>& want) {
        for (size_t i = 0; i < batch_lines.size(); ++i) {
          client.SendLine(batch_lines[i]);
          EXPECT_EQ(client.RecvLine(), want[i]) << "line " << i;
          if (full_tilt) {
            client.SendLine("stats json");
            const std::string stats = client.RecvLine();
            EXPECT_EQ(stats.find("{\"schema\":\"tabsketch-stats-v1\""), 0u)
                << stats;
          }
        }
      };
      // Day-1 answers match `query` byte-for-byte...
      expect_answers(day1_lines);
      // ...and after one live reload, so do day-2 answers.
      client.SendLine("reload " + day2_path);
      const std::string ack = client.RecvLine();
      EXPECT_EQ(ack.find("ok reload "), 0u) << ack;
      expect_answers(day2_lines);
      client.SendLine("quit");
      EXPECT_EQ(client.RecvLine(), "ok bye");
    }

    raise(SIGTERM);
    daemon.join();
    EXPECT_EQ(serve_run.code, 0) << serve_run.err;
    EXPECT_NE(serve_run.out.find("serving "), std::string::npos);
    EXPECT_NE(serve_run.err.find("1 snapshot swaps"), std::string::npos);

    // The metrics dump carries the serve.* schema and the LRU cache
    // counters.
    const std::string json = ReadWholeFile(json_path);
    EXPECT_GE(MetricValue(json, "serve.connections.accepted"), 0.0);
    EXPECT_GE(MetricValue(json, "serve.requests.distance"), 0.0);
    EXPECT_GE(MetricValue(json, "serve.requests.knn"), 0.0);
    EXPECT_GE(MetricValue(json, "serve.requests.reload"), 0.0);
    EXPECT_GE(MetricValue(json, "serve.snapshot.swaps"), 0.0);
    EXPECT_GE(MetricValue(json, "serve.queue.depth"), 0.0);
    for (const char* key :
         {"lru.cache.hits", "lru.cache.misses", "lru.cache.evictions"}) {
      EXPECT_GE(MetricValue(json, key), 0.0) << key;
    }
    EXPECT_NE(json.find("serve.request.latency.seconds"), std::string::npos);
    EXPECT_EQ(MetricValue(json, "serve.connections.accepted"), 1.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.distance"), 4.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.knn"), 4.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.reload"), 1.0);
    EXPECT_EQ(MetricValue(json, "serve.snapshot.swaps"), 1.0);
    if (!full_tilt) continue;
    // Nothing failed or was shed, the ticker ran, and every query beat the
    // 1 us threshold: the JSONL mirror holds one valid record per slow one.
    EXPECT_EQ(MetricValue(json, "serve.requests.errors"), 0.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.shed"), 0.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.stats"), 8.0);
    EXPECT_GT(MetricValue(json, "serve.ticker.ticks"), 0.0);
    EXPECT_EQ(
        NestedMetricValue(json, "serve.request.latency.seconds", "count"),
        8.0);
    EXPECT_EQ(MetricValue(json, "serve.requests.slow"), 8.0);
    std::ifstream mirror(slow_path);
    size_t records = 0;
    for (std::string line; std::getline(mirror, line); ++records) {
      EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(line)) << line;
      EXPECT_TRUE(line.find("\"verb\":\"distance\"") != std::string::npos ||
                  line.find("\"verb\":\"knn\"") != std::string::npos)
          << line;
    }
    EXPECT_EQ(records, 8u);
  }

  for (const std::string& path : {table_path, batch_path, day1_path,
                                  day2_path, port_path, json_path,
                                  slow_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, ServeRejectsBadFlags) {
  EXPECT_EQ(RunCli({"serve"}).code, 1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--port=70000"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--deadline-ms=-1"})
                .code,
            1);
  // Introspection flags: --slow-log needs a threshold, the ticker needs a
  // positive interval.
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--slow-log=/tmp/slow.jsonl"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--slow-ms=-1"})
                .code,
            1);
  EXPECT_EQ(RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--stats-interval=0"})
                .code,
            1);
}

TEST(CliTest, ServeFailsFastOnUnwritableOutputs) {
  const std::string table_path = TempPath("cli_serve_outputs.tbl");
  const std::string port_path = TempPath("cli_serve_outputs.port");
  const std::string table_flag = "--table=" + table_path;
  const std::string port_flag = "--port-file=" + port_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", "--cols=32", "--seed=3"})
                  .code,
              0);
  }
  // Each output the daemon would write for its whole life is checked
  // before the port is bound: the start fails with an IOError instead.
  const std::vector<std::vector<const char*>> bad_outputs = {
      {"--slow-ms=0.000001", "--slow-log=/nonexistent-dir/slow.jsonl"},
      {"--metrics-json=/nonexistent-dir/m.json"},
  };
  for (const std::vector<const char*>& bad : bad_outputs) {
    std::remove(port_path.c_str());
    std::vector<const char*> argv = {"serve", table_flag.c_str(),
                                     "--tile-rows=8", "--tile-cols=8",
                                     port_flag.c_str()};
    argv.insert(argv.end(), bad.begin(), bad.end());
    CliRun run{-1, "", ""};
    std::atomic<bool> returned{false};
    std::thread daemon([&] {
      run = RunCli(argv);
      returned = true;
    });
    bool served = false;
    for (int i = 0; i < 2000 && !returned && !served; ++i) {
      served = std::ifstream(port_path).good();
      if (!served) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    if (served) raise(SIGTERM);  // a running daemon stops on SIGTERM
    daemon.join();
    EXPECT_FALSE(served) << bad.back() << ": the daemon started serving";
    EXPECT_EQ(run.code, 1) << bad.back();
    EXPECT_EQ(run.out.find("serving"), std::string::npos) << run.out;
    EXPECT_NE(run.err.find("IOError"), std::string::npos) << run.err;
    EXPECT_NE(run.err.find("/nonexistent-dir/"), std::string::npos)
        << run.err;
  }
  std::remove(table_path.c_str());
  std::remove(port_path.c_str());
}

TEST(CliTest, ClusterCacheBytesCountsTheQuantCodeTier) {
  // `cluster --cache-bytes` bounds sketch memory with the code tier
  // included, as `query` and `serve` do: the LRU gets the budget minus the
  // pinned code pool, and the assignments stay those of --quant=off.
  const std::string table_path = TempPath("cli_cluster_budget.tbl");
  const std::string json_path = TempPath("cli_cluster_budget.json");
  const std::string csv_path = TempPath("cli_cluster_budget.csv");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  const std::string csv_flag = "--out=" + csv_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=128", "--seed=3"})
                  .code,
              0);
  }
  auto cluster = [&](const char* quant) {
    const CliRun run = RunCli(
        {"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
         "--mode=ondemand", "--sketch-k=64", "--cache-bytes=20000", quant,
         csv_flag.c_str(), json_flag.c_str()});
    EXPECT_EQ(run.code, 0) << run.err;
    return ReadWholeFile(csv_path);
  };
  const std::string assignments_off = cluster("--quant=off");
  EXPECT_EQ(MetricValue(ReadWholeFile(json_path), "lru.cache.capacity_bytes"),
            20000.0);
  EXPECT_EQ(cluster("--quant=int16"), assignments_off);
  const std::string json = ReadWholeFile(json_path);
  const double pool_bytes = MetricValue(json, "quant.pool.bytes");
  EXPECT_EQ(pool_bytes, 16512.0);  // 128 tiles x (64 x 2 code bytes + 1)
  EXPECT_EQ(MetricValue(json, "lru.cache.capacity_bytes"),
            20000.0 - pool_bytes);
  for (const std::string& path : {table_path, json_path, csv_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, TopRejectsBadFlags) {
  EXPECT_EQ(RunCli({"top"}).code, 1);  // needs --port or --port-file
  EXPECT_EQ(RunCli({"top", "--port=70000"}).code, 1);
  EXPECT_EQ(RunCli({"top", "--port=1", "--interval=0"}).code, 1);
  // An unreadable port file is a clean error, not a hang.
  EXPECT_EQ(RunCli({"top", "--port-file=/no/such/port.file", "--once"}).code,
            1);
}

TEST(CliTest, TopOnceAndTickerMetricsFileAgainstLiveDaemon) {
  const std::string table_path = TempPath("cli_top_table.tbl");
  const std::string port_path = TempPath("cli_top.port");
  const std::string json_path = TempPath("cli_top_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  std::remove(port_path.c_str());
  std::remove(json_path.c_str());
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", "--cols=32", "--seed=3"})
                  .code,
              0);
  }

  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  CliRun serve_run{-1, "", ""};
  std::thread daemon([&] {
    serve_run = RunCli({"serve", table_flag.c_str(), "--tile-rows=8",
                        "--tile-cols=8", port_flag.c_str(), json_flag.c_str(),
                        "--stats-interval=0.05"});
  });
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "daemon never wrote its port file";

  // The ticker atomically rewrites --metrics-json every interval: while the
  // daemon is still running, the file on disk is a complete valid document
  // carrying the ticker's own counter.
  bool ticked = false;
  for (int i = 0; i < 2000 && !ticked; ++i) {
    const std::string json = ReadWholeFile(json_path);
    if (!json.empty() && tabsketch::testing::JsonChecker::Valid(json) &&
        json.find("serve.ticker.ticks") != std::string::npos) {
      ticked = true;
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  EXPECT_TRUE(ticked) << "metrics file never rewritten while serving";

  // Background traffic so the two polls `top --once` takes bracket live
  // requests and the client-side diffed rate is observable.
  std::atomic<bool> stop_traffic{false};
  std::thread traffic([&] {
    LineClient client(port);
    if (!client.connected()) return;
    while (!stop_traffic.load()) {
      client.SendLine("distance 0 1");
      if (client.RecvLine().empty()) return;
    }
  });

  const CliRun top =
      RunCli({"top", port_flag.c_str(), "--interval=0.2", "--once"});
  stop_traffic.store(true);
  traffic.join();
  EXPECT_EQ(top.code, 0) << top.err;
  const std::vector<std::string> lines = SplitLines(top.out);
  ASSERT_EQ(lines.size(), 2u) << top.out;  // header + exactly one data line
  EXPECT_NE(lines[0].find("rps"), std::string::npos) << top.out;
  EXPECT_NE(lines[0].find("p99_ms"), std::string::npos) << top.out;
  EXPECT_NE(lines[0].find("tiles"), std::string::npos) << top.out;
  const double rps = std::strtod(lines[1].c_str(), nullptr);
  EXPECT_GT(rps, 0.0) << top.out;

  raise(SIGTERM);
  daemon.join();
  EXPECT_EQ(serve_run.code, 0) << serve_run.err;
  for (const std::string& path : {table_path, port_path, json_path}) {
    std::remove(path.c_str());
  }
}

/// Generates `cols`-column six-region pieces (32 rows each) and returns
/// their paths; the caller removes them.
std::vector<std::string> GeneratePieces(const std::string& prefix,
                                        const std::vector<int>& piece_cols) {
  std::vector<std::string> paths;
  for (size_t i = 0; i < piece_cols.size(); ++i) {
    const std::string path =
        TempPath(prefix + "_piece" + std::to_string(i) + ".tbl");
    const std::string out_flag = "--out=" + path;
    const std::string cols_flag =
        "--cols=" + std::to_string(piece_cols[i]);
    const std::string seed_flag = "--seed=" + std::to_string(100 + i);
    EXPECT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", cols_flag.c_str(), seed_flag.c_str()})
                  .code,
              0);
    paths.push_back(path);
  }
  return paths;
}

std::string JoinComma(const std::vector<std::string>& parts) {
  std::string joined;
  for (const std::string& part : parts) {
    if (!joined.empty()) joined += ",";
    joined += part;
  }
  return joined;
}

TEST(CliTest, IngestMatchesBatchSketchByteForByte) {
  // Streaming `ingest` over uneven pieces (the middle one leaves pending
  // columns mid-stream) must write the same bytes `sketch` writes over the
  // stitched table — sketches and the .skt writer are deterministic.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_ingest_id", {20, 12, 16});
  const std::string stream_out = TempPath("cli_ingest_id_stream.skt");
  const std::string table_out = TempPath("cli_ingest_id_stitched.tbl");
  const std::string batch_out = TempPath("cli_ingest_id_batch.skt");
  const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
  const std::string stream_flag = "--out=" + stream_out;
  const std::string table_out_flag = "--table-out=" + table_out;
  const CliRun ingest =
      RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", stream_flag.c_str(), table_out_flag.c_str(),
              "--p=1", "--k=32", "--seed=7", "--threads=3"});
  ASSERT_EQ(ingest.code, 0) << ingest.err;
  EXPECT_NE(ingest.out.find("ingested 3 pieces"), std::string::npos);
  EXPECT_NE(ingest.out.find("tile-cols [0, 6)"), std::string::npos);

  const std::string table_flag = "--table=" + table_out;
  const std::string batch_flag = "--out=" + batch_out;
  const CliRun sketch =
      RunCli({"sketch", table_flag.c_str(), batch_flag.c_str(),
              "--tile-rows=8", "--tile-cols=8", "--p=1", "--k=32",
              "--seed=7"});
  ASSERT_EQ(sketch.code, 0) << sketch.err;
  EXPECT_EQ(ReadWholeFile(stream_out), ReadWholeFile(batch_out));

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path : {stream_out, table_out, batch_out}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, IngestWindowSlidesAndMatchesSuffixSketch) {
  // --window=2 retires overflow after every piece: the final window is the
  // stream's last two tile columns, and its sketch set must byte-match a
  // batch `sketch` over the final window table.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_ingest_win", {16, 16, 16});
  const std::string stream_out = TempPath("cli_ingest_win_stream.skt");
  const std::string table_out = TempPath("cli_ingest_win_window.tbl");
  const std::string batch_out = TempPath("cli_ingest_win_batch.skt");
  const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
  const std::string stream_flag = "--out=" + stream_out;
  const std::string table_out_flag = "--table-out=" + table_out;
  const CliRun ingest =
      RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", stream_flag.c_str(), table_out_flag.c_str(),
              "--k=32", "--window=2"});
  ASSERT_EQ(ingest.code, 0) << ingest.err;
  EXPECT_NE(ingest.out.find("tile-cols [4, 6)"), std::string::npos);
  EXPECT_NE(ingest.out.find("window table (32x16)"), std::string::npos);

  const std::string table_flag = "--table=" + table_out;
  const std::string batch_flag = "--out=" + batch_out;
  ASSERT_EQ(RunCli({"sketch", table_flag.c_str(), batch_flag.c_str(),
                    "--tile-rows=8", "--tile-cols=8", "--k=32"})
                .code,
            0);
  EXPECT_EQ(ReadWholeFile(stream_out), ReadWholeFile(batch_out));

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path : {stream_out, table_out, batch_out}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, IngestRejectsBadFlags) {
  const CliRun no_pieces = RunCli({"ingest", "--tile-rows=8",
                                   "--tile-cols=8", "--out=/tmp/x.skt"});
  EXPECT_EQ(no_pieces.code, 1);
  EXPECT_NE(no_pieces.err.find("--pieces"), std::string::npos);
  EXPECT_EQ(RunCli({"ingest", "--pieces=,", "--tile-rows=8",
                    "--tile-cols=8", "--out=/tmp/x.skt"})
                .code,
            1);
  EXPECT_EQ(RunCli({"ingest", "--pieces=/tmp/a.tbl", "--tile-rows=8",
                    "--tile-cols=8", "--out=/tmp/x.skt", "--window=-1"})
                .code,
            1);
}

TEST(CliTest, ServeIngestFlagValidation) {
  // All three rejections fire before any file is opened or port bound.
  const CliRun needs_table =
      RunCli({"serve", "--sketches=/tmp/x.skt", "--ingest"});
  EXPECT_EQ(needs_table.code, 1);
  EXPECT_NE(needs_table.err.find("--ingest"), std::string::npos);
  const CliRun with_sketches =
      RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
              "--tile-cols=8", "--sketches=/tmp/x.skt", "--ingest"});
  EXPECT_EQ(with_sketches.code, 1);
  EXPECT_NE(with_sketches.err.find("--sketches"), std::string::npos);
  const CliRun with_cache =
      RunCli({"serve", "--table=/tmp/x.tbl", "--tile-rows=8",
              "--tile-cols=8", "--cache-bytes=4096", "--ingest"});
  EXPECT_EQ(with_cache.code, 1);
  EXPECT_NE(with_cache.err.find("--cache-bytes"), std::string::npos);
}

TEST(CliTest, ServeIngestDaemonMatchesQueryOnStitchedTable) {
  // The acceptance scenario: a daemon grown by `append` verbs answers
  // byte-identically to `tabsketch query` over the stitched table —
  // including the quantized filter tier.
  const std::vector<std::string> pieces =
      GeneratePieces("cli_serve_ingest", {16, 16, 16});
  const std::string stitched_path = TempPath("cli_serve_ingest_full.tbl");
  const std::string batch_path = TempPath("cli_serve_ingest_batch.txt");
  const std::string port_path = TempPath("cli_serve_ingest.port");
  const std::string json_path = TempPath("cli_serve_ingest_metrics.json");
  std::remove(port_path.c_str());

  // Stitch via ingest --table-out (whose bytes the tests above pin), then
  // take `query` reference answers before the daemon starts (RunCli resets
  // the global metrics registry; the daemon's dump must stay its own).
  {
    const std::string pieces_flag = "--pieces=" + JoinComma(pieces);
    const std::string out_flag = "--out=" + TempPath("cli_serve_ingest.skt");
    const std::string table_out_flag = "--table-out=" + stitched_path;
    ASSERT_EQ(RunCli({"ingest", pieces_flag.c_str(), "--tile-rows=8",
                      "--tile-cols=8", out_flag.c_str(),
                      table_out_flag.c_str(), "--k=64"})
                  .code,
              0);
    std::remove(TempPath("cli_serve_ingest.skt").c_str());
  }
  const std::vector<std::string> batch_lines = {
      "distance 0 23", "knn 5 4", "distance 17 22", "knn 23 3"};
  {
    std::ofstream batch(batch_path);
    for (const std::string& line : batch_lines) batch << line << "\n";
  }
  const std::string stitched_flag = "--table=" + stitched_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const CliRun reference =
      RunCli({"query", stitched_flag.c_str(), "--tile-rows=8",
              "--tile-cols=8", batch_flag.c_str(), "--k=64",
              "--quant=int8"});
  ASSERT_EQ(reference.code, 0) << reference.err;
  const std::vector<std::string> expected = SplitLines(reference.out);
  ASSERT_EQ(expected.size(), batch_lines.size());

  const std::string seed_flag = "--table=" + pieces[0];
  const std::string port_flag = "--port-file=" + port_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  CliRun serve_run{-1, "", ""};
  std::thread daemon([&] {
    serve_run = RunCli({"serve", seed_flag.c_str(), "--tile-rows=8",
                        "--tile-cols=8", "--k=64", "--quant=int8",
                        "--ingest", port_flag.c_str(), json_flag.c_str()});
  });
  const uint16_t port = WaitForPortFile(port_path);
  ASSERT_NE(port, 0) << "daemon never wrote its port file";

  {
    LineClient client(port);
    ASSERT_TRUE(client.connected());
    client.SendLine("window");
    EXPECT_EQ(client.RecvLine(),
              "ok window tile-cols=2 start=0 pending=0 tiles=8");
    for (size_t i = 1; i < pieces.size(); ++i) {
      client.SendLine("append " + pieces[i]);
      const std::string ack = client.RecvLine();
      EXPECT_EQ(ack.find("ok append "), 0u) << ack;
    }
    // Every answer over the appended window byte-matches `query` over the
    // stitched table.
    for (size_t i = 0; i < batch_lines.size(); ++i) {
      client.SendLine(batch_lines[i]);
      EXPECT_EQ(client.RecvLine(), expected[i]) << batch_lines[i];
    }
    // A retire, then a missing piece, which answers an error line and
    // keeps serving; `health` and `stats json` follow the window live.
    client.SendLine("retire 1");
    EXPECT_EQ(client.RecvLine(), "ok retire 1 tiles=20 start=1 swaps=3");
    client.SendLine("append " + TempPath("cli_serve_ingest_missing.tbl"));
    const std::string missing = client.RecvLine();
    EXPECT_EQ(missing.find("error "), 0u) << missing;
    client.SendLine("health");
    const std::string health = client.RecvLine();
    EXPECT_NE(health.find("\"status\":\"ok\""), std::string::npos) << health;
    client.SendLine("stats json");
    const std::string stats = client.RecvLine();
    EXPECT_NE(stats.find("\"generation\":3,\"tiles\":20,"), std::string::npos)
        << stats;
    EXPECT_NE(stats.find("\"window_start_col\":1,\"window_tile_cols\":5,"
                         "\"window_pending_cols\":0,"),
              std::string::npos)
        << stats;
    // reload is disabled under --ingest.
    client.SendLine("reload " + stitched_path);
    EXPECT_EQ(client.RecvLine(),
              "error failed-precondition reload disabled");
    client.SendLine("quit");
    EXPECT_EQ(client.RecvLine(), "ok bye");
  }

  raise(SIGTERM);
  daemon.join();
  EXPECT_EQ(serve_run.code, 0) << serve_run.err;
  EXPECT_NE(serve_run.err.find("3 snapshot swaps"), std::string::npos);

  // The dump carries the ingest.* schema.
  const std::string json = ReadWholeFile(json_path);
  EXPECT_GE(MetricValue(json, "ingest.appends"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.tiles.sketched"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.tiles.reused"), 0.0);
  EXPECT_GE(MetricValue(json, "ingest.window.tile_cols"), 0.0);
  EXPECT_NE(json.find("ingest.append.latency.seconds"), std::string::npos);
  EXPECT_EQ(MetricValue(json, "ingest.appends"), 2.0);
  EXPECT_EQ(MetricValue(json, "ingest.columns.appended"), 32.0);
  EXPECT_EQ(MetricValue(json, "ingest.tiles.sketched"), 16.0);
  // 8 + 16 reused by the appends, 20 survivors of the retire.
  EXPECT_EQ(MetricValue(json, "ingest.tiles.reused"), 44.0);
  EXPECT_EQ(MetricValue(json, "ingest.retires"), 1.0);
  EXPECT_EQ(MetricValue(json, "ingest.errors"), 1.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.append"), 3.0);
  EXPECT_EQ(MetricValue(json, "serve.requests.retire"), 1.0);
  EXPECT_EQ(MetricValue(json, "ingest.window.tile_cols"), 5.0);
  EXPECT_EQ(MetricValue(json, "ingest.window.start_col"), 1.0);
  EXPECT_EQ(MetricValue(json, "ingest.window.pending_cols"), 0.0);
  EXPECT_EQ(
      NestedMetricValue(json, "ingest.append.latency.seconds", "count"), 2.0);

  for (const std::string& path : pieces) std::remove(path.c_str());
  for (const std::string& path :
       {stitched_path, batch_path, port_path, json_path}) {
    std::remove(path.c_str());
  }
}

TEST(CliTest, QueryRejectsBadBatchWithLineNumber) {
  const std::string table_path = TempPath("cli_query_bad_table.tbl");
  const std::string batch_path = TempPath("cli_query_bad_batch.txt");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                    "--rows=32", "--cols=32"})
                .code,
            0);
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 1\nteleport 2 3\n";
  }
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const CliRun run =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str()});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("line 2"), std::string::npos);
  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CliTest, DistanceRejectsMismatchedRectangles) {
  const std::string table_path = TempPath("cli_test_rect.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  const CliRun run = RunCli({"distance", table_flag.c_str(),
                          "--rect1=0,0,8,8", "--rect2=0,0,8,9"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("equal dimensions"), std::string::npos);
  std::remove(table_path.c_str());
}

TEST(CliTest, DistanceRejectsOutOfRangeP) {
  // --p outside (0, 2] used to reach LpDistance's precondition CHECK and
  // abort; the family is now validated first, so this is a clean error.
  const std::string table_path = TempPath("cli_test_badp.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  for (const char* bad_p : {"--p=0", "--p=-1", "--p=2.5"}) {
    const CliRun run = RunCli({"distance", table_flag.c_str(),
                            "--rect1=0,0,8,8", "--rect2=8,8,8,8", bad_p});
    EXPECT_EQ(run.code, 1) << bad_p;
    EXPECT_NE(run.err.find("p must be in (0, 2]"), std::string::npos)
        << bad_p << ": " << run.err;
  }
  std::remove(table_path.c_str());
}

TEST(CliTest, ClusterRejectsUnknownAlgoAndMode) {
  const std::string table_path = TempPath("cli_test_algo.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                 "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  // k-means is the only algorithm, so --algo is not a flag.
  const CliRun algo = RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                              "--tile-cols=8", "--algo=zzz"});
  EXPECT_EQ(algo.code, 1);
  EXPECT_NE(algo.err.find("unknown flag --algo"), std::string::npos)
      << algo.err;
  EXPECT_EQ(RunCli({"cluster", table_flag.c_str(), "--tile-rows=8",
                 "--tile-cols=8", "--mode=zzz"})
                .code,
            1);
  std::remove(table_path.c_str());
}

TEST(CliTest, InfoMissingFileFails) {
  const CliRun run = RunCli({"info", "--table=/tmp/definitely_missing.tbl"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("error"), std::string::npos);
}

TEST(CliTest, NegativeKIsAnErrorInEveryFamilyCommand) {
  // --k=-1 used to wrap to SIZE_MAX and abort with std::length_error once a
  // sketch was sized; it is now rejected before any work starts.
  const std::string table_path = TempPath("cli_test_negk.tbl");
  const std::string batch_path = TempPath("cli_test_negk.batch");
  const std::string skt_path = TempPath("cli_test_negk.skt");
  const std::string pool_path = TempPath("cli_test_negk.pool");
  const std::string gen_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", gen_flag.c_str(),
                    "--rows=32", "--cols=32"})
                .code,
            0);
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 1\n";
  }
  const std::string table_flag = "--table=" + table_path;
  const std::string pieces_flag = "--pieces=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  const std::string skt_flag = "--out=" + skt_path;
  const std::string pool_flag = "--out=" + pool_path;
  const std::vector<std::vector<const char*>> commands = {
      {"sketch", table_flag.c_str(), skt_flag.c_str(), "--tile-rows=8",
       "--tile-cols=8"},
      {"pool-build", table_flag.c_str(), pool_flag.c_str()},
      {"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
       batch_flag.c_str()},
      {"serve", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
       "--ingest"},
      {"ingest", pieces_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
       skt_flag.c_str()},
  };
  for (std::vector<const char*> argv : commands) {
    const std::string command = argv[0];
    argv.push_back("--k=-1");
    const CliRun run = RunCli(argv);
    EXPECT_EQ(run.code, 1) << command;
    EXPECT_NE(run.err.find("--k"), std::string::npos)
        << command << ": " << run.err;
  }
  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CliTest, GenerateRejectsNegativeRows) {
  // --rows=-1 used to wrap to SIZE_MAX and abort allocating the table.
  const std::string out_flag = "--out=" + TempPath("cli_test_negrows.tbl");
  for (const char* dataset :
       {"--dataset=six-region", "--dataset=call-volume"}) {
    const CliRun run = RunCli({"generate", dataset, out_flag.c_str(),
                               "--rows=-1"});
    EXPECT_EQ(run.code, 1) << dataset;
    EXPECT_NE(run.err.find("--rows"), std::string::npos) << run.err;
  }
}

TEST(CliTest, NegativeTileSizeErrorNamesTheFlag) {
  // --tile-rows=-8 used to wrap and surface as
  // "tile 18446744073709551608x8 exceeds table".
  const std::string table_path = TempPath("cli_test_negtile.tbl");
  const std::string gen_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", gen_flag.c_str(),
                    "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  const std::string out_flag = "--out=" + TempPath("cli_test_negtile.skt");
  const CliRun run = RunCli({"sketch", table_flag.c_str(), out_flag.c_str(),
                             "--tile-rows=-8", "--tile-cols=8"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--tile-rows"), std::string::npos) << run.err;
  std::remove(table_path.c_str());
}

TEST(CliTest, DistanceRejectsEmptyRectangles) {
  // Zero-area rectangles used to reach the sketcher's non-empty CHECK.
  const std::string table_path = TempPath("cli_test_emptyrect.tbl");
  const std::string out_flag = "--out=" + table_path;
  ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                    "--rows=32", "--cols=32"})
                .code,
            0);
  const std::string table_flag = "--table=" + table_path;
  const CliRun run = RunCli({"distance", table_flag.c_str(),
                             "--rect1=0,0,0,0", "--rect2=1,1,0,0"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--rect1"), std::string::npos) << run.err;
  std::remove(table_path.c_str());
}

TEST(CliTest, InfoReportsAnEmptyTable) {
  // ReadBinary accepts a table with 0 rows; info used to read its first
  // value anyway.
  const std::string table_path = TempPath("cli_test_empty.tbl");
  ASSERT_TRUE(table::WriteBinary(table::Matrix(0, 5), table_path).ok());
  const std::string table_flag = "--table=" + table_path;
  const CliRun run = RunCli({"info", table_flag.c_str()});
  EXPECT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("0x5 (0 bytes)"), std::string::npos) << run.out;
  EXPECT_NE(run.out.find("empty table"), std::string::npos) << run.out;
  std::remove(table_path.c_str());
}

// The ISSUE-3 acceptance scenario: cluster a 256x256 demo table with
// --metrics-json and validate that the dump is well-formed JSON carrying the
// documented per-stage timings and the exact-vs-sketch evaluation split.
TEST(CliMetricsTest, ClusterDumpCarriesDocumentedSchema) {
  const std::string table_path = TempPath("cli_metrics_table.tbl");
  const std::string json_path = TempPath("cli_metrics_cluster.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=256", "--cols=256", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=6", "--sketch-k=64", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("metrics written to"), std::string::npos);

  const std::string json = ReadWholeFile(json_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-metrics-v1\""),
            std::string::npos);

  // Per-stage timing keys are always present (preregistered), and the stages
  // this run exercises have recorded samples.
  for (const char* stage :
       {"span.fft.correlate.seconds", "span.pool.build.seconds",
        "span.cluster.assign.seconds"}) {
    EXPECT_NE(json.find(std::string("\"") + stage + "\""), std::string::npos)
        << "missing stage " << stage;
  }
  EXPECT_GE(MetricValue(json, "span.cluster.assign.seconds"), 0.0);

  // Precomputed sketch mode: every distance evaluation is a sketch estimate.
  const double sketch_evals =
      MetricValue(json, "cluster.distance_evals.sketch");
  const double exact_evals = MetricValue(json, "cluster.distance_evals.exact");
  EXPECT_GT(sketch_evals, 0.0);
  EXPECT_EQ(exact_evals, 0.0);
  EXPECT_GT(MetricValue(json, "estimator.estimate.calls"), 0.0);
  EXPECT_GT(MetricValue(json, "sketcher.sketch_of.calls"), 0.0);
  EXPECT_GT(MetricValue(json, "cluster.kmeans.iterations"), 0.0);

  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, ExactModeSplitsEvaluationsToExact) {
  const std::string table_path = TempPath("cli_metrics_exact.tbl");
  const std::string json_path = TempPath("cli_metrics_exact.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--mode=exact", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_GT(MetricValue(json, "cluster.distance_evals.exact"), 0.0);
  EXPECT_EQ(MetricValue(json, "cluster.distance_evals.sketch"), 0.0);
  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, PoolBuildDumpRecordsFftAndPoolStages) {
  const std::string table_path = TempPath("cli_metrics_pool.tbl");
  const std::string pool_path = TempPath("cli_metrics_pool.pool");
  const std::string json_path = TempPath("cli_metrics_pool.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64"})
                  .code,
              0);
  }
  const std::string out_flag = "--out=" + pool_path;
  const CliRun run =
      RunCli({"pool-build", table_flag.c_str(), out_flag.c_str(), "--k=8",
              "--min-log2=3", "--max-log2=5", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;

  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_EQ(MetricValue(json, "fft.plan.constructions"), 1.0);
  EXPECT_GT(MetricValue(json, "fft.correlate_pair.calls"), 0.0);
  EXPECT_EQ(MetricValue(json, "pool.build.canonical_sizes"), 9.0);
  // The overall build span and one per-canonical-size histogram.
  EXPECT_GE(MetricValue(json, "span.pool.build.seconds"), 0.0);
  EXPECT_NE(json.find("\"span.pool.build.size_8x8.seconds\""),
            std::string::npos);
  // The fft stage span recorded at least one sample.
  const size_t fft_span = json.find("\"span.fft.correlate.seconds\"");
  ASSERT_NE(fft_span, std::string::npos);
  const std::string fft_entry = json.substr(fft_span, 80);
  EXPECT_EQ(fft_entry.find("\"count\": 0,"), std::string::npos) << fft_entry;

  std::remove(table_path.c_str());
  std::remove(pool_path.c_str());
  std::remove(json_path.c_str());
}

TEST(CliMetricsTest, RepeatedRunsResetBetweenDumps) {
  const std::string table_path = TempPath("cli_metrics_reset.tbl");
  const std::string json_path = TempPath("cli_metrics_reset.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=32", "--cols=32"})
                  .code,
              0);
  }
  auto sketch_calls = [&] {
    const CliRun run = RunCli({"distance", table_flag.c_str(),
                               "--rect1=0,0,8,8", "--rect2=16,16,8,8",
                               "--k=16", json_flag.c_str()});
    EXPECT_EQ(run.code, 0) << run.err;
    return MetricValue(ReadWholeFile(json_path), "sketcher.sketch_of.calls");
  };
  // Identical runs dump identical counts — the registry resets per run
  // instead of accumulating across in-process invocations.
  const double first = sketch_calls();
  EXPECT_GT(first, 0.0);
  EXPECT_EQ(sketch_calls(), first);
  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

/// Returns the full line of `text` containing `needle` ("" when absent).
std::string LineContaining(const std::string& text, const std::string& needle) {
  const size_t pos = text.find(needle);
  if (pos == std::string::npos) return "";
  const size_t begin = text.rfind('\n', pos);
  const size_t line_start = begin == std::string::npos ? 0 : begin + 1;
  const size_t line_end = text.find('\n', pos);
  return text.substr(line_start, line_end == std::string::npos
                                     ? std::string::npos
                                     : line_end - line_start);
}

TEST(CliTraceTest, ClusterTraceJsonIsValidChromeTrace) {
  const std::string table_path = TempPath("cli_trace_table.tbl");
  const std::string trace_path = TempPath("cli_trace_cluster.trace.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string trace_flag = "--trace-json=" + trace_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--sketch-k=64", trace_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;
  EXPECT_NE(run.out.find("trace written to"), std::string::npos);

  const std::string json = ReadWholeFile(trace_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
  // The instrumented spans show up as complete ('X') events.
  EXPECT_NE(json.find("\"cluster.assign\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);

  std::remove(table_path.c_str());
  std::remove(trace_path.c_str());
}

// Observability must observe, not perturb: the clustering output with
// tracing and full-rate auditing enabled is byte-identical to a plain run.
TEST(CliTraceTest, ObservabilityDoesNotPerturbClusterOutput) {
  const std::string table_path = TempPath("cli_identity_table.tbl");
  const std::string plain_csv = TempPath("cli_identity_plain.csv");
  const std::string traced_csv = TempPath("cli_identity_traced.csv");
  const std::string trace_path = TempPath("cli_identity.trace.json");
  const std::string table_flag = "--table=" + table_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=3"})
                  .code,
              0);
  }
  const std::string plain_out_flag = "--out=" + plain_csv;
  const CliRun plain =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--sketch-k=64", "--seed=9",
              plain_out_flag.c_str()});
  ASSERT_EQ(plain.code, 0) << plain.err;

  const std::string traced_out_flag = "--out=" + traced_csv;
  const std::string trace_flag = "--trace-json=" + trace_path;
  const CliRun traced =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--sketch-k=64", "--seed=9",
              traced_out_flag.c_str(), trace_flag.c_str(),
              "--audit-rate=1"});
  ASSERT_EQ(traced.code, 0) << traced.err;

  EXPECT_EQ(ReadWholeFile(plain_csv), ReadWholeFile(traced_csv));
  // The human-readable summary matches too (the timing line carries a
  // wall-clock figure, so compare the deterministic cluster-sizes line).
  const std::string sizes = LineContaining(plain.out, "cluster sizes:");
  ASSERT_FALSE(sizes.empty()) << plain.out;
  EXPECT_EQ(LineContaining(traced.out, "cluster sizes:"), sizes);

  std::remove(table_path.c_str());
  std::remove(plain_csv.c_str());
  std::remove(traced_csv.c_str());
  std::remove(trace_path.c_str());
}

TEST(CliSparsityTest, RejectsOutOfRangeAndGarbage) {
  // --sparsity range/parse errors fail fast and name the flag, before any
  // table IO happens (mirrors the --audit-rate contract).
  for (const char* bad : {"--sparsity=0", "--sparsity=-0.5",
                          "--sparsity=1.5"}) {
    const CliRun run = RunCli({"pool-build", "--table=/tmp/none.tbl",
                               "--out=/tmp/none.pool", bad});
    EXPECT_EQ(run.code, 1) << bad;
    EXPECT_NE(run.err.find("--sparsity"), std::string::npos)
        << bad << ": " << run.err;
  }
  const CliRun garbage = RunCli({"pool-build", "--table=/tmp/none.tbl",
                                 "--out=/tmp/none.pool", "--sparsity=abc"});
  EXPECT_EQ(garbage.code, 1);
  EXPECT_NE(garbage.err.find("sparsity"), std::string::npos) << garbage.err;
}

TEST(CliSparsityTest, ExactClusterModeRejectsSparsity) {
  const CliRun run = RunCli({"cluster", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--mode=exact", "--sparsity=0.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--sparsity"), std::string::npos) << run.err;
}

TEST(CliSparsityTest, QueryRejectsSparsityAlongsideSketchesFile) {
  const CliRun run = RunCli({"query", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--batch=/tmp/none_batch.txt",
                             "--sketches=/tmp/none.skt", "--sparsity=0.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--sparsity"), std::string::npos) << run.err;
}

TEST(CliSparsityTest, SparseQueryIsByteIdenticalAcrossThreadsAndCaches) {
  // The acceptance invariant for the sparse tier's query path: answers are
  // byte-identical across thread counts and cache budgets, because the
  // FFT-vs-direct choice never consults either.
  const std::string table_path = TempPath("cli_sparse_table.tbl");
  const std::string batch_path = TempPath("cli_sparse_batch.txt");
  const std::string table_flag = "--table=" + table_path;
  const std::string batch_flag = "--batch=" + batch_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=64", "--cols=64", "--seed=5"})
                  .code,
              0);
  }
  {
    std::ofstream batch(batch_path);
    batch << "distance 0 63\n"
          << "knn 5 4\n"
          << "distance 17 42\n";
  }
  const CliRun baseline =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--sparsity=0.1",
              "--threads=1"});
  ASSERT_EQ(baseline.code, 0) << baseline.err;
  for (const char* extra : {"--threads=4", "--cache-bytes=1",
                            "--cache-bytes=1000000"}) {
    const CliRun run =
        RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
                batch_flag.c_str(), "--p=1", "--k=64", "--sparsity=0.1",
                extra});
    ASSERT_EQ(run.code, 0) << run.err;
    EXPECT_EQ(run.out, baseline.out) << extra;
  }
  // A different sparsity is a different family: answers must change.
  const CliRun dense =
      RunCli({"query", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              batch_flag.c_str(), "--p=1", "--k=64", "--threads=1"});
  ASSERT_EQ(dense.code, 0) << dense.err;
  EXPECT_NE(dense.out, baseline.out);
  std::remove(table_path.c_str());
  std::remove(batch_path.c_str());
}

TEST(CliAuditTest, RejectsOutOfRangeRate) {
  const CliRun run = RunCli({"cluster", "--table=/tmp/none.tbl",
                             "--tile-rows=8", "--tile-cols=8",
                             "--audit-rate=1.5"});
  EXPECT_EQ(run.code, 1);
  EXPECT_NE(run.err.find("--audit-rate"), std::string::npos) << run.err;
}

// The ISSUE-4 acceptance scenario: a full-rate audit of a 64-sketch p = 1
// run dumps a relative-error histogram whose median sits inside the
// Theorem 1-2 envelope eps = C(p)/sqrt(k) = 4/sqrt(64) = 0.5.
TEST(CliAuditTest, RateOneDumpReportsEnvelopeConsistentErrors) {
  const std::string table_path = TempPath("cli_audit_table.tbl");
  const std::string json_path = TempPath("cli_audit_metrics.json");
  const std::string table_flag = "--table=" + table_path;
  const std::string json_flag = "--metrics-json=" + json_path;
  {
    const std::string out_flag = "--out=" + table_path;
    ASSERT_EQ(RunCli({"generate", "--dataset=six-region", out_flag.c_str(),
                      "--rows=128", "--cols=128", "--seed=3"})
                  .code,
              0);
  }
  const CliRun run =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--sketch-k=64", "--p=1",
              "--audit-rate=1", json_flag.c_str()});
  ASSERT_EQ(run.code, 0) << run.err;

  const std::string json = ReadWholeFile(json_path);
  EXPECT_TRUE(tabsketch::testing::JsonChecker::Valid(json)) << json;
  // End-of-run summary line on stdout.
  EXPECT_NE(run.out.find("audit p=1 k=64:"), std::string::npos) << run.out;
  const double samples = MetricValue(json, "audit.samples");
  EXPECT_GT(samples, 0.0);
  const double p50 = NestedMetricValue(json, "audit.relerr.p1", "p50");
  EXPECT_GT(p50, 0.0);
  EXPECT_LE(p50, 0.5);
  // Violations of the eps bound are the tail, never the bulk.
  const double violations = MetricValue(json, "audit.violations");
  EXPECT_GE(violations, 0.0);
  EXPECT_LT(violations, samples / 2.0);

  // The same audit of a very sparse family: its violation rate respects the
  // widened Li envelope eps = C(p)/sqrt(k) * s^(-1/2) (DESIGN.md Section
  // 16) at the delta = 0.15 coverage the guarantee sweeps pin, and the
  // sparse kernel path actually ran.
  const CliRun sparse =
      RunCli({"cluster", table_flag.c_str(), "--tile-rows=8", "--tile-cols=8",
              "--k=4", "--sketch-k=64", "--p=1", "--sparsity=0.1",
              "--audit-rate=1", json_flag.c_str()});
  ASSERT_EQ(sparse.code, 0) << sparse.err;
  const std::string sparse_json = ReadWholeFile(json_path);
  const double sparse_samples = MetricValue(sparse_json, "audit.samples.p1");
  ASSERT_GT(sparse_samples, 0.0) << sparse_json;
  EXPECT_LE(MetricValue(sparse_json, "audit.violations.p1"),
            0.15 * sparse_samples);
  // Absent counters read -1: count them as 0.
  const auto count = [&](const char* key) {
    return std::max(0.0, MetricValue(sparse_json, key));
  };
  EXPECT_GT(count("sparse.sketch_of.calls") +
                count("sparse.pool.direct_kernels") +
                count("sparse.pool.fft_kernels"),
            0.0);

  std::remove(table_path.c_str());
  std::remove(json_path.c_str());
}

}  // namespace
}  // namespace tabsketch::cli
