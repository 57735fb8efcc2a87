#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/pool_io.h"
#include "core/sketch_pool.h"
#include "rng/xoshiro256.h"
#include "table/matrix.h"

namespace tabsketch::core {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

table::Matrix RandomTable(size_t rows, size_t cols, uint64_t seed) {
  rng::Xoshiro256 gen(seed);
  table::Matrix out(rows, cols);
  for (double& value : out.Values()) value = gen.NextDouble() * 10.0;
  return out;
}

SketchPool BuildSmallPool(const table::Matrix& data) {
  PoolOptions options;
  options.log2_min_rows = 2;
  options.log2_min_cols = 2;
  return SketchPool::Build(data, {.p = 1.0, .k = 5, .seed = 31}, options)
      .value();
}

TEST(PoolIoTest, RoundTripAnswersIdenticalQueries) {
  const table::Matrix data = RandomTable(16, 32, 1);
  const SketchPool original = BuildSmallPool(data);
  const std::string path = TempPath("tabsketch_pool.bin");
  ASSERT_TRUE(WriteSketchPool(original, path).ok());
  auto loaded = ReadSketchPool(path);
  ASSERT_TRUE(loaded.ok());

  EXPECT_EQ(loaded->params(), original.params());
  EXPECT_EQ(loaded->data_rows(), original.data_rows());
  EXPECT_EQ(loaded->data_cols(), original.data_cols());
  EXPECT_EQ(loaded->CanonicalSizes(), original.CanonicalSizes());

  // Identical query answers, canonical and compound.
  for (size_t row : {0u, 3u}) {
    for (size_t cols : {4u, 7u, 12u}) {
      auto before = original.Query(row, 1, 5, cols);
      auto after = loaded->Query(row, 1, 5, cols);
      ASSERT_TRUE(before.ok() && after.ok());
      EXPECT_EQ(before->values, after->values)
          << "row=" << row << " cols=" << cols;
    }
  }
  auto canonical_before = original.CanonicalSketchAt(2, 6, 4, 8);
  auto canonical_after = loaded->CanonicalSketchAt(2, 6, 4, 8);
  ASSERT_TRUE(canonical_before.ok() && canonical_after.ok());
  EXPECT_EQ(canonical_before->values, canonical_after->values);
  std::remove(path.c_str());
}

TEST(PoolIoTest, RejectsGarbage) {
  const std::string path = TempPath("tabsketch_pool_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a pool at all";
  }
  EXPECT_FALSE(ReadSketchPool(path).ok());
  std::remove(path.c_str());
}

TEST(PoolIoTest, RejectsTruncation) {
  const table::Matrix data = RandomTable(16, 16, 2);
  const SketchPool pool = BuildSmallPool(data);
  const std::string path = TempPath("tabsketch_pool_trunc.bin");
  ASSERT_TRUE(WriteSketchPool(pool, path).ok());
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  EXPECT_FALSE(ReadSketchPool(path).ok());
  std::remove(path.c_str());
}

TEST(PoolIoTest, MissingFileIsIOError) {
  auto loaded = ReadSketchPool(TempPath("no_such_pool.bin"));
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
}

// ---------------------------------------------------------------------------
// Golden-file tests: tests/golden/pool_v1.pool pins the exact on-disk bytes
// of the pool format. The pool is rebuilt here from the same literal values
// the generator (tests/golden/generate_golden.py) uses — every value is a
// small multiple of 0.5, exactly representable — so a byte mismatch means
// the serialization format itself changed.

std::string GoldenPath(const std::string& name) {
  return std::string(TABSKETCH_TEST_GOLDEN_DIR) + "/" + name;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

double GoldenPlaneValue(size_t field, size_t plane, size_t index) {
  return static_cast<double>(field) * 100.0 +
         static_cast<double>(plane) * 10.0 +
         static_cast<double>(index) * 0.5 - 3.0;
}

SketchPool GoldenPool(double sparsity = 1.0) {
  // Mirrors generate_golden.py: fields (2x2) -> 7x7 positions and
  // (4x4) -> 5x5 positions, k = 2 planes each, over an 8x8 table.
  const struct {
    size_t window_rows, window_cols, position_rows, position_cols;
  } kFields[] = {{2, 2, 7, 7}, {4, 4, 5, 5}};
  std::map<std::pair<size_t, size_t>, SketchField> fields;
  size_t field_index = 0;
  for (const auto& f : kFields) {
    std::vector<table::Matrix> planes;
    for (size_t plane = 0; plane < 2; ++plane) {
      table::Matrix m(f.position_rows, f.position_cols);
      auto values = m.Values();
      for (size_t i = 0; i < values.size(); ++i) {
        values[i] = GoldenPlaneValue(field_index, plane, i);
      }
      planes.push_back(std::move(m));
    }
    fields.emplace(std::make_pair(f.window_rows, f.window_cols),
                   SketchField(f.window_rows, f.window_cols,
                               std::move(planes)));
    ++field_index;
  }
  return SketchPool::FromParts(
             {.p = 1.0, .k = 2, .seed = 31, .sparsity = sparsity}, 8, 8,
             std::move(fields))
      .value();
}

TEST(PoolIoGoldenTest, SerializationIsByteStable) {
  // The writer emits version 2 (64-byte header with the family sparsity);
  // the v2 fixture pins those bytes for a sparsity-0.25 family.
  const std::string golden = ReadFileBytes(GoldenPath("pool_v2.pool"));
  ASSERT_FALSE(golden.empty()) << "missing golden fixture";
  const std::string path = TempPath("tabsketch_pool_golden.bin");
  ASSERT_TRUE(WriteSketchPool(GoldenPool(0.25), path).ok());
  EXPECT_EQ(ReadFileBytes(path), golden)
      << "pool serialization bytes changed; if intentional, bump the format "
         "version and regenerate tests/golden";
  std::remove(path.c_str());
}

TEST(PoolIoGoldenTest, GoldenFileRoundTrips) {
  // The v1 fixture has no sparsity field; reading it must imply a dense
  // family (sparsity 1.0) so pre-v2 archives keep loading byte-identically.
  auto loaded = ReadSketchPool(GoldenPath("pool_v1.pool"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SketchPool expected = GoldenPool();
  EXPECT_EQ(loaded->params(), expected.params());
  EXPECT_EQ(loaded->params().sparsity, 1.0);
  EXPECT_EQ(loaded->data_rows(), expected.data_rows());
  EXPECT_EQ(loaded->data_cols(), expected.data_cols());
  ASSERT_EQ(loaded->fields().size(), expected.fields().size());
  for (const auto& [shape, field] : expected.fields()) {
    const auto it = loaded->fields().find(shape);
    ASSERT_NE(it, loaded->fields().end())
        << "missing field " << shape.first << "x" << shape.second;
    ASSERT_EQ(it->second.k(), field.k());
    for (size_t plane = 0; plane < field.k(); ++plane) {
      const auto got = it->second.plane(plane).Values();
      const auto want = field.plane(plane).Values();
      ASSERT_EQ(got.size(), want.size());
      for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i]) << "plane " << plane << " index " << i;
      }
    }
  }
}

TEST(PoolIoGoldenTest, V2GoldenFileRoundTrips) {
  auto loaded = ReadSketchPool(GoldenPath("pool_v2.pool"));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const SketchPool expected = GoldenPool(0.25);
  EXPECT_EQ(loaded->params(), expected.params());
  EXPECT_EQ(loaded->params().sparsity, 0.25);
  EXPECT_EQ(loaded->CanonicalSizes(), expected.CanonicalSizes());
}

TEST(PoolIoGoldenTest, CorruptedSparsityIsRejected) {
  // Out-of-range sparsity in a v2 header (offset 56, just before the field
  // headers) must fail parameter validation.
  std::string bytes = ReadFileBytes(GoldenPath("pool_v2.pool"));
  ASSERT_FALSE(bytes.empty());
  const double bad = -0.5;
  std::memcpy(bytes.data() + 56, &bad, sizeof(bad));
  const std::string path = TempPath("tabsketch_pool_badsparsity.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = ReadSketchPool(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(PoolIoGoldenTest, TruncatedSparsityFieldIsCleanIOError) {
  // A v2 file cut mid-sparsity (60 of 64 header bytes) must be IOError.
  const std::string bytes = ReadFileBytes(GoldenPath("pool_v2.pool"));
  ASSERT_FALSE(bytes.empty());
  const std::string path = TempPath("tabsketch_pool_shortsparsity.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), 60);
  }
  auto loaded = ReadSketchPool(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(PoolIoGoldenTest, CorruptedMagicIsCleanIOError) {
  std::string bytes = ReadFileBytes(GoldenPath("pool_v1.pool"));
  ASSERT_FALSE(bytes.empty());
  bytes[1] = '?';  // break the magic
  const std::string path = TempPath("tabsketch_pool_badmagic.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  auto loaded = ReadSketchPool(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(PoolIoGoldenTest, TruncatedHeaderIsCleanIOError) {
  const std::string bytes = ReadFileBytes(GoldenPath("pool_v1.pool"));
  ASSERT_FALSE(bytes.empty());
  const std::string path = TempPath("tabsketch_pool_shorthdr.bin");
  // 56-byte pool header, then a 32-byte field header: cut inside both.
  for (const size_t keep : {size_t{0}, size_t{5}, size_t{40}, size_t{70}}) {
    {
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(bytes.data(), static_cast<std::streamsize>(keep));
    }
    auto loaded = ReadSketchPool(path);
    EXPECT_FALSE(loaded.ok()) << "header truncated to " << keep << " bytes";
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  }
  std::remove(path.c_str());
}

// Patches the 8-byte little-endian value at `offset` and writes the result
// to a temp file, for corrupting specific golden header fields in place.
std::string WritePatched(std::string bytes, size_t offset, uint64_t value,
                         const std::string& name) {
  std::memcpy(&bytes[offset], &value, sizeof(value));
  const std::string path = TempPath(name);
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return path;
}

TEST(PoolIoGoldenTest, CorruptedWindowDimsAreCleanIOError) {
  // The 56-byte pool header is followed by the first field header:
  // window_rows @56, window_cols @64, position_rows @72, position_cols @80.
  // The golden pool is 8x8 with a (2,2) -> 7x7 field; corrupt window dims
  // that are zero, larger than the table, or inconsistent with the declared
  // position counts must all be rejected up front, not crash later.
  const std::string bytes = ReadFileBytes(GoldenPath("pool_v1.pool"));
  ASSERT_FALSE(bytes.empty());
  const struct {
    size_t offset;
    uint64_t value;
    const char* what;
  } kCases[] = {
      {56, 0, "zero window_rows"},
      {64, 0, "zero window_cols"},
      {56, 200, "window_rows beyond the table"},
      {64, 9, "window_cols beyond the table"},
      {56, 3, "window_rows inconsistent with position_rows"},
      {64, 1, "window_cols inconsistent with position_cols"},
  };
  for (const auto& test_case : kCases) {
    const std::string path =
        WritePatched(bytes, test_case.offset, test_case.value,
                     "tabsketch_pool_badwindow.bin");
    auto loaded = ReadSketchPool(path);
    EXPECT_FALSE(loaded.ok()) << test_case.what;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError)
        << test_case.what;
    EXPECT_NE(loaded.status().ToString().find("corrupt pool field header"),
              std::string::npos)
        << test_case.what << ": " << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(PoolIoGoldenTest, HeaderKBeyondFileSizeIsCleanIOError) {
  // k sits at offset 16 of both header versions. A k of 2^40 planes cannot
  // fit in a 1.3 KB file; the reader must say so instead of reserving 2^40
  // planes and dying of std::bad_alloc.
  for (const char* name : {"pool_v1.pool", "pool_v2.pool"}) {
    const std::string bytes = ReadFileBytes(GoldenPath(name));
    ASSERT_FALSE(bytes.empty()) << name;
    const std::string path = WritePatched(bytes, 16, uint64_t{1} << 40,
                                          "tabsketch_pool_hugek.bin");
    auto loaded = ReadSketchPool(path);
    ASSERT_FALSE(loaded.ok()) << name;
    EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError) << name;
    EXPECT_NE(loaded.status().ToString().find("corrupt pool header"),
              std::string::npos)
        << name << ": " << loaded.status().ToString();
    std::remove(path.c_str());
  }
}

TEST(PoolIoTest, SuccessfulWriteLeavesNoTempFile) {
  const table::Matrix data = RandomTable(16, 16, 4);
  const SketchPool pool = BuildSmallPool(data);
  const std::string path = TempPath("tabsketch_pool_atomic.bin");
  ASSERT_TRUE(WriteSketchPool(pool, path).ok());
  EXPECT_TRUE(std::filesystem::exists(path));
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"))
      << "temp file must be renamed away";
  std::remove(path.c_str());
}

TEST(PoolIoTest, OverwriteReplacesExistingFileAtomically) {
  // Writing over an existing pool goes through the temp file, so the
  // destination is either the old bytes or the complete new bytes — never a
  // half-written mix. After the second write the file must read back as the
  // second pool.
  const table::Matrix data1 = RandomTable(16, 16, 5);
  const table::Matrix data2 = RandomTable(16, 32, 6);
  const std::string path = TempPath("tabsketch_pool_overwrite.bin");
  ASSERT_TRUE(WriteSketchPool(BuildSmallPool(data1), path).ok());
  ASSERT_TRUE(WriteSketchPool(BuildSmallPool(data2), path).ok());
  auto loaded = ReadSketchPool(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->data_cols(), 32u);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

TEST(PoolIoTest, UnwritablePathFailsWithoutTempResidue) {
  const table::Matrix data = RandomTable(16, 16, 7);
  const SketchPool pool = BuildSmallPool(data);
  const std::string path =
      TempPath("no_such_dir_tabsketch") + "/pool.bin";
  EXPECT_FALSE(WriteSketchPool(pool, path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
}

TEST(PoolFromPartsTest, RejectsEmptyFields) {
  EXPECT_FALSE(SketchPool::FromParts({.p = 1.0, .k = 2, .seed = 1}, 8, 8, {})
                   .ok());
}

TEST(PoolFromPartsTest, RejectsInvalidParams) {
  const table::Matrix data = RandomTable(8, 8, 3);
  const SketchPool pool = BuildSmallPool(data);
  std::map<std::pair<size_t, size_t>, SketchField> fields(
      pool.fields().begin(), pool.fields().end());
  EXPECT_FALSE(SketchPool::FromParts({.p = 0.0, .k = 2, .seed = 1}, 8, 8,
                                     std::move(fields))
                   .ok());
}

}  // namespace
}  // namespace tabsketch::core
