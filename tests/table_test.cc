#include <gtest/gtest.h>
#include <sys/resource.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "table/matrix.h"
#include "table/table_io.h"
#include "table/tiling.h"

namespace tabsketch::table {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(MatrixTest, DefaultIsEmpty) {
  Matrix m;
  EXPECT_EQ(m.rows(), 0u);
  EXPECT_EQ(m.cols(), 0u);
  EXPECT_TRUE(m.empty());
}

TEST(MatrixTest, ZeroInitialized) {
  Matrix m(3, 4);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 4u);
  EXPECT_EQ(m.size(), 12u);
  for (double value : m.Values()) EXPECT_DOUBLE_EQ(value, 0.0);
}

TEST(MatrixTest, FromVectorAndAccess) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(m(0, 0), 1.0);
  EXPECT_DOUBLE_EQ(m(0, 2), 3.0);
  EXPECT_DOUBLE_EQ(m(1, 0), 4.0);
  EXPECT_DOUBLE_EQ(m(1, 2), 6.0);
  m(1, 1) = 55.0;
  EXPECT_DOUBLE_EQ(m.At(1, 1), 55.0);
}

TEST(MatrixTest, RowSpans) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  auto row = m.Row(1);
  ASSERT_EQ(row.size(), 3u);
  EXPECT_DOUBLE_EQ(row[0], 4.0);
  row[0] = -4.0;
  EXPECT_DOUBLE_EQ(m(1, 0), -4.0);
}

TEST(MatrixTest, FillAndEquality) {
  Matrix a(2, 2);
  Matrix b(2, 2);
  a.Fill(7.0);
  EXPECT_FALSE(a == b);
  b.Fill(7.0);
  EXPECT_TRUE(a == b);
}

TEST(MatrixDeathTest, VectorSizeMismatchAborts) {
  EXPECT_DEATH(Matrix(2, 2, {1.0, 2.0, 3.0}), "value count");
}

TEST(TableViewTest, FullView) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  TableView view = m.View();
  EXPECT_EQ(view.rows(), 2u);
  EXPECT_EQ(view.cols(), 3u);
  EXPECT_DOUBLE_EQ(view(1, 2), 6.0);
}

TEST(TableViewTest, WindowSeesParentStorage) {
  Matrix m(4, 4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = static_cast<double>(10 * r + c);
  }
  TableView window = m.Window(1, 2, 2, 2);
  EXPECT_DOUBLE_EQ(window(0, 0), 12.0);
  EXPECT_DOUBLE_EQ(window(0, 1), 13.0);
  EXPECT_DOUBLE_EQ(window(1, 0), 22.0);
  EXPECT_DOUBLE_EQ(window(1, 1), 23.0);
}

TEST(TableViewTest, ToMatrixCopies) {
  Matrix m(3, 3, {0, 1, 2, 3, 4, 5, 6, 7, 8});
  Matrix copy = m.Window(0, 1, 2, 2).ToMatrix();
  EXPECT_EQ(copy, Matrix(2, 2, {1, 2, 4, 5}));
}

TEST(TableViewDeathTest, OutOfBoundsWindowAborts) {
  Matrix m(4, 4);
  EXPECT_DEATH(m.Window(2, 2, 3, 1), "exceeds");
}

TEST(TileGridTest, ExactPartition) {
  Matrix m(8, 12);
  auto grid = TileGrid::Create(&m, 4, 3);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->grid_rows(), 2u);
  EXPECT_EQ(grid->grid_cols(), 4u);
  EXPECT_EQ(grid->num_tiles(), 8u);
  EXPECT_EQ(grid->tile_size(), 12u);
}

TEST(TileGridTest, TrailingRemainderIgnored) {
  Matrix m(10, 10);
  auto grid = TileGrid::Create(&m, 4, 4);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(grid->grid_rows(), 2u);
  EXPECT_EQ(grid->grid_cols(), 2u);
}

TEST(TileGridTest, TileOriginsAndContents) {
  Matrix m(4, 4);
  for (size_t r = 0; r < 4; ++r) {
    for (size_t c = 0; c < 4; ++c) m(r, c) = static_cast<double>(10 * r + c);
  }
  auto grid = TileGrid::Create(&m, 2, 2);
  ASSERT_TRUE(grid.ok());
  ASSERT_EQ(grid->num_tiles(), 4u);
  EXPECT_EQ(grid->TileOriginRow(3), 2u);
  EXPECT_EQ(grid->TileOriginCol(3), 2u);
  TableView tile = grid->Tile(3);
  EXPECT_DOUBLE_EQ(tile(0, 0), 22.0);
  EXPECT_DOUBLE_EQ(tile(1, 1), 33.0);
}

TEST(TileGridTest, RejectsBadTileSizes) {
  Matrix m(4, 4);
  EXPECT_FALSE(TileGrid::Create(&m, 0, 2).ok());
  EXPECT_FALSE(TileGrid::Create(&m, 5, 2).ok());
  EXPECT_FALSE(TileGrid::Create(&m, 2, 5).ok());
}

TEST(TableIoTest, BinaryRoundTrip) {
  Matrix m(3, 5);
  for (size_t i = 0; i < m.Values().size(); ++i) {
    m.Values()[i] = static_cast<double>(i) * 1.5 - 2.0;
  }
  const std::string path = TempPath("tabsketch_io_test.tbl");
  ASSERT_TRUE(WriteBinary(m, path).ok());
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(*loaded == m);
  std::remove(path.c_str());
}

TEST(TableIoTest, BinaryRejectsGarbage) {
  const std::string path = TempPath("tabsketch_io_garbage.tbl");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a table";
  }
  auto loaded = ReadBinary(path);
  EXPECT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), util::StatusCode::kIOError);
  std::remove(path.c_str());
}

TEST(TableIoTest, BinaryMissingFile) {
  auto loaded = ReadBinary(TempPath("no_such_file_xyz.tbl"));
  EXPECT_FALSE(loaded.ok());
}

TEST(TableIoDeathTest, FailedWriteKeepsThePreviousFile) {
  const std::string path = TempPath("tabsketch_io_fsize.tbl");
  Matrix previous(2, 3);
  previous.Fill(7.0);
  ASSERT_TRUE(WriteBinary(previous, path).ok());
  // In a child capped at 4 KiB per file, with the cap's SIGXFSZ ignored so
  // the write fails with EFBIG instead of killing it, writing a 32 KiB table
  // over `path` must report the failure.
  EXPECT_EXIT(
      {
        rlimit cap{};
        cap.rlim_cur = cap.rlim_max = 4096;
        setrlimit(RLIMIT_FSIZE, &cap);
        std::signal(SIGXFSZ, SIG_IGN);
        std::exit(WriteBinary(Matrix(64, 64), path).ok() ? 1 : 0);
      },
      ::testing::ExitedWithCode(0), "");
  // The previous table is intact and no temp file is left behind.
  auto loaded = ReadBinary(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(*loaded == previous);
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tabsketch::table
