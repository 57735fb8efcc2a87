#include "table/table_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

#include "util/atomic_file.h"

namespace tabsketch::table {
namespace {

constexpr char kMagic[4] = {'T', 'S', 'K', 'T'};
constexpr uint32_t kVersion = 1;

struct Header {
  char magic[4];
  uint32_t version;
  uint64_t rows;
  uint64_t cols;
};

}  // namespace

util::Status WriteBinary(const Matrix& matrix, const std::string& path) {
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.rows = matrix.rows();
  header.cols = matrix.cols();
  return util::WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    auto values = matrix.Values();
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(double)));
  });
}

util::Result<Matrix> ReadBinary(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open for reading: " + path);
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), sizeof(header));
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::IOError("not a tabsketch binary table: " + path);
  }
  if (header.version != kVersion) {
    std::ostringstream msg;
    msg << "unsupported table version " << header.version << " in " << path;
    return util::Status::IOError(msg.str());
  }
  // Guard against corrupted dimensions before allocating: the payload must
  // be exactly rows*cols doubles (overflow-safe check).
  in.seekg(0, std::ios::end);
  const uint64_t payload_bytes =
      static_cast<uint64_t>(in.tellg()) - sizeof(header);
  in.seekg(sizeof(header), std::ios::beg);
  const uint64_t max_count = payload_bytes / sizeof(double);
  if (header.rows != 0 && header.cols > max_count / header.rows) {
    return util::Status::IOError("corrupt table dimensions in " + path);
  }
  const uint64_t count = header.rows * header.cols;
  if (count * sizeof(double) != payload_bytes) {
    return util::Status::IOError("corrupt table dimensions in " + path);
  }
  std::vector<double> values(count);
  in.read(reinterpret_cast<char*>(values.data()),
          static_cast<std::streamsize>(count * sizeof(double)));
  if (!in) {
    return util::Status::IOError("truncated table file: " + path);
  }
  return Matrix(header.rows, header.cols, std::move(values));
}

}  // namespace tabsketch::table
