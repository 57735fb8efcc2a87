#include "core/pool_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>
#include <vector>

#include "table/matrix.h"
#include "util/atomic_file.h"

namespace tabsketch::core {
namespace {

constexpr char kMagic[4] = {'T', 'S', 'K', 'P'};
constexpr uint32_t kVersion = 2;

struct Header {
  char magic[4];
  uint32_t version;
  double p;
  uint64_t k;
  uint64_t seed;
  uint64_t data_rows;
  uint64_t data_cols;
  uint64_t num_fields;
  // v2 appends the family sparsity (FORMATS.md); v1 files end at
  // `num_fields` and imply a dense family (sparsity 1.0).
  double sparsity;
};
constexpr size_t kHeaderBytesV1 = sizeof(Header) - sizeof(double);
static_assert(sizeof(Header) == 64, "TSKP v2 header must be padding-free");

struct FieldHeader {
  uint64_t window_rows;
  uint64_t window_cols;
  uint64_t position_rows;
  uint64_t position_cols;
};

}  // namespace

util::Status WriteSketchPool(const SketchPool& pool,
                             const std::string& path) {
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.p = pool.params().p;
  header.k = pool.params().k;
  header.seed = pool.params().seed;
  header.data_rows = pool.data_rows();
  header.data_cols = pool.data_cols();
  header.num_fields = pool.fields().size();
  header.sparsity = pool.params().sparsity;
  return util::WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    for (const auto& [size, field] : pool.fields()) {
      FieldHeader field_header;
      field_header.window_rows = size.first;
      field_header.window_cols = size.second;
      field_header.position_rows = field.position_rows();
      field_header.position_cols = field.position_cols();
      out.write(reinterpret_cast<const char*>(&field_header),
                sizeof(field_header));
      for (size_t i = 0; i < field.k(); ++i) {
        auto values = field.plane(i).Values();
        out.write(reinterpret_cast<const char*>(values.data()),
                  static_cast<std::streamsize>(values.size() *
                                               sizeof(double)));
      }
    }
  });
}

util::Result<SketchPool> ReadSketchPool(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open for reading: " + path);
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), kHeaderBytesV1);
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::IOError("not a tabsketch pool: " + path);
  }
  if (header.version != 1 && header.version != kVersion) {
    std::ostringstream msg;
    msg << "unsupported pool version " << header.version << " in " << path;
    return util::Status::IOError(msg.str());
  }
  header.sparsity = 1.0;
  if (header.version >= 2) {
    in.read(reinterpret_cast<char*>(&header.sparsity),
            sizeof(header.sparsity));
    if (!in) {
      return util::Status::IOError("truncated pool file: " + path);
    }
  }
  const size_t header_bytes =
      header.version >= 2 ? sizeof(header) : kHeaderBytesV1;
  SketchParams params{.p = header.p,
                      .k = header.k,
                      .seed = header.seed,
                      .sparsity = header.sparsity};
  TABSKETCH_RETURN_IF_ERROR(params.Validate());

  // Total file size, for overflow-safe allocation guards against corrupted
  // field headers.
  in.seekg(0, std::ios::end);
  const uint64_t file_bytes = static_cast<uint64_t>(in.tellg());
  in.seekg(static_cast<std::streamoff>(header_bytes), std::ios::beg);

  std::map<std::pair<size_t, size_t>, SketchField> fields;
  for (uint64_t f = 0; f < header.num_fields; ++f) {
    FieldHeader field_header;
    in.read(reinterpret_cast<char*>(&field_header), sizeof(field_header));
    if (!in) {
      return util::Status::IOError("truncated pool file: " + path);
    }
    const uint64_t max_positions = file_bytes / sizeof(double);
    if (field_header.position_rows == 0 || field_header.position_cols == 0 ||
        field_header.position_rows >
            max_positions / field_header.position_cols) {
      return util::Status::IOError("corrupt pool field header in " + path);
    }
    // Window dims must be sane too: non-zero, within the table, and
    // consistent with the declared position counts (all-positions fields
    // always span data - window + 1 positions per axis). A corrupt header
    // must not reach SketchField construction.
    if (field_header.window_rows == 0 || field_header.window_cols == 0 ||
        field_header.window_rows > header.data_rows ||
        field_header.window_cols > header.data_cols ||
        field_header.position_rows !=
            header.data_rows - field_header.window_rows + 1 ||
        field_header.position_cols !=
            header.data_cols - field_header.window_cols + 1) {
      return util::Status::IOError("corrupt pool field header in " + path);
    }
    // The header's k planes of this field must fit in the file before any of
    // them is allocated (overflow-safe: the plane size is already bounded by
    // max_positions above).
    if (params.k > max_positions / (field_header.position_rows *
                                    field_header.position_cols)) {
      return util::Status::IOError("corrupt pool header in " + path);
    }
    std::vector<table::Matrix> planes;
    planes.reserve(params.k);
    for (uint64_t i = 0; i < params.k; ++i) {
      std::vector<double> values(field_header.position_rows *
                                 field_header.position_cols);
      in.read(reinterpret_cast<char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(double)));
      if (!in) {
        return util::Status::IOError("truncated pool file: " + path);
      }
      planes.emplace_back(field_header.position_rows,
                          field_header.position_cols, std::move(values));
    }
    fields.emplace(
        std::make_pair(field_header.window_rows, field_header.window_cols),
        SketchField(field_header.window_rows, field_header.window_cols,
                    std::move(planes)));
  }
  return SketchPool::FromParts(params, header.data_rows, header.data_cols,
                               std::move(fields));
}

}  // namespace tabsketch::core
