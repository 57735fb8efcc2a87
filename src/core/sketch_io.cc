#include "core/sketch_io.h"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <sstream>

#include "util/atomic_file.h"

namespace tabsketch::core {
namespace {

constexpr char kMagic[4] = {'T', 'S', 'K', 'S'};
constexpr uint32_t kVersion = 2;

struct Header {
  char magic[4];
  uint32_t version;
  double p;
  uint64_t k;
  uint64_t seed;
  uint64_t object_rows;
  uint64_t object_cols;
  uint64_t count;
  // v2 appends the family sparsity (FORMATS.md); v1 files end at `count`
  // and imply a dense family (sparsity 1.0).
  double sparsity;
};
constexpr size_t kHeaderBytesV1 = sizeof(Header) - sizeof(double);
static_assert(sizeof(Header) == 64, "TSKS v2 header must be padding-free");

}  // namespace

util::Status WriteSketchSet(const SketchSet& set, const std::string& path) {
  TABSKETCH_RETURN_IF_ERROR(set.params.Validate());
  for (const Sketch& sketch : set.sketches) {
    if (sketch.size() != set.params.k) {
      return util::Status::InvalidArgument(
          "sketch length disagrees with params.k");
    }
  }
  Header header;
  std::memcpy(header.magic, kMagic, sizeof(kMagic));
  header.version = kVersion;
  header.p = set.params.p;
  header.k = set.params.k;
  header.seed = set.params.seed;
  header.object_rows = set.object_rows;
  header.object_cols = set.object_cols;
  header.count = set.sketches.size();
  header.sparsity = set.params.sparsity;
  return util::WriteFileAtomic(path, [&](std::ostream& out) {
    out.write(reinterpret_cast<const char*>(&header), sizeof(header));
    for (const Sketch& sketch : set.sketches) {
      out.write(reinterpret_cast<const char*>(sketch.values.data()),
                static_cast<std::streamsize>(sketch.size() * sizeof(double)));
    }
  });
}

util::Result<SketchSet> ReadSketchSet(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return util::Status::IOError("cannot open for reading: " + path);
  }
  Header header;
  in.read(reinterpret_cast<char*>(&header), kHeaderBytesV1);
  if (!in || std::memcmp(header.magic, kMagic, sizeof(kMagic)) != 0) {
    return util::Status::IOError("not a tabsketch sketch set: " + path);
  }
  if (header.version != 1 && header.version != kVersion) {
    std::ostringstream msg;
    msg << "unsupported sketch-set version " << header.version << " in "
        << path;
    return util::Status::IOError(msg.str());
  }
  header.sparsity = 1.0;
  if (header.version >= 2) {
    in.read(reinterpret_cast<char*>(&header.sparsity),
            sizeof(header.sparsity));
    if (!in) {
      return util::Status::IOError("truncated sketch set: " + path);
    }
  }
  const size_t header_bytes =
      header.version >= 2 ? sizeof(header) : kHeaderBytesV1;
  SketchSet set;
  set.params.p = header.p;
  set.params.k = header.k;
  set.params.seed = header.seed;
  set.params.sparsity = header.sparsity;
  TABSKETCH_RETURN_IF_ERROR(set.params.Validate());
  set.object_rows = header.object_rows;
  set.object_cols = header.object_cols;
  // Guard against corrupted counts before allocating: the payload must be
  // exactly count sketches of k doubles (overflow-safe check).
  in.seekg(0, std::ios::end);
  const uint64_t payload_bytes =
      static_cast<uint64_t>(in.tellg()) - header_bytes;
  in.seekg(static_cast<std::streamoff>(header_bytes), std::ios::beg);
  const uint64_t max_doubles = payload_bytes / sizeof(double);
  if (header.count != 0 && header.k > max_doubles / header.count) {
    return util::Status::IOError("corrupt sketch-set header in " + path);
  }
  if (header.count * header.k * sizeof(double) != payload_bytes) {
    return util::Status::IOError("corrupt sketch-set header in " + path);
  }
  set.sketches.resize(header.count);
  for (Sketch& sketch : set.sketches) {
    sketch.values.resize(header.k);
    in.read(reinterpret_cast<char*>(sketch.values.data()),
            static_cast<std::streamsize>(header.k * sizeof(double)));
  }
  if (!in) {
    return util::Status::IOError("truncated sketch set: " + path);
  }
  return set;
}

}  // namespace tabsketch::core
