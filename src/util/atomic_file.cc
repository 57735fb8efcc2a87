#include "util/atomic_file.h"

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace tabsketch::util {

Status WriteFileAtomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write) {
  const std::string tmp_path = path + ".tmp";
  std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot open for writing: " + tmp_path);
  }
  write(out);
  out.close();
  if (!out) {
    std::remove(tmp_path.c_str());
    return Status::IOError("write failed: " + tmp_path);
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::remove(tmp_path.c_str());
    return Status::IOError("cannot rename " + tmp_path + " to " + path +
                           ": " + ec.message());
  }
  return Status::OK();
}

}  // namespace tabsketch::util
