#ifndef TABSKETCH_UTIL_ATOMIC_FILE_H_
#define TABSKETCH_UTIL_ATOMIC_FILE_H_

#include <functional>
#include <ostream>
#include <string>

#include "util/status.h"

namespace tabsketch::util {

/// Writes a file atomically: `write` streams the bytes into a sibling
/// `path + ".tmp"`, which is renamed onto `path` only when every write and
/// the final close succeeded. A crash or a failed write (disk full, file
/// size limit) therefore never leaves a truncated file at `path`: readers
/// see either the previous complete file or the new complete one, and a
/// failed temp file is removed. Every on-disk writer routes through here:
/// tables, sketch sets, pools, the --metrics-json file (at exit and on every
/// tick of the serve daemon's ticker), the --trace-json trace, --port-file,
/// and the `cluster --out` and `query --out` files.
Status WriteFileAtomic(const std::string& path,
                       const std::function<void(std::ostream&)>& write);

}  // namespace tabsketch::util

#endif  // TABSKETCH_UTIL_ATOMIC_FILE_H_
