#ifndef TABSKETCH_TABLE_TABLE_IO_H_
#define TABSKETCH_TABLE_TABLE_IO_H_

#include <string>

#include "table/matrix.h"
#include "util/result.h"
#include "util/status.h"

namespace tabsketch::table {

/// Binary table format: a small fixed header (magic "TSKT", version,
/// dimensions) followed by row-major little-endian doubles. This stands in
/// for the proprietary flat-file stores the paper's tables live in.
///
/// Writes `matrix` to `path`, replacing any existing file atomically
/// (util::WriteFileAtomic): a failed write leaves the previous file intact.
util::Status WriteBinary(const Matrix& matrix, const std::string& path);

/// Reads a matrix previously written by WriteBinary.
util::Result<Matrix> ReadBinary(const std::string& path);

}  // namespace tabsketch::table

#endif  // TABSKETCH_TABLE_TABLE_IO_H_
