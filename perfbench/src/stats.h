#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// q-quantile (q in [0, 1]) of `values` by linear interpolation between the
/// closest ranks: position q * (n - 1) in the sorted sample (the "type 7"
/// definition numpy and R use by default). 0 for an empty sample.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// Index of the first position where `expected` and `actual` differ
/// byte-for-byte, or -1 when they are identical. A length difference is a
/// mismatch at the shorter length.
long FirstMismatch(const std::vector<std::string>& expected,
                   const std::vector<std::string>& actual);

/// Peak resident set (VmHWM) of this process in MiB, read from
/// /proc/self/status. 0 when unavailable.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
