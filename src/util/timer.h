#ifndef TABSKETCH_UTIL_TIMER_H_
#define TABSKETCH_UTIL_TIMER_H_

#include <chrono>

namespace tabsketch::util {

/// Monotonic wall-clock stopwatch used by the benchmark harness.
class WallTimer {
 public:
  WallTimer() : start_(Clock::now()) {}

  /// Seconds elapsed since construction.
  double ElapsedSeconds() const {
    return std::chrono::duration<double>(Clock::now() - start_).count();
  }

 private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point start_;
};

}  // namespace tabsketch::util

#endif  // TABSKETCH_UTIL_TIMER_H_
