#include "util/trace.h"

#include <string>

namespace tabsketch::util {

void ScopedSpan::Open(const char* name, uint32_t bits) {
  if ((bits & MetricsRegistry::kMetricsBit) != 0) {
    seconds_ = MetricsRegistry::Global().GetHistogram(
        "span." + std::string(name) + ".seconds");
  }
  if ((bits & MetricsRegistry::kTraceBit) != 0) {
    trace_name_ = name;
    trace_start_ns_ = TraceRecorder::Global().NowNs();
  }
  start_ = std::chrono::steady_clock::now();
}

double ScopedSpan::Stop() {
  if (seconds_ == nullptr && trace_name_ == nullptr) return 0.0;
  const double elapsed = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - start_)
                             .count();
  if (trace_name_ != nullptr) {
    TraceRecorder::Global().RecordComplete(
        trace_name_, trace_start_ns_, static_cast<uint64_t>(elapsed * 1e9));
    trace_name_ = nullptr;
  }
  if (seconds_ != nullptr) {
    seconds_->Observe(elapsed);
    seconds_ = nullptr;
  }
  return elapsed;
}

}  // namespace tabsketch::util
