#ifndef TABSKETCH_UTIL_TRACE_H_
#define TABSKETCH_UTIL_TRACE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "util/metrics.h"
#include "util/trace_recorder.h"

namespace tabsketch::util {

/// RAII wall-time span with two independent sinks sharing one gate word:
///  - metrics: elapsed seconds observed into the histogram
///    "span.<name>.seconds" (when MetricsRegistry::Enabled());
///  - flight recorder: a complete ('X') event emitted into
///    TraceRecorder::Global() (when MetricsRegistry::TraceActive()).
///
/// When both sinks are off at construction time, the constructor is a single
/// relaxed load of the combined gate plus a branch, with no clock read, and
/// the destructor two inline null checks — cheap enough to leave in hot
/// paths unconditionally. The name must be a string literal: the span keeps
/// its pointer, and the recorder copies it into its ring at Stop().
class ScopedSpan {
 public:
  template <size_t N>
  explicit ScopedSpan(const char (&name)[N]) {
    const uint32_t bits = MetricsRegistry::ObservabilityBits();
    if (bits == 0) return;
    Open(name, bits);
  }
  ~ScopedSpan() {
    if (seconds_ != nullptr || trace_name_ != nullptr) Stop();
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Records the span now (idempotent). Returns the elapsed seconds recorded,
  /// or 0.0 when the span was disabled or already stopped.
  double Stop();

 private:
  /// Slow path: resolves the active sinks and snapshots the clock(s).
  void Open(const char* name, uint32_t bits);

  Histogram* seconds_ = nullptr;
  /// Set by Open(): a disabled span never reads the clock.
  std::chrono::steady_clock::time_point start_;
  /// The literal name while the span feeds the flight recorder, else null.
  const char* trace_name_ = nullptr;
  uint64_t trace_start_ns_ = 0;
};

}  // namespace tabsketch::util

/// Statement macro: times the enclosing scope into "span.<name>.seconds" of
/// the global registry and/or the global flight recorder. `name` must be a
/// string literal; no std::string is built while both sinks are disabled.
#define TABSKETCH_TRACE_CONCAT_INNER_(a, b) a##b
#define TABSKETCH_TRACE_CONCAT_(a, b) TABSKETCH_TRACE_CONCAT_INNER_(a, b)
#define TABSKETCH_TRACE_SPAN(name)                                     \
  ::tabsketch::util::ScopedSpan TABSKETCH_TRACE_CONCAT_(               \
      _tabsketch_span_, __LINE__)(name)
/// Expression macro: drops a thread-scoped instant event carrying `value`
/// into the global flight recorder (e.g. per-iteration reassignment counts).
/// Cost when tracing is off: one relaxed load. `name` must be a string
/// constant.
#define TABSKETCH_TRACE_INSTANT(name, value)                           \
  do {                                                                 \
    if (::tabsketch::util::MetricsRegistry::TraceActive()) {           \
      ::tabsketch::util::TraceRecorder::Global().RecordInstant(        \
          name, /*has_value=*/true, static_cast<double>(value));       \
    }                                                                  \
  } while (false)

#endif  // TABSKETCH_UTIL_TRACE_H_
