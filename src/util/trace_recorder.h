#ifndef TABSKETCH_UTIL_TRACE_RECORDER_H_
#define TABSKETCH_UTIL_TRACE_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace tabsketch::util {

/// Flight recorder: per-thread fixed-capacity ring buffers of timestamped
/// events, exported as Chrome trace-event JSON ("tabsketch-trace-v1") that
/// loads directly in Perfetto / chrome://tracing.
///
/// Design constraints (see DESIGN.md §10):
///  - Recording is wait-free for the owning thread: each thread writes only
///    its own ring (one relaxed index load, one slot write, one release index
///    store). Ring creation — once per thread per recording — takes a mutex.
///  - Memory is bounded up front: `capacity` events per thread, never grown.
///    When a ring wraps, the oldest events are overwritten; the loss is
///    counted (dropped()), mirrored into the "trace.dropped" metrics counter
///    at Stop(), and stamped into the exported JSON — never silent.
///  - Spans are exported as 'X' (complete) events rather than B/E pairs so a
///    wrapped ring can never orphan half of a pair.
///
/// The global instance (Global()) is fed by ScopedSpan /
/// TABSKETCH_TRACE_SPAN / TABSKETCH_TRACE_INSTANT whenever
/// MetricsRegistry::TraceActive() is set; Start()/Stop() on the global
/// instance toggle that bit. Independent instances can be constructed for
/// tests; their Record*() methods work the same but nothing routes macro
/// traffic to them.
///
/// Thread contract: Start() and Stop() must not race with Record*() calls on
/// the same instance — callers start recording before spawning workers and
/// stop after joining them (the CLI and bench flows do exactly this; a late
/// Record*() after Stop() is tolerated and ignored, it just must not overlap
/// the Stop() itself).
class TraceRecorder {
 public:
  /// Hard floor on ring capacity; tiny rings make drop accounting
  /// meaningless.
  static constexpr size_t kMinCapacity = 4;
  /// Default events per thread (64 Ki events ≈ 5 MiB/thread).
  static constexpr size_t kDefaultCapacity = 1u << 16;
  static constexpr size_t kMaxNameLength = 47;

  /// One recorded event. `name` is a truncating copy (kMaxNameLength chars),
  /// so events never own heap memory and ring slots can be overwritten
  /// without destructor traffic.
  struct Event {
    char name[kMaxNameLength + 1];
    char phase;        // 'X' (complete) or 'i' (instant)
    bool has_arg;
    double arg;        // instant-event counter payload when has_arg
    uint64_t ts_ns;    // monotonic, relative to Start()
    uint64_t dur_ns;   // complete events only
  };

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /// The process-wide recorder behind --trace-json and the span macros.
  static TraceRecorder& Global();

  /// Begins a recording: clears all rings from any previous recording, resets
  /// the time origin, and (for the global instance) raises
  /// MetricsRegistry::kTraceBit so span macros start emitting.
  void Start(size_t capacity_per_thread = kDefaultCapacity);

  /// Ends the recording (idempotent). For the global instance this clears the
  /// trace bit and, when metrics are enabled, adds this recording's drop
  /// count to the "trace.dropped" counter so it lands in --metrics-json.
  void Stop();

  bool started() const { return started_.load(std::memory_order_acquire); }

  /// Nanoseconds since Start() on the monotonic clock.
  uint64_t NowNs() const;

  /// Records a completed span: [ts_ns, ts_ns + dur_ns). No-op when stopped.
  void RecordComplete(const char* name, uint64_t ts_ns, uint64_t dur_ns);

  /// Records an instant event at NowNs(), optionally carrying a counter
  /// value. No-op when stopped.
  void RecordInstant(const char* name, bool has_value = false,
                     double value = 0.0);

  /// Events lost to ring wraparound across all threads.
  uint64_t dropped() const;
  /// Events currently retained across all threads.
  uint64_t recorded() const;

  /// Retained events oldest-first per thread, paired with the thread's
  /// 1-based tid (assigned in ring-creation order). Test/export helper; call
  /// only when no thread is concurrently recording.
  std::vector<std::pair<uint32_t, Event>> Snapshot() const;

  /// Writes the "tabsketch-trace-v1" document (docs/FORMATS.md): a Chrome
  /// trace-event JSON object with top-level "schema", "displayTimeUnit",
  /// "dropped" and "traceEvents" keys. Safe to call after Stop().
  void WriteChromeJson(std::ostream& os) const;
  /// WriteChromeJson into `path` through util::WriteFileAtomic: a failed
  /// write is an IOError and leaves any previous file intact.
  Status WriteChromeJsonFile(const std::string& path) const;

 private:
  struct ThreadRing {
    uint32_t tid = 0;
    std::vector<Event> events;
    /// Total events ever written this recording; slot = next % capacity.
    /// Release store pairs with the exporter's acquire read.
    std::atomic<uint64_t> next{0};
  };

  ThreadRing* RingForThisThread();

  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<ThreadRing>> rings_;
  size_t capacity_ = kDefaultCapacity;
  /// Set by Start() from a process-wide counter so threads' cached ring
  /// pointers from any previous recording — on this instance or another one
  /// reusing the same address — are invalidated.
  std::atomic<uint64_t> generation_{0};
  std::atomic<bool> started_{false};
  /// steady_clock time-since-epoch at Start(), in ns (atomic so hot-path
  /// NowNs() reads race-free with a later Start()).
  std::atomic<int64_t> epoch_ns_{0};
};

}  // namespace tabsketch::util

#endif  // TABSKETCH_UTIL_TRACE_RECORDER_H_
