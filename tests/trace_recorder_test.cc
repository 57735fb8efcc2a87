// Tests for the flight recorder: record/export round-trips, ring wraparound
// with drop accounting, multi-thread interleaving, the span/instant macro
// plumbing, and validity of the exported Chrome trace-event JSON.

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "json_checker.h"
#include "util/metrics.h"
#include "util/trace.h"
#include "util/trace_recorder.h"

namespace tabsketch {
namespace {

using ::tabsketch::testing::JsonChecker;
using util::MetricsRegistry;
using util::TraceRecorder;

/// Restores global observability state on scope exit — tests in this binary
/// share the process-wide registry and recorder singletons.
class GlobalObservabilityGuard {
 public:
  GlobalObservabilityGuard() : was_enabled_(MetricsRegistry::Enabled()) {}
  ~GlobalObservabilityGuard() {
    TraceRecorder::Global().Stop();
    MetricsRegistry::SetEnabled(was_enabled_);
    MetricsRegistry::Global().ResetValues();
  }

 private:
  bool was_enabled_;
};

TEST(TraceRecorderTest, EmptyRecordingExportsValidJson) {
  TraceRecorder recorder;
  recorder.Start(16);
  recorder.Stop();
  EXPECT_EQ(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dropped(), 0u);
  std::ostringstream os;
  recorder.WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"schema\": \"tabsketch-trace-v1\""),
            std::string::npos);
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"dropped\": 0"), std::string::npos);
}

TEST(TraceRecorderTest, RecordsCompleteAndInstantEvents) {
  TraceRecorder recorder;
  recorder.Start(16);
  recorder.RecordComplete("alpha", 100, 50);
  recorder.RecordInstant("beta", /*has_value=*/true, 7.0);
  recorder.RecordInstant("gamma");
  recorder.Stop();
  EXPECT_EQ(recorder.recorded(), 3u);

  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_STREQ(events[0].second.name, "alpha");
  EXPECT_EQ(events[0].second.phase, 'X');
  EXPECT_EQ(events[0].second.ts_ns, 100u);
  EXPECT_EQ(events[0].second.dur_ns, 50u);
  EXPECT_EQ(events[1].second.phase, 'i');
  EXPECT_TRUE(events[1].second.has_arg);
  EXPECT_DOUBLE_EQ(events[1].second.arg, 7.0);
  EXPECT_FALSE(events[2].second.has_arg);

  std::ostringstream os;
  recorder.WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"i\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  // ts is emitted in microseconds with ns resolution: 100 ns -> 0.100 us.
  EXPECT_NE(json.find("\"ts\": 0.100"), std::string::npos);
}

TEST(TraceRecorderTest, TruncatesLongNamesWithoutOverflow) {
  TraceRecorder recorder;
  recorder.Start(16);
  const std::string long_name(3 * TraceRecorder::kMaxNameLength, 'x');
  recorder.RecordInstant(long_name.c_str());
  recorder.Stop();
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(std::string(events[0].second.name),
            long_name.substr(0, TraceRecorder::kMaxNameLength));
}

TEST(TraceRecorderTest, StoppedRecorderIgnoresEvents) {
  TraceRecorder recorder;
  recorder.RecordInstant("before-start");
  recorder.Start(16);
  recorder.Stop();
  recorder.RecordInstant("after-stop");
  EXPECT_EQ(recorder.recorded(), 0u);
}

TEST(TraceRecorderTest, EnforcesMinimumCapacity) {
  TraceRecorder recorder;
  recorder.Start(1);
  for (int i = 0; i < 10; ++i) recorder.RecordInstant("e");
  recorder.Stop();
  EXPECT_EQ(recorder.recorded(), TraceRecorder::kMinCapacity);
  EXPECT_EQ(recorder.dropped(), 10 - TraceRecorder::kMinCapacity);
}

TEST(TraceRecorderTest, WraparoundDropsOldestAndCountsThem) {
  GlobalObservabilityGuard guard;
  util::PreregisterCoreMetrics(&MetricsRegistry::Global());
  MetricsRegistry::Global().ResetValues();
  MetricsRegistry::SetEnabled(true);
  TraceRecorder& recorder = TraceRecorder::Global();
  recorder.Start(16);
  for (uint64_t i = 0; i < 50; ++i) recorder.RecordComplete("event", i, 1);
  recorder.Stop();

  EXPECT_EQ(recorder.recorded(), 16u);
  EXPECT_EQ(recorder.dropped(), 34u);
  // Oldest-first retention: only the window [34, 50) of timestamps survives.
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 16u);
  EXPECT_EQ(events.front().second.ts_ns, 34u);
  EXPECT_EQ(events.back().second.ts_ns, 49u);

  // The export is still valid JSON and the loss is stamped in the document.
  std::ostringstream os;
  recorder.WriteChromeJson(os);
  const std::string json = os.str();
  EXPECT_TRUE(JsonChecker::Valid(json)) << json;
  EXPECT_NE(json.find("\"dropped\": 34"), std::string::npos);
  // Stop() mirrored the loss into the metrics counter.
  EXPECT_EQ(MetricsRegistry::Global().GetCounter("trace.dropped")->value(),
            34u);
}

TEST(TraceRecorderTest, ThreadsGetDistinctRingsWithMonotonicTimestamps) {
  TraceRecorder recorder;
  recorder.Start(256);
  constexpr int kThreads = 4;
  constexpr int kEvents = 32;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&recorder] {
      for (int i = 0; i < kEvents; ++i) {
        recorder.RecordComplete("worker", recorder.NowNs(), 1);
      }
    });
  }
  for (auto& worker : workers) worker.join();
  recorder.Stop();

  EXPECT_EQ(recorder.recorded(),
            static_cast<uint64_t>(kThreads) * kEvents);
  EXPECT_EQ(recorder.dropped(), 0u);

  std::map<uint32_t, std::vector<uint64_t>> stamps_by_tid;
  for (const auto& [tid, event] : recorder.Snapshot()) {
    stamps_by_tid[tid].push_back(event.ts_ns);
  }
  ASSERT_EQ(stamps_by_tid.size(), static_cast<size_t>(kThreads));
  for (const auto& [tid, stamps] : stamps_by_tid) {
    EXPECT_EQ(stamps.size(), static_cast<size_t>(kEvents)) << "tid " << tid;
    EXPECT_TRUE(std::is_sorted(stamps.begin(), stamps.end())) << "tid " << tid;
  }

  std::ostringstream os;
  recorder.WriteChromeJson(os);
  EXPECT_TRUE(JsonChecker::Valid(os.str()));
}

TEST(TraceRecorderTest, RestartInvalidatesPreviousRecording) {
  TraceRecorder recorder;
  recorder.Start(16);
  recorder.RecordInstant("first");
  recorder.Start(16);  // new recording: old rings are discarded
  recorder.RecordInstant("second");
  recorder.Stop();
  const auto events = recorder.Snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_STREQ(events[0].second.name, "second");
}

TEST(TraceRecorderTest, SpanMacroFeedsGlobalRecorder) {
  GlobalObservabilityGuard guard;
  MetricsRegistry::SetEnabled(false);  // tracing alone must suffice
  TraceRecorder::Global().Start(64);
  {
    TABSKETCH_TRACE_SPAN("test.span");
  }
  TABSKETCH_TRACE_INSTANT("test.instant", 42);
  TraceRecorder::Global().Stop();

  bool saw_span = false;
  bool saw_instant = false;
  for (const auto& [tid, event] : TraceRecorder::Global().Snapshot()) {
    (void)tid;
    if (std::string(event.name) == "test.span" && event.phase == 'X') {
      saw_span = true;
    }
    if (std::string(event.name) == "test.instant" && event.phase == 'i' &&
        event.has_arg && event.arg == 42.0) {
      saw_instant = true;
    }
  }
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_instant);
}

TEST(TraceRecorderTest, MacrosAreInertWhenNothingIsActive) {
  GlobalObservabilityGuard guard;
  MetricsRegistry::SetEnabled(false);
  // Start+Stop clears any rings left over from earlier tests in this binary
  // and leaves the recorder inactive.
  TraceRecorder::Global().Start(16);
  TraceRecorder::Global().Stop();
  {
    TABSKETCH_TRACE_SPAN("test.inert");
  }
  TABSKETCH_TRACE_INSTANT("test.inert", 1);
  EXPECT_EQ(TraceRecorder::Global().recorded(), 0u);
}

}  // namespace
}  // namespace tabsketch
