// Tests of the benchmark's own machinery: the percentile helper, open-loop
// timing under a stalled server, and the byte-for-byte output check.

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "loadgen.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {
namespace {

TEST(PercentileTest, MatchesHandComputedValues) {
  // Sorted: 1 2 3 4 5 6 7 8 9 10. Position q*(n-1).
  const std::vector<double> v = {7, 1, 10, 3, 5, 2, 9, 4, 8, 6};
  EXPECT_DOUBLE_EQ(Percentile(v, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 1.0), 10.0);
  EXPECT_DOUBLE_EQ(Percentile(v, 0.5), 5.5);    // 4.5 -> 5 + 0.5
  EXPECT_DOUBLE_EQ(Percentile(v, 0.25), 3.25);  // 2.25 -> 3 + 0.25
  EXPECT_DOUBLE_EQ(Percentile(v, 0.9), 9.1);    // 8.1 -> 9 + 0.1
  EXPECT_DOUBLE_EQ(Percentile(v, 0.99), 9.91);  // 8.91 -> 9 + 0.91
  EXPECT_DOUBLE_EQ(Median({4.0, 1.0, 3.0}), 3.0);
  EXPECT_DOUBLE_EQ(Percentile({42.0}, 0.99), 42.0);
  EXPECT_DOUBLE_EQ(Percentile({}, 0.5), 0.0);
}

TEST(OutputCheckTest, CorruptedAnswerByteFailsTheCheck) {
  const std::vector<std::string> expected = {
      "knn 3 2 = 5:1.25 9:2.5", "distance 1 2 = 0.73205080756887719"};
  std::vector<std::string> actual = expected;
  EXPECT_EQ(FirstMismatch(expected, actual), -1);
  actual[1][actual[1].size() - 3] ^= 0x01;  // flip one bit of one byte
  EXPECT_EQ(FirstMismatch(expected, actual), 1);
  actual = expected;
  actual.pop_back();
  EXPECT_EQ(FirstMismatch(expected, actual), 1);
}

TEST(SpanLogTest, AttributionIsTheShareChildrenCover) {
  SpanLog log(true);
  {
    ScopedSpan stage(&log, "stage");
    {
      ScopedSpan layer(&log, "layer", stage.id());
      {
        // The grandchild is part of the layer's time, not extra.
        ScopedSpan inner(&log, "inner", layer.id());
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
  }
  EXPECT_GT(log.TotalSeconds("stage"), 0.059);
  EXPECT_GT(log.TotalSeconds("layer"), 0.029);
  // The layer (with the grandchild inside it) covers ~30 of the stage's
  // ~60 ms; the stage's own ~30 ms is unattributed.
  const double fraction = log.AttributedFraction("stage");
  EXPECT_GT(fraction, 0.4);
  EXPECT_LT(fraction, 0.6);
  EXPECT_GT(log.AttributedFraction("layer"), 0.5);
  SpanLog off(false);
  { ScopedSpan ignored(&off, "stage"); }
  EXPECT_EQ(off.TotalSeconds("stage"), 0.0);
}

/// Line server on an ephemeral loopback port: answers "ok <line>" to every
/// line, but sleeps `stall_ms` before answering line number `stall_at`.
class StallingServer {
 public:
  StallingServer(size_t stall_at, int stall_ms)
      : stall_at_(stall_at), stall_ms_(stall_ms) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    ::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
    ::listen(listen_fd_, 4);
    socklen_t len = sizeof(addr);
    ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
    port_ = ntohs(addr.sin_port);
    thread_ = std::thread([this] { Serve(); });
  }
  ~StallingServer() {
    thread_.join();
    ::close(listen_fd_);
  }
  StallingServer(const StallingServer&) = delete;
  StallingServer& operator=(const StallingServer&) = delete;

  uint16_t port() const { return port_; }

 private:
  void Serve() {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::string buffer;
    size_t lines = 0;
    char chunk[4096];
    ssize_t n;
    while ((n = ::recv(fd, chunk, sizeof(chunk), 0)) > 0) {
      buffer.append(chunk, static_cast<size_t>(n));
      size_t newline;
      while ((newline = buffer.find('\n')) != std::string::npos) {
        const std::string line = buffer.substr(0, newline);
        buffer.erase(0, newline + 1);
        if (++lines == stall_at_) {
          std::this_thread::sleep_for(std::chrono::milliseconds(stall_ms_));
        }
        const std::string reply = "ok " + line + "\n";
        ::send(fd, reply.data(), reply.size(), MSG_NOSIGNAL);
      }
    }
    ::close(fd);
  }

  size_t stall_at_;
  int stall_ms_;
  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::thread thread_;
};

TEST(OpenLoopTest, StallShowsInLatencyOfLaterRequests) {
  StallingServer server(/*stall_at=*/100, /*stall_ms=*/200);
  // 1000 requests/s for 0.6 s: request 99 is due at 99 ms and stalls the
  // server until ~300 ms, so every request due in between waits for it.
  const LoadResult result =
      RunOpenLoop(server.port(), 1, 1000.0, 0.6, {"ping"}, 2.0);
  ASSERT_EQ(result.failed, 0u);
  ASSERT_EQ(result.samples.size(), 600u);
  size_t delayed = 0;
  double due_after_stall_latency = 0.0;
  for (const Sample& sample : result.samples) {
    if (sample.latency_ms > 50.0) ++delayed;
    if (sample.request == 150) due_after_stall_latency = sample.latency_ms;
  }
  // Requests due 100..250 ms all wait behind the stall; a closed loop would
  // have charged the stall to a single request.
  EXPECT_GE(delayed, 100u);
  EXPECT_GT(due_after_stall_latency, 100.0);
  EXPECT_GT(Percentile(result.Latencies(), 0.99), 150.0);
  EXPECT_LT(Percentile(result.Latencies(), 0.5), 50.0);
}

TEST(ClosedLoopTest, StallIsChargedToOneRequest) {
  StallingServer server(/*stall_at=*/10, /*stall_ms=*/200);
  std::vector<std::string> requests(50, "ping");
  const LoadResult result = RunClosedLoop(server.port(), 1, requests, 5.0);
  ASSERT_EQ(result.samples.size(), 50u);
  size_t delayed = 0;
  for (const Sample& sample : result.samples) {
    if (sample.latency_ms > 50.0) ++delayed;
  }
  EXPECT_EQ(delayed, 1u);
}

}  // namespace
}  // namespace perfbench
