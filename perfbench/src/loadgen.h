#ifndef PERFBENCH_LOADGEN_H_
#define PERFBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Blocking loopback connection speaking the serve line protocol.
class LineConn {
 public:
  /// Connects to 127.0.0.1:port; null on failure.
  static std::unique_ptr<LineConn> Connect(uint16_t port);
  ~LineConn();
  LineConn(const LineConn&) = delete;
  LineConn& operator=(const LineConn&) = delete;

  bool Send(const std::string& data);
  /// Next response line without its '\n'; false on EOF or error.
  bool ReadLine(std::string* line);
  /// Sends `request` and returns the one-line response ("" on failure).
  std::string Call(const std::string& request);

 private:
  explicit LineConn(int fd) : fd_(fd) {}
  int fd_;
  std::string buffer_;
};

/// One answered request of a load run.
struct Sample {
  size_t request = 0;
  /// Seconds from the start of the run at which the request was due
  /// (closed loop: sent).
  double due_s = 0.0;
  double latency_ms = 0.0;
  std::string answer;
};

struct LoadResult {
  std::vector<Sample> samples;
  /// Requests sent.
  size_t attempted = 0;
  /// Error answers, lost connections and requests still unanswered when
  /// the drain timeout ran out.
  size_t failed = 0;
  /// Open loop only: how late each request left the generator, in ms.
  std::vector<double> lag_ms;
  /// Wall time from the first send to the last answer.
  double seconds = 0.0;

  std::vector<double> Latencies() const;
};

/// Closed loop: `conns` synchronous connections, each sending its next
/// request only after the previous answer arrived. Requests are taken in
/// order from `requests` until it runs out or `seconds` pass. One thread per
/// connection.
LoadResult RunClosedLoop(uint16_t port, size_t conns,
                         const std::vector<std::string>& requests,
                         double seconds);

/// Open loop: request i is due at i / rate seconds after the start and goes
/// out on connection i % conns whether or not earlier answers arrived
/// (pipelined). Latency is timed from the due time, so a stall delays every
/// request scheduled behind it. Requests cycle through `requests`. Sending
/// stops after `seconds`; answers are awaited for up to `drain_s` more.
/// One thread per connection.
LoadResult RunOpenLoop(uint16_t port, size_t conns, double rate,
                       double seconds, const std::vector<std::string>& requests,
                       double drain_s = 2.0);

}  // namespace perfbench

#endif  // PERFBENCH_LOADGEN_H_
