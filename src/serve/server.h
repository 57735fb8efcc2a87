#ifndef TABSKETCH_SERVE_SERVER_H_
#define TABSKETCH_SERVE_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "serve/stats.h"
#include "util/result.h"

namespace tabsketch::util {
class MetricsTicker;
}  // namespace tabsketch::util

namespace tabsketch::serve {

class StreamingIngest;

/// Bounded-concurrency gate in front of the query engine: at most
/// `max_inflight` requests execute at once, at most `max_queue` more wait
/// for a slot, everything beyond that is shed immediately. Waiters honor a
/// per-request deadline, and Close() turns every current and future Enter()
/// into kClosed so shutdown never strands a waiter.
class AdmissionController {
 public:
  enum class Admission {
    /// A slot was granted; the caller must balance with Leave().
    kAdmitted,
    /// The waiting queue was full; the request was shed without waiting.
    kShed,
    /// The deadline passed before a slot freed up.
    kDeadlineExpired,
    /// The controller is closed (server shutting down).
    kClosed,
  };

  AdmissionController(size_t max_inflight, size_t max_queue);

  /// Tries to take an execution slot, waiting (bounded by `deadline`, when
  /// set) in the admission queue if none is free. Only kAdmitted grants a
  /// slot.
  Admission Enter(
      std::optional<std::chrono::steady_clock::time_point> deadline);

  /// Releases a slot taken by a successful Enter().
  void Leave();

  /// Rejects all current and future Enter() calls with kClosed.
  void Close();

  /// Requests currently waiting for a slot (the serve.queue.depth gauge).
  size_t queue_depth() const;

 private:
  const size_t max_inflight_;
  const size_t max_queue_;
  mutable std::mutex mutex_;
  std::condition_variable slot_free_;
  size_t inflight_ = 0;
  size_t waiting_ = 0;
  bool closed_ = false;
};

/// Longest request line a connection may send, excluding the '\n': 16x
/// PATH_MAX, room for the longest valid `append` or `reload` path. A client
/// that sends more without a newline gets one `error invalid-argument` line
/// and is disconnected, so no connection grows the daemon's memory without
/// bound.
inline constexpr size_t kMaxLineBytes = 64 * 1024;

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 binds an ephemeral port (read it back from
  /// Server::port()).
  uint16_t port = 0;
  /// Concurrent executing requests; 0 = util::DefaultThreadCount().
  size_t max_inflight = 0;
  /// Requests allowed to wait for an execution slot before load-shedding.
  size_t max_queue = 64;
  /// Per-request admission deadline in milliseconds; 0 disables. The
  /// deadline bounds time spent waiting for an execution slot, not
  /// execution itself.
  uint32_t deadline_ms = 0;
  /// Streaming-ingest driver behind the `append` / `retire` / `window`
  /// verbs; null (the default) answers them with a failed-precondition
  /// error. Must outlive the server. Successor snapshots it builds are
  /// published through the same SnapshotHolder the server reads, so when it
  /// is set `reload` answers failed-precondition instead.
  StreamingIngest* ingest = nullptr;
  /// Rolling-snapshot ticker (util/metrics_snapshot.h) backing the `stats`
  /// verb's last-window rates; owned by the caller, must outlive the
  /// server. Null degrades `stats json` to cumulative-only (every window_*
  /// key reads 0).
  util::MetricsTicker* ticker = nullptr;
  /// Slow-query threshold in milliseconds; requests whose handle time
  /// exceeds it are recorded in the slow log (`stats slow`). 0 disables.
  double slow_ms = 0.0;
  /// When non-empty, slow-log entries are also appended here as JSONL.
  std::string slow_log_path;
  /// Test-only hook, called for query requests after admission and after
  /// the request captured its snapshot, before the engine runs. Lets tests
  /// park a request mid-flight (deadline expiry, swap-mid-batch, drain
  /// determinism). Leave unset in production.
  std::function<void(const QueryRequest&)> pre_request_hook;
};

/// The `tabsketch serve` daemon core: a loopback TCP listener speaking a
/// line protocol over the batch grammar (see docs/FORMATS.md, "Serve wire
/// protocol"). Each connection gets a handler thread, joined as later
/// connections arrive once it has finished; each request line is
/// admitted through an AdmissionController, answered by the QueryEngine of
/// the SnapshotHolder's current snapshot, and the `reload` verb swaps in a
/// new sketch-set snapshot RCU-style without disturbing in-flight requests.
///
/// Lifecycle: Start() binds/listens and returns a running server; Shutdown()
/// (idempotent, also run by the destructor) stops accepting, closes the
/// admission gate, half-closes every connection's read side and joins all
/// handler threads — in-flight requests finish and their responses are
/// delivered before the sockets close (graceful drain).
class Server {
 public:
  /// Binds 127.0.0.1:options.port, starts the accept loop. `snapshots` must
  /// outlive the server and hold a non-null snapshot.
  static util::Result<std::unique_ptr<Server>> Start(
      SnapshotHolder* snapshots, const ServerOptions& options);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves an ephemeral options.port = 0).
  uint16_t port() const { return port_; }

  /// Drains and stops the server. Safe to call repeatedly/concurrently with
  /// itself; blocks until every connection thread has exited.
  void Shutdown();

  /// Connections accepted so far.
  size_t connections_accepted() const;

  /// The slow-query ring (the `stats slow` verb reads the same object).
  const SlowQueryLog& slow_log() const { return slow_log_; }

 private:
  Server(SnapshotHolder* snapshots, const ServerOptions& options,
         int listen_fd, int wake_read_fd, int wake_write_fd, uint16_t port);

  void AcceptLoop();
  void HandleConnection(int fd);
  /// Answers one request line; nullopt for blank/comment lines. Sets
  /// `*close_connection` for `quit`.
  std::optional<std::string> ProcessLine(const std::string& line,
                                         bool* close_connection);
  std::string ProcessQuery(const QueryRequest& request, size_t line_bytes);
  std::string ProcessReload(const std::string& path);
  std::string ProcessAppend(const std::string& path);
  std::string ProcessRetire(const std::string& count_token);
  std::string ProcessWindow();
  /// The introspection verbs. Deliberately outside admission control: they
  /// must answer while the query path is saturated or wedged, and they
  /// never touch snapshot data — only metrics, the slow ring and O(1)
  /// server state.
  std::string ProcessStats(const std::vector<std::string>& tokens);
  std::string ProcessHealth();
  StatsInfo BuildStatsInfo();

  SnapshotHolder* snapshots_;
  ServerOptions options_;
  AdmissionController admission_;
  SlowQueryLog slow_log_;
  int listen_fd_;
  int wake_read_fd_;
  int wake_write_fd_;
  uint16_t port_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();
  std::atomic<uint64_t> next_request_id_{0};

  std::thread accept_thread_;
  std::mutex conn_mutex_;
  std::unordered_set<int> conn_fds_;
  /// Handler threads not yet joined. A handler lists its own id in
  /// finished_conns_ as it exits, and the accept loop joins the listed ones
  /// at its next connection; Shutdown joins the rest.
  std::unordered_map<std::thread::id, std::thread> conn_threads_;
  std::vector<std::thread::id> finished_conns_;  // guarded by conn_mutex_
  bool shutting_down_ = false;  // guarded by conn_mutex_
  std::atomic<size_t> accepted_{0};
  std::once_flag shutdown_once_;
};

}  // namespace tabsketch::serve

#endif  // TABSKETCH_SERVE_SERVER_H_
