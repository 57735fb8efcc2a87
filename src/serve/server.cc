#include "serve/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <charconv>
#include <cstring>
#include <span>
#include <sstream>
#include <utility>

#include "serve/ingest.h"
#include "util/metrics.h"
#include "util/metrics_snapshot.h"
#include "util/parallel.h"
#include "util/status.h"
#include "util/timer.h"

namespace tabsketch::serve {
namespace {

/// Kebab-case wire token for a Status code, the `error <code> <message>`
/// protocol field (docs/FORMATS.md).
const char* ErrorToken(util::StatusCode code) {
  switch (code) {
    case util::StatusCode::kInvalidArgument:
      return "invalid-argument";
    case util::StatusCode::kOutOfRange:
      return "out-of-range";
    case util::StatusCode::kFailedPrecondition:
      return "failed-precondition";
    case util::StatusCode::kNotFound:
      return "not-found";
    case util::StatusCode::kIOError:
      return "io-error";
    default:
      return "internal";
  }
}

/// Status message flattened to one line (the protocol is line-framed).
std::string OneLine(std::string message) {
  for (char& c : message) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return message;
}

std::string ErrorLine(const char* token, const std::string& message) {
  return std::string("error ") + token + " " + OneLine(message);
}

std::string ErrorLine(const util::Status& status) {
  return ErrorLine(ErrorToken(status.code()), status.message());
}

/// Writes all of `data` to `fd`, retrying short writes. MSG_NOSIGNAL turns
/// a peer hang-up into EPIPE instead of killing the process with SIGPIPE.
bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// recv-backed line splitter with std::getline semantics ('\n' framing, the
/// terminator consumed and not returned; trailing '\r' is left for
/// ParseBatchLine to strip). Buffers at most kMaxLineBytes of one line.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// Reads the next line into `*line`. Returns false on EOF / error, or once
  /// a line runs past kMaxLineBytes (too_long() then says so). A final
  /// unterminated chunk before EOF is returned as a line, like getline.
  bool Next(std::string* line) {
    line->clear();
    while (true) {
      const size_t newline = buffer_.find('\n', scanned_);
      if ((newline == std::string::npos ? buffer_.size() : newline) >
          kMaxLineBytes) {
        too_long_ = true;
        return false;
      }
      if (newline != std::string::npos) {
        line->assign(buffer_, 0, newline);
        buffer_.erase(0, newline + 1);
        scanned_ = 0;
        return true;
      }
      scanned_ = buffer_.size();
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      if (n == 0) {
        if (buffer_.empty()) return false;
        line->swap(buffer_);
        scanned_ = 0;
        return true;
      }
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  bool too_long() const { return too_long_; }

 private:
  int fd_;
  std::string buffer_;
  size_t scanned_ = 0;
  bool too_long_ = false;
};

/// RAII +1/-1 on a gauge; a null gauge (metrics disabled) is a no-op.
/// Construction-to-destruction brackets guarantee the inc/dec stays balanced
/// on every exit path — early returns for shed, expired and closed
/// admissions included.
class ScopedGaugeAdd {
 public:
  explicit ScopedGaugeAdd(util::Gauge* gauge) : gauge_(gauge) {
    if (gauge_ != nullptr) gauge_->Add(1.0);
  }
  ~ScopedGaugeAdd() {
    if (gauge_ != nullptr) gauge_->Add(-1.0);
  }
  ScopedGaugeAdd(const ScopedGaugeAdd&) = delete;
  ScopedGaugeAdd& operator=(const ScopedGaugeAdd&) = delete;

 private:
  util::Gauge* gauge_;
};

/// Splits `line` into whitespace tokens after stripping a trailing '\r'.
std::vector<std::string> Tokenize(const std::string& line) {
  std::string copy = line;
  if (!copy.empty() && copy.back() == '\r') copy.pop_back();
  std::istringstream in(copy);
  std::vector<std::string> tokens;
  std::string token;
  while (in >> token) tokens.push_back(std::move(token));
  return tokens;
}

}  // namespace

AdmissionController::AdmissionController(size_t max_inflight,
                                         size_t max_queue)
    : max_inflight_(max_inflight == 0 ? 1 : max_inflight),
      max_queue_(max_queue) {}

AdmissionController::Admission AdmissionController::Enter(
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (closed_) return Admission::kClosed;
  if (inflight_ < max_inflight_) {
    ++inflight_;
    return Admission::kAdmitted;
  }
  if (waiting_ >= max_queue_) return Admission::kShed;
  ++waiting_;
  TABSKETCH_METRIC_GAUGE_SET("serve.queue.depth", waiting_);
  Admission verdict = Admission::kAdmitted;
  while (true) {
    if (closed_) {
      verdict = Admission::kClosed;
      break;
    }
    if (inflight_ < max_inflight_) {
      ++inflight_;
      break;
    }
    if (deadline.has_value()) {
      if (slot_free_.wait_until(lock, *deadline) ==
          std::cv_status::timeout &&
          inflight_ >= max_inflight_ && !closed_) {
        verdict = Admission::kDeadlineExpired;
        break;
      }
    } else {
      slot_free_.wait(lock);
    }
  }
  --waiting_;
  TABSKETCH_METRIC_GAUGE_SET("serve.queue.depth", waiting_);
  return verdict;
}

void AdmissionController::Leave() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    --inflight_;
  }
  slot_free_.notify_one();
}

void AdmissionController::Close() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
  }
  slot_free_.notify_all();
}

size_t AdmissionController::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return waiting_;
}

util::Result<std::unique_ptr<Server>> Server::Start(
    SnapshotHolder* snapshots, const ServerOptions& options) {
  const int listen_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd < 0) {
    return util::Status::IOError(std::string("socket: ") +
                                 std::strerror(errno));
  }
  const int reuse = 1;
  ::setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options.port);
  if (::bind(listen_fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) < 0) {
    const util::Status status = util::Status::IOError(
        std::string("bind 127.0.0.1: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  if (::listen(listen_fd, 64) < 0) {
    const util::Status status =
        util::Status::IOError(std::string("listen: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
    const util::Status status = util::Status::IOError(
        std::string("getsockname: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }

  int wake[2];
  if (::pipe(wake) < 0) {
    const util::Status status =
        util::Status::IOError(std::string("pipe: ") + std::strerror(errno));
    ::close(listen_fd);
    return status;
  }

  ServerOptions resolved = options;
  if (resolved.max_inflight == 0) {
    resolved.max_inflight = util::DefaultThreadCount();
  }
  std::unique_ptr<Server> server(new Server(snapshots, resolved, listen_fd,
                                            wake[0], wake[1],
                                            ntohs(bound.sin_port)));
  server->accept_thread_ = std::thread(&Server::AcceptLoop, server.get());
  return server;
}

Server::Server(SnapshotHolder* snapshots, const ServerOptions& options,
               int listen_fd, int wake_read_fd, int wake_write_fd,
               uint16_t port)
    : snapshots_(snapshots),
      options_(options),
      admission_(options.max_inflight, options.max_queue),
      slow_log_(SlowQueryLog::Options{options.slow_ms, options.slow_log_path}),
      listen_fd_(listen_fd),
      wake_read_fd_(wake_read_fd),
      wake_write_fd_(wake_write_fd),
      port_(port) {}

Server::~Server() { Shutdown(); }

size_t Server::connections_accepted() const {
  return accepted_.load(std::memory_order_relaxed);
}

void Server::AcceptLoop() {
  while (true) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_read_fd_, POLLIN, 0}};
    const int ready = ::poll(fds, 2, -1);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return;
    }
    if (fds[1].revents != 0) return;  // woken by Shutdown
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    std::vector<std::thread> finished;
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      if (shutting_down_) {
        ::close(fd);
        continue;
      }
      for (const std::thread::id id : finished_conns_) {
        finished.push_back(std::move(conn_threads_.extract(id).mapped()));
      }
      finished_conns_.clear();
      conn_fds_.insert(fd);
      std::thread handler(&Server::HandleConnection, this, fd);
      const std::thread::id id = handler.get_id();
      conn_threads_.emplace(id, std::move(handler));
    }
    // Each of these has left its last critical section and is returning.
    for (std::thread& thread : finished) thread.join();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    TABSKETCH_METRIC_COUNT("serve.connections.accepted");
  }
}

void Server::HandleConnection(int fd) {
  util::Gauge* connections_gauge = nullptr;
  if (util::MetricsRegistry::Enabled()) {
    static util::Gauge* const gauge =
        util::MetricsRegistry::Global().GetGauge("serve.connections.active");
    connections_gauge = gauge;
  }
  ScopedGaugeAdd active_connection(connections_gauge);
  LineReader reader(fd);
  std::string line;
  bool close_connection = false;
  while (!close_connection && reader.Next(&line)) {
    const std::optional<std::string> response =
        ProcessLine(line, &close_connection);
    if (!response.has_value()) continue;
    if (!SendAll(fd, *response + "\n")) break;
  }
  if (reader.too_long()) {
    // Answer, then send FIN ahead of the close: the unread rest of the line
    // makes close() reset the connection, and the client should read the
    // error and a clean EOF before that reset lands.
    SendAll(fd, ErrorLine(util::Status::InvalidArgument(
                    "line exceeds " + std::to_string(kMaxLineBytes) +
                    " bytes")) +
                    "\n");
    ::shutdown(fd, SHUT_WR);
  }
  // Deregister before close so Shutdown never touches a recycled fd number:
  // it only shutdown(2)s fds still present in the registry, under the same
  // mutex.
  {
    std::lock_guard<std::mutex> lock(conn_mutex_);
    conn_fds_.erase(fd);
    finished_conns_.push_back(std::this_thread::get_id());
  }
  ::close(fd);
}

std::optional<std::string> Server::ProcessLine(const std::string& line,
                                               bool* close_connection) {
  const std::vector<std::string> tokens = Tokenize(line);
  if (!tokens.empty()) {
    if (tokens[0] == "ping" && tokens.size() == 1) {
      return std::string("ok ping");
    }
    if (tokens[0] == "quit" && tokens.size() == 1) {
      *close_connection = true;
      return std::string("ok bye");
    }
    if (tokens[0] == "reload") {
      if (tokens.size() != 2) {
        TABSKETCH_METRIC_COUNT("serve.requests.errors");
        return ErrorLine("invalid-argument",
                         "expected 'reload <sketches-path>'");
      }
      return ProcessReload(tokens[1]);
    }
    if (tokens[0] == "append") {
      if (tokens.size() != 2) {
        TABSKETCH_METRIC_COUNT("serve.requests.errors");
        TABSKETCH_METRIC_COUNT("ingest.errors");
        return ErrorLine("invalid-argument",
                         "expected 'append <columns-file>'");
      }
      return ProcessAppend(tokens[1]);
    }
    if (tokens[0] == "retire") {
      if (tokens.size() != 2) {
        TABSKETCH_METRIC_COUNT("serve.requests.errors");
        TABSKETCH_METRIC_COUNT("ingest.errors");
        return ErrorLine("invalid-argument",
                         "expected 'retire <tile-columns>'");
      }
      return ProcessRetire(tokens[1]);
    }
    if (tokens[0] == "window" && tokens.size() == 1) {
      return ProcessWindow();
    }
    if (tokens[0] == "stats") {
      return ProcessStats(tokens);
    }
    if (tokens[0] == "health" && tokens.size() == 1) {
      return ProcessHealth();
    }
  }

  auto parsed = ParseBatchLine(line, /*line_number=*/1);
  if (!parsed.ok()) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    return ErrorLine(parsed.status());
  }
  if (!parsed->has_value()) return std::nullopt;  // blank / comment line
  return ProcessQuery(**parsed, line.size());
}

std::string Server::ProcessQuery(const QueryRequest& request,
                                 size_t line_bytes) {
  const uint64_t request_id =
      next_request_id_.fetch_add(1, std::memory_order_relaxed) + 1;
  util::WallTimer timer;

  // Per-verb in-flight gauge, held for the whole request (admission wait
  // included) so `stats` can see requests parked in the queue, not just
  // executing ones. Two static caches on purpose — the per-site pattern the
  // counter macros use, resolved once to the right gauge per request.
  util::Gauge* inflight_gauge = nullptr;
  if (util::MetricsRegistry::Enabled()) {
    static util::Gauge* const distance_gauge =
        util::MetricsRegistry::Global().GetGauge("serve.inflight.distance");
    static util::Gauge* const knn_gauge =
        util::MetricsRegistry::Global().GetGauge("serve.inflight.knn");
    inflight_gauge = request.kind == QueryRequest::Kind::kDistance
                         ? distance_gauge
                         : knn_gauge;
  }
  ScopedGaugeAdd inflight(inflight_gauge);

  std::optional<std::chrono::steady_clock::time_point> deadline;
  if (options_.deadline_ms > 0) {
    deadline = std::chrono::steady_clock::now() +
               std::chrono::milliseconds(options_.deadline_ms);
  }
  switch (admission_.Enter(deadline)) {
    case AdmissionController::Admission::kShed:
      TABSKETCH_METRIC_COUNT("serve.requests.shed");
      return ErrorLine("overloaded", "server at capacity, retry later");
    case AdmissionController::Admission::kDeadlineExpired:
      TABSKETCH_METRIC_COUNT("serve.requests.deadline_expired");
      return ErrorLine("deadline-exceeded",
                       "no execution slot within the request deadline");
    case AdmissionController::Admission::kClosed:
      return ErrorLine("unavailable", "server shutting down");
    case AdmissionController::Admission::kAdmitted:
      break;
  }
  const double queue_wait_seconds = timer.ElapsedSeconds();
  TABSKETCH_METRIC_OBSERVE("serve.request.queue_wait.seconds",
                           queue_wait_seconds);

  // RCU read side: pin the current generation for the whole request. A
  // concurrent reload swaps the holder's pointer but cannot invalidate this
  // snapshot (or any sketch handed out from its cache) until the last
  // in-flight reference drops.
  const uint64_t generation = snapshots_->swaps();
  const std::shared_ptr<const Snapshot> snapshot = snapshots_->Current();
  if (options_.pre_request_hook) options_.pre_request_hook(request);
  RequestStats request_stats;
  auto result = snapshot->engine().Run(
      std::span<const QueryRequest>(&request, 1), &request_stats);
  admission_.Leave();

  // Two macro instantiations on purpose: the macro caches a static Counter*
  // per call site, so one site with a ternary name would bind whichever
  // counter it saw first.
  if (request.kind == QueryRequest::Kind::kDistance) {
    TABSKETCH_METRIC_COUNT("serve.requests.distance");
  } else {
    TABSKETCH_METRIC_COUNT("serve.requests.knn");
  }
  const double handle_seconds = timer.ElapsedSeconds();
  TABSKETCH_METRIC_OBSERVE("serve.request.latency.seconds", handle_seconds);

  if (slow_log_.enabled()) {
    SlowQueryEntry entry;
    entry.id = request_id;
    entry.verb =
        request.kind == QueryRequest::Kind::kDistance ? "distance" : "knn";
    entry.bytes = line_bytes;
    entry.queue_wait_seconds = queue_wait_seconds;
    entry.handle_seconds = handle_seconds;
    entry.generation = generation;
    entry.stats = request_stats;
    if (slow_log_.MaybeRecord(entry)) {
      TABSKETCH_METRIC_COUNT("serve.requests.slow");
    }
  }

  if (!result.ok()) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    return ErrorLine(result.status());
  }
  return (*result)[0];
}

std::string Server::ProcessReload(const std::string& path) {
  TABSKETCH_METRIC_COUNT("serve.requests.reload");
  if (options_.ingest != nullptr) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    return ErrorLine("failed-precondition", "reload disabled");
  }
  const std::shared_ptr<const Snapshot> base = snapshots_->Current();
  auto next = Snapshot::WithSketchSet(*base, path);
  if (!next.ok()) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    return ErrorLine(next.status());
  }
  const size_t tiles = (*next)->num_tiles();
  snapshots_->Swap(std::move(*next));
  std::ostringstream out;
  out << "ok reload " << path << " tiles=" << tiles
      << " swaps=" << snapshots_->swaps();
  return out.str();
}

std::string Server::ProcessAppend(const std::string& path) {
  TABSKETCH_METRIC_COUNT("serve.requests.append");
  if (options_.ingest == nullptr) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine("failed-precondition",
                     "streaming ingest disabled (start serve with --ingest)");
  }
  auto appended = options_.ingest->Append(path, snapshots_);
  if (!appended.ok()) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine(appended.status());
  }
  std::ostringstream out;
  out << "ok append " << path << " cols=" << appended->appended_cols
      << " tiles=" << appended->window.num_tiles
      << " new=" << appended->new_tiles
      << " reused=" << appended->reused_tiles
      << " pending=" << appended->window.pending_cols
      << " remap=" << (appended->codes_rebuilt ? 1 : 0)
      << " swaps=" << snapshots_->swaps();
  return out.str();
}

std::string Server::ProcessRetire(const std::string& count_token) {
  TABSKETCH_METRIC_COUNT("serve.requests.retire");
  if (options_.ingest == nullptr) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine("failed-precondition",
                     "streaming ingest disabled (start serve with --ingest)");
  }
  unsigned long long count = 0;
  const char* begin = count_token.data();
  const char* end = begin + count_token.size();
  const auto [ptr, ec] = std::from_chars(begin, end, count);
  if (ec != std::errc() || ptr != end) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine("invalid-argument",
                     "retire count must be a non-negative integer");
  }
  auto retired =
      options_.ingest->Retire(static_cast<size_t>(count), snapshots_);
  if (!retired.ok()) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine(retired.status());
  }
  std::ostringstream out;
  out << "ok retire " << retired->retired_tile_cols
      << " tiles=" << retired->window.num_tiles
      << " start=" << retired->window.start_tile_col
      << " swaps=" << snapshots_->swaps();
  return out.str();
}

std::string Server::ProcessWindow() {
  if (options_.ingest == nullptr) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    TABSKETCH_METRIC_COUNT("ingest.errors");
    return ErrorLine("failed-precondition",
                     "streaming ingest disabled (start serve with --ingest)");
  }
  const StreamingIngest::WindowStats window = options_.ingest->stats();
  std::ostringstream out;
  out << "ok window tile-cols=" << window.grid_cols
      << " start=" << window.start_tile_col
      << " pending=" << window.pending_cols << " tiles=" << window.num_tiles;
  return out.str();
}

StatsInfo Server::BuildStatsInfo() {
  StatsInfo info;
  info.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  info.generation = snapshots_->swaps();
  info.tiles = snapshots_->Current()->num_tiles();
  info.connections_accepted = connections_accepted();
  info.queue_depth = admission_.queue_depth();
  info.slow_total = slow_log_.total();
  if (options_.ingest != nullptr) {
    const StreamingIngest::WindowStats window = options_.ingest->stats();
    info.has_window = true;
    info.window_start_col = window.start_tile_col;
    info.window_tile_cols = window.grid_cols;
    info.window_pending_cols = window.pending_cols;
  }
  return info;
}

std::string Server::ProcessStats(const std::vector<std::string>& tokens) {
  TABSKETCH_METRIC_COUNT("serve.requests.stats");
  const std::string mode = tokens.size() >= 2 ? tokens[1] : "json";
  if (tokens.size() > 2 ||
      (mode != "json" && mode != "prom" && mode != "slow")) {
    TABSKETCH_METRIC_COUNT("serve.requests.errors");
    return ErrorLine("invalid-argument", "expected 'stats [json|prom|slow]'");
  }
  if (mode == "slow") {
    return slow_log_.ToJson();
  }
  const util::MetricsSnapshot current =
      util::CaptureSnapshot(util::MetricsRegistry::Global());
  if (mode == "prom") {
    // Multi-line response on a line protocol: the exposition ends with a
    // `# EOF` comment line, so clients read until they see it
    // (docs/FORMATS.md). The trailing newline is stripped here because the
    // connection handler frames every response with one.
    std::ostringstream out;
    WritePrometheusText(current, out);
    std::string text = out.str();
    if (!text.empty() && text.back() == '\n') text.pop_back();
    return text;
  }
  std::optional<util::MetricsSnapshot> baseline;
  if (options_.ticker != nullptr) {
    baseline = options_.ticker->WindowBaseline(current.wall_seconds);
  }
  return RenderStatsJson(BuildStatsInfo(), current,
                         baseline.has_value() ? &*baseline : nullptr);
}

std::string Server::ProcessHealth() {
  TABSKETCH_METRIC_COUNT("serve.requests.stats");
  return RenderHealthJson(BuildStatsInfo());
}

void Server::Shutdown() {
  std::call_once(shutdown_once_, [this] {
    // Stop taking new work: wake the accept loop, mark the registry so any
    // already-accepted-but-unregistered connection is closed, and reject
    // every queued admission with kClosed.
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      shutting_down_ = true;
    }
    const char byte = 'x';
    while (::write(wake_write_fd_, &byte, 1) < 0 && errno == EINTR) {
    }
    accept_thread_.join();
    ::close(listen_fd_);
    admission_.Close();

    // Drain: half-close each connection's read side so blocked recv()s see
    // EOF; handlers finish their in-flight request, deliver the response on
    // the still-open write side, then exit.
    {
      std::lock_guard<std::mutex> lock(conn_mutex_);
      for (const int fd : conn_fds_) ::shutdown(fd, SHUT_RD);
    }
    for (auto& entry : conn_threads_) entry.second.join();
    ::close(wake_read_fd_);
    ::close(wake_write_fd_);
  });
}

}  // namespace tabsketch::serve
