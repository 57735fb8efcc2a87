#include "loadgen.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <deque>
#include <thread>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

int ConnectFd(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// ACK what was just received at once. The daemon does not set
/// TCP_NODELAY, so without prompt ACKs Nagle's algorithm holds each
/// pipelined answer until the client's next segment carries the ACK, and
/// a connection settles into being one or more inter-request gaps behind
/// at random. Linux clears the flag as it sees fit, so it is re-armed
/// after every recv.
void QuickAck(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_QUICKACK, &one, sizeof(one));
}

bool IsError(const std::string& answer) {
  return answer.empty() || answer.rfind("error", 0) == 0;
}

}  // namespace

std::unique_ptr<LineConn> LineConn::Connect(uint16_t port) {
  const int fd = ConnectFd(port);
  if (fd < 0) return nullptr;
  return std::unique_ptr<LineConn>(new LineConn(fd));
}

LineConn::~LineConn() { ::close(fd_); }

bool LineConn::Send(const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool LineConn::ReadLine(std::string* line) {
  while (true) {
    const size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[65536];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    QuickAck(fd_);
    buffer_.append(chunk, static_cast<size_t>(n));
  }
}

std::string LineConn::Call(const std::string& request) {
  std::string line;
  if (!Send(request + "\n") || !ReadLine(&line)) return "";
  return line;
}

std::vector<double> LoadResult::Latencies() const {
  std::vector<double> out;
  out.reserve(samples.size());
  for (const Sample& sample : samples) out.push_back(sample.latency_ms);
  return out;
}

LoadResult RunClosedLoop(uint16_t port, size_t conns,
                         const std::vector<std::string>& requests,
                         double seconds) {
  std::atomic<size_t> next{0};
  std::vector<LoadResult> parts(conns);
  const Clock::time_point start = Clock::now();
  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      LoadResult& part = parts[c];
      std::unique_ptr<LineConn> conn = LineConn::Connect(port);
      while (SecondsSince(start) < seconds) {
        const size_t i = next.fetch_add(1);
        if (i >= requests.size()) break;
        ++part.attempted;
        const double sent = SecondsSince(start);
        const std::string answer =
            conn != nullptr ? conn->Call(requests[i]) : std::string();
        const double latency_ms = (SecondsSince(start) - sent) * 1e3;
        if (IsError(answer)) {
          ++part.failed;
          if (answer.empty()) break;  // connection lost
          continue;
        }
        part.samples.push_back(Sample{i, sent, latency_ms, answer});
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  LoadResult result;
  result.seconds = SecondsSince(start);
  for (LoadResult& part : parts) {
    result.attempted += part.attempted;
    result.failed += part.failed;
    for (Sample& sample : part.samples) {
      result.samples.push_back(std::move(sample));
    }
  }
  return result;
}

LoadResult RunOpenLoop(uint16_t port, size_t conns, double rate,
                       double seconds, const std::vector<std::string>& requests,
                       double drain_s) {
  std::vector<LoadResult> parts(conns);
  const Clock::time_point start = Clock::now();
  const size_t total = static_cast<size_t>(seconds * rate);
  std::vector<std::thread> workers;
  for (size_t c = 0; c < conns; ++c) {
    workers.emplace_back([&, c] {
      LoadResult& part = parts[c];
      const int fd = ConnectFd(port);
      if (fd < 0) {
        for (size_t i = c; i < total; i += conns) ++part.attempted;
        part.failed = part.attempted;
        return;
      }
      ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
      std::string out;
      size_t out_sent = 0;
      std::string in;
      std::deque<std::pair<size_t, double>> inflight;  // (request, due_s)
      size_t next = c;
      bool broken = false;
      while (!broken) {
        const double now = SecondsSince(start);
        while (next < total && next / rate <= now) {
          const double due = next / rate;
          out += requests[next % requests.size()];
          out += '\n';
          inflight.emplace_back(next, due);
          part.lag_ms.push_back((now - due) * 1e3);
          ++part.attempted;
          next += conns;
        }
        if (next >= total && inflight.empty()) break;
        if (next >= total && now > seconds + drain_s) break;
        while (out_sent < out.size()) {
          const ssize_t n = ::send(fd, out.data() + out_sent,
                                   out.size() - out_sent, MSG_NOSIGNAL);
          if (n > 0) {
            out_sent += static_cast<size_t>(n);
          } else if (n < 0 && errno == EINTR) {
            continue;
          } else {
            if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
              broken = true;
            }
            break;
          }
        }
        if (out_sent == out.size()) {
          out.clear();
          out_sent = 0;
        }
        double wait_s = next < total ? next / rate - SecondsSince(start)
                                     : seconds + drain_s - SecondsSince(start);
        wait_s = std::max(0.0, std::min(wait_s, 0.05));
        pollfd pfd{fd, static_cast<short>(POLLIN | (out.empty() ? 0 : POLLOUT)),
                   0};
        const timespec timeout{
            static_cast<time_t>(wait_s),
            static_cast<long>((wait_s - static_cast<time_t>(wait_s)) * 1e9)};
        if (::ppoll(&pfd, 1, &timeout, nullptr) <= 0) continue;
        if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        char chunk[65536];
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n < 0 && (errno == EINTR || errno == EAGAIN)) continue;
        if (n <= 0) {
          broken = true;
          break;
        }
        QuickAck(fd);
        const double received = SecondsSince(start);
        in.append(chunk, static_cast<size_t>(n));
        size_t newline;
        while ((newline = in.find('\n')) != std::string::npos) {
          std::string answer = in.substr(0, newline);
          in.erase(0, newline + 1);
          if (inflight.empty()) continue;
          const auto [request, due] = inflight.front();
          inflight.pop_front();
          if (IsError(answer)) {
            ++part.failed;
            continue;
          }
          part.samples.push_back(
              Sample{request, due, (received - due) * 1e3, std::move(answer)});
        }
      }
      // Unanswered (timed out or lost) and never-sent requests fail.
      part.failed += inflight.size();
      for (; next < total; next += conns) {
        ++part.attempted;
        ++part.failed;
      }
      ::close(fd);
    });
  }
  for (std::thread& worker : workers) worker.join();
  LoadResult result;
  result.seconds = SecondsSince(start);
  for (LoadResult& part : parts) {
    result.attempted += part.attempted;
    result.failed += part.failed;
    result.lag_ms.insert(result.lag_ms.end(), part.lag_ms.begin(),
                         part.lag_ms.end());
    for (Sample& sample : part.samples) {
      result.samples.push_back(std::move(sample));
    }
  }
  return result;
}

}  // namespace perfbench
