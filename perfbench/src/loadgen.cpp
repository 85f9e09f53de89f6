#include "loadgen.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace perfbench {

namespace {

constexpr std::string_view kHeadEnd = "\r\n\r\n";
constexpr std::string_view kContentLength = "\r\nContent-Length: ";
constexpr auto kDrainTimeout = std::chrono::seconds(1);

}  // namespace

OpenLoopGenerator::OpenLoopGenerator(std::uint16_t port, std::size_t connections)
    : port_(port), connections_(std::max<std::size_t>(1, connections)) {
  for (Connection& connection : connections_) connect_one(connection);
}

OpenLoopGenerator::~OpenLoopGenerator() {
  for (const Connection& connection : connections_) {
    if (connection.fd >= 0) ::close(connection.fd);
  }
}

bool OpenLoopGenerator::connected() const {
  return std::all_of(connections_.begin(), connections_.end(),
                     [](const Connection& c) { return c.fd >= 0; });
}

bool OpenLoopGenerator::connect_one(Connection& connection) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return false;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return false;
  }
  connection.fd = fd;
  return true;
}

void OpenLoopGenerator::reset(Connection& connection, PhaseResult& result) {
  result.failed += connection.pending.size();
  connection.pending.clear();
  connection.out.clear();
  connection.out_offset = 0;
  connection.in.clear();
  connection.in_offset = 0;
  if (connection.fd >= 0) ::close(connection.fd);
  connection.fd = -1;
  connect_one(connection);
}

bool OpenLoopGenerator::flush(Connection& connection) {
  while (connection.out_offset < connection.out.size()) {
    const ssize_t n = ::send(connection.fd, connection.out.data() + connection.out_offset,
                             connection.out.size() - connection.out_offset,
                             MSG_DONTWAIT | MSG_NOSIGNAL);
    if (n > 0) {
      connection.out_offset += static_cast<std::size_t>(n);
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  connection.out.clear();
  connection.out_offset = 0;
  return true;
}

bool OpenLoopGenerator::drain(Connection& connection, PhaseResult& result,
                              std::size_t phase, const CheckFn& check,
                              Tracer& tracer) {
  char buffer[64 * 1024];
  bool received_any = false;
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buffer, sizeof buffer, MSG_DONTWAIT);
    if (n > 0) {
      connection.in.append(buffer, static_cast<std::size_t>(n));
      received_any = true;
      continue;
    }
    if (n == 0) return false;  // peer closed a keep-alive connection
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno != EINTR) return false;
  }
  if (!received_any) return true;

  const auto received = Clock::now();
  for (;;) {
    const std::string_view in(connection.in.data() + connection.in_offset,
                              connection.in.size() - connection.in_offset);
    const std::size_t head_end = in.find(kHeadEnd);
    if (head_end == std::string_view::npos) break;
    std::size_t length = 0;
    const std::size_t length_at = in.substr(0, head_end).find(kContentLength);
    if (length_at != std::string_view::npos) {
      length = std::strtoull(in.data() + length_at + kContentLength.size(), nullptr, 10);
    }
    const std::size_t total = head_end + kHeadEnd.size() + length;
    if (in.size() < total) break;
    if (connection.pending.empty()) return false;  // unsolicited response
    const Pending pending = connection.pending.front();
    connection.pending.pop_front();
    // "HTTP/1.1 200 OK": the status code starts at offset 9.
    const int status = head_end > 12 ? std::atoi(in.data() + 9) : 0;
    if (check(pending.key, status, in.substr(head_end + kHeadEnd.size(), length),
              phase, pending.sample)) {
      result.latency_us[pending.sample] = us_between(pending.due, received);
    } else {
      ++result.failed;
    }
    tracer.record("loadgen.request", pending.due, received, pending.seq);
    connection.in_offset += total;
  }
  if (connection.in_offset == connection.in.size()) {
    connection.in.clear();
    connection.in_offset = 0;
  } else if (connection.in_offset > sizeof buffer) {
    connection.in.erase(0, connection.in_offset);
    connection.in_offset = 0;
  }
  return true;
}

std::vector<OpenLoopGenerator::PhaseResult> OpenLoopGenerator::run(
    const std::vector<Phase>& phases, const NextFn& next, const CheckFn& check,
    Tracer& tracer) {
  std::vector<PhaseResult> results;
  std::vector<pollfd> fds(connections_.size());
  std::uint64_t seq = 0;
  for (std::size_t phase = 0; phase < phases.size(); ++phase) {
    PhaseResult& result = results.emplace_back();
    result.rate = phases[phase].rate;
    result.seconds = phases[phase].seconds;
    const auto total = static_cast<std::uint64_t>(result.rate * result.seconds);
    result.latency_us.assign(total, kFailedLatencyUs);
    result.late_us.reserve(total);
    const double interval_ns = 1e9 / result.rate;
    const auto start = Clock::now();
    const auto due = [&](std::uint64_t n) {
      return start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                         interval_ns * static_cast<double>(n)));
    };

    std::uint64_t n = 0;
    Clock::time_point drain_deadline{};
    for (;;) {
      const auto now = Clock::now();
      // Everything due goes out now, whatever is still outstanding: the
      // schedule never waits for the server.
      while (n < total && due(n) <= now) {
        const Request request = next(seq);
        Connection& connection = connections_[seq % connections_.size()];
        connection.out.append(*request.wire);
        connection.pending.push_back(
            Pending{due(n), request.key, static_cast<std::size_t>(n), seq});
        result.late_us.push_back(us_between(due(n), now));
        ++n;
        ++seq;
      }
      if (n == total && drain_deadline == Clock::time_point{}) {
        for (const Connection& c : connections_) {
          result.outstanding_at_end += c.pending.size();
        }
        drain_deadline = now + kDrainTimeout;
      }

      for (Connection& connection : connections_) {
        if (!connection.out.empty() && !flush(connection)) reset(connection, result);
      }

      // Sleep until the next request is due or a response arrives, then
      // read only the connections that have something. Sleeping, not
      // spinning: loopback receive work runs in softirq context on this
      // CPU, and a spinning generator would delay it by whole time slices.
      for (std::size_t i = 0; i < connections_.size(); ++i) {
        fds[i].fd = connections_[i].fd;
        fds[i].events = static_cast<short>(
            POLLIN | (connections_[i].out.empty() ? 0 : POLLOUT));
        fds[i].revents = 0;
      }
      const auto wake = n < total ? due(n)
                                  : std::min(drain_deadline,
                                             Clock::now() + std::chrono::milliseconds(1));
      const auto wait = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(wake - Clock::now())
                 .count());
      timespec timeout{};
      timeout.tv_sec = static_cast<time_t>(wait / 1'000'000'000);
      timeout.tv_nsec = static_cast<long>(wait % 1'000'000'000);
      ::ppoll(fds.data(), fds.size(), &timeout, nullptr);

      std::size_t outstanding = 0;
      for (std::size_t i = 0; i < connections_.size(); ++i) {
        Connection& connection = connections_[i];
        if ((fds[i].revents & (POLLIN | POLLERR | POLLHUP)) != 0 &&
            !drain(connection, result, phase, check, tracer)) {
          reset(connection, result);
        }
        outstanding += connection.pending.size();
      }
      if (n == total && (outstanding == 0 || Clock::now() >= drain_deadline)) {
        for (Connection& connection : connections_) {
          if (!connection.pending.empty()) reset(connection, result);
        }
        break;
      }
    }
    result.issued = n;
  }
  return results;
}

}  // namespace perfbench
