// Open-loop HTTP/1.1 load generator: one thread sends GETs on a fixed
// schedule over a few non-blocking keep-alive connections, pipelining
// whenever a connection still has a response outstanding, so a server
// stall never lowers the offered rate. Each request is timed from the
// moment it was due (not from when it was sent), and the generator
// reports how late it sent relative to its schedule.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "bench.hpp"

namespace perfbench {

class OpenLoopGenerator {
 public:
  /// Latency recorded for a request that failed, was refused, or never
  /// completed: it counts as missing any latency limit.
  static constexpr double kFailedLatencyUs = 1e7;

  /// The n-th request of the run (n counts across phases): an opaque key
  /// handed back to the checker, and the request bytes (borrowed; must
  /// outlive run()).
  struct Request {
    std::uint32_t key = 0;
    const std::string* wire = nullptr;
  };
  using NextFn = std::function<Request(std::uint64_t n)>;
  /// Checks one response on the generator thread; false = wrong answer.
  /// (phase, sample) locate the request's latency slot for late checks.
  using CheckFn = std::function<bool(std::uint32_t key, int status,
                                     std::string_view body, std::size_t phase,
                                     std::size_t sample)>;

  struct Phase {
    double rate = 0.0;  // requests per second
    double seconds = 0.0;
  };
  struct PhaseResult {
    double rate = 0.0;
    double seconds = 0.0;
    std::uint64_t issued = 0;
    std::uint64_t failed = 0;
    /// Requests sent but unanswered when the last one of the phase was
    /// due — the backlog that a server falling behind grows.
    std::uint64_t outstanding_at_end = 0;
    /// Per issued request: due -> response received, in microseconds.
    std::vector<double> latency_us;
    /// Per issued request: due -> handed to the socket.
    std::vector<double> late_us;
  };

  OpenLoopGenerator(std::uint16_t port, std::size_t connections);
  ~OpenLoopGenerator();
  OpenLoopGenerator(const OpenLoopGenerator&) = delete;
  OpenLoopGenerator& operator=(const OpenLoopGenerator&) = delete;

  /// True when every connection is open.
  bool connected() const;

  /// Runs the phases back to back on the calling thread. After each
  /// phase it waits (untimed, up to a second) for outstanding responses;
  /// requests still unanswered then count as failed.
  std::vector<PhaseResult> run(const std::vector<Phase>& phases,
                               const NextFn& next, const CheckFn& check,
                               Tracer& tracer);

 private:
  struct Pending {
    Clock::time_point due;
    std::uint32_t key = 0;
    std::size_t sample = 0;
    std::uint64_t seq = 0;
  };
  struct Connection {
    int fd = -1;
    std::string out;
    std::size_t out_offset = 0;
    std::string in;
    std::size_t in_offset = 0;
    std::deque<Pending> pending;
  };

  bool connect_one(Connection& connection);
  /// Drops a broken connection: its pending requests fail, then it
  /// reconnects for the requests that follow.
  void reset(Connection& connection, PhaseResult& result);
  bool flush(Connection& connection);
  /// Reads what is available and completes every whole response.
  bool drain(Connection& connection, PhaseResult& result, std::size_t phase,
             const CheckFn& check, Tracer& tracer);

  std::uint16_t port_;
  std::vector<Connection> connections_;
};

}  // namespace perfbench
