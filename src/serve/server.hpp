// Sharded event-loop HTTP/1.1 server on the shared wire core (http.hpp).
//
// Architecture: N reactor shards, each ONE event-loop thread owning its
// own sockets — listener, connection table, idle sweep, output buffers —
// so shards share no mutable state and scale across cores. A slow client
// can only ever stall its own connection, never a listener or another
// client. shards=1 (the default) degenerates to the old single-reactor
// server with identical behaviour.
//
// Accepting: each shard binds its own listener on the same port with
// SO_REUSEPORT, letting the kernel spread connections across shards with
// no shared accept lock. Where SO_REUSEPORT is unavailable (or
// accept_mode forces it), shard 0 owns the single listener and hands
// accepted fds to the other shards round-robin through per-shard handoff
// queues (mutex + wake pipe — cold path, one transfer per connection).
//
// Event backend: each shard drives a serve::Poller — epoll on Linux,
// poll(2) as the portable fallback and differential oracle (see
// poller.hpp). Selected per-server via HttpServerOptions::backend.
//
// Output path: responses are queued as (head, body-reference) chunk
// pairs and flushed with writev scatter-gather — a cache-hit body held
// in an HttpResponse::shared_body is written straight from cache storage
// with no per-response std::string assembly. Head buffers are recycled
// per connection.
//
// Handler execution is pluggable, per the old contract:
//   - no executor: handlers run inline on the owning shard's loop thread,
//   - set_executor(fn): each parsed request is handed to `fn`; the
//     response re-enters the owning shard via its completion queue and
//     wake pipe.
// Pipelined requests on one connection are answered strictly in order:
// at most one handler per connection is in flight.
#pragma once

#include <sys/uio.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "serve/http.hpp"
#include "serve/poller.hpp"

namespace ripki::serve {

/// How connections reach the reactor shards (multi-shard servers only).
enum class AcceptMode {
  /// SO_REUSEPORT when the platform has it, else handoff.
  kAuto,
  /// Shard 0 accepts and distributes fds round-robin — the portable
  /// fallback, kept selectable so tests can exercise it anywhere.
  kHandoff,
};

struct HttpServerOptions {
  /// 0 binds an ephemeral port; the bound port is reported by port().
  std::uint16_t port = 0;
  std::string bind_address = "127.0.0.1";
  /// Reactor shard count (clamped to >= 1). One event loop + thread per
  /// shard; connection tables, pollers, and output buffers are per-shard.
  std::uint32_t shards = 1;
  PollerBackend backend = PollerBackend::kDefault;
  AcceptMode accept_mode = AcceptMode::kAuto;
  /// Global cap, split evenly across shards (>= 1 each). Accepted
  /// connections beyond a shard's slice are answered 503 and closed.
  std::size_t max_connections = 512;
  /// Idle keep-alive connections are closed after this long.
  std::chrono::milliseconds idle_timeout{10'000};
  RequestParser::Limits parser_limits;
  /// Injected clock for idle-sweep and activity timestamps; defaults to
  /// steady_clock::now. Tests override it so slow-client/idle-timeout
  /// behaviour is deterministic — new serve code paths never call a raw
  /// now() directly.
  std::function<std::chrono::steady_clock::time_point()> clock;
  /// Invoked on a loop thread whenever a connection is dropped by the
  /// server rather than the client: reason "overload" (503 at the
  /// per-shard connection cap) or "idle" (keep-alive sweep). The service
  /// layer turns these into `ripki.serve.conn_dropped{reason=...}`
  /// counters — a callback because this wire layer sits below obs and
  /// cannot take a registry without a dependency cycle.
  std::function<void(std::string_view reason)> on_connection_dropped;
};

class HttpServer {
 public:
  using Handler = std::function<HttpResponse(const HttpRequest&)>;
  using Executor = std::function<void(std::function<void()>)>;

  explicit HttpServer(HttpServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Request handler (required before start()). Called once per request;
  /// with an executor installed it runs on executor threads, otherwise on
  /// the owning shard's event-loop thread. Must be thread-safe once
  /// shards > 1. request.shard carries the owning shard index.
  void set_handler(Handler handler) { handler_ = std::move(handler); }

  /// Optional handler fan-out (install before start()). `fn` must run the
  /// task it is given exactly once, on any thread.
  void set_executor(Executor executor) { executor_ = std::move(executor); }

  /// Binds, listens, starts one loop thread per shard. False on socket
  /// errors (already-started servers return true).
  bool start();
  /// Idempotent; drains in-flight handlers and joins every loop thread.
  void stop();
  bool running() const { return running_.load(std::memory_order_acquire); }
  std::uint16_t port() const { return port_; }
  std::uint32_t shard_count() const {
    return static_cast<std::uint32_t>(shards_.size());
  }
  /// Actual accept path after platform fallbacks ("reuseport"/"handoff");
  /// meaningful once start() succeeded.
  const char* accept_mode() const { return reuseport_ ? "reuseport" : "handoff"; }
  /// Actual event backend after platform fallbacks ("poll"/"epoll").
  const char* backend_name() const { return backend_name_; }

  /// Counters, readable from any thread. stats() aggregates all shards;
  /// shard_stats(i) is one shard's slice.
  struct Stats {
    std::uint64_t connections_accepted = 0;
    std::uint64_t connections_closed = 0;
    std::uint64_t requests = 0;
    std::uint64_t parse_errors = 0;
    std::uint64_t idle_closed = 0;
    std::uint64_t overloaded = 0;  // rejected at the connection cap
    std::int64_t active_connections = 0;
  };
  Stats stats() const;
  Stats shard_stats(std::uint32_t shard) const;
  std::uint64_t requests_served() const;

 private:
  /// Per-connection output chunk: `head` is owned bytes (status line +
  /// headers, or a whole small response); `body` when set is a borrowed
  /// reference written after `head` with no copy (cache-hit bodies).
  struct OutChunk {
    std::string head;
    std::shared_ptr<const std::string> body;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    std::string peer;  // client address, no port
    RequestParser parser;
    /// Requests parsed but not yet dispatched (pipelining backlog).
    std::deque<HttpRequest> pending;
    /// True while a handler for this connection runs on the executor.
    bool busy = false;
    /// Close once output drains (final response written or parse error).
    bool close_after_flush = false;
    /// Poller interest as last registered, so modify() is only called on
    /// changes: bit 0 read, bit 1 write.
    unsigned interest = 0;
    std::deque<OutChunk> outq;
    /// Bytes of outq.front() already written (head first, then body).
    std::size_t out_offset = 0;
    /// Recycled head buffer: the most recently flushed chunk's string is
    /// parked here (capacity kept) and reused by the next response.
    std::string spare_head;
    std::chrono::steady_clock::time_point last_activity;
  };

  struct Completion {
    std::uint64_t connection_id = 0;
    HttpResponse response;
    bool keep_alive = true;
  };

  /// One reactor: event loop thread, poller, listener (or handoff
  /// queue), connection table, completion queue. All mutable state is
  /// owned by the loop thread except the mutexed handoff/completion
  /// queues and the atomic counters.
  struct Shard {
    std::uint32_t index = 0;
    HttpServer* server = nullptr;
    std::thread thread;
    std::unique_ptr<Poller> poller;
    int listen_fd = -1;  // -1 on handoff shards > 0
    int wake_fds[2] = {-1, -1};  // self-pipe: [0] read, [1] write
    std::map<std::uint64_t, Connection> connections;
    /// fd -> connection id (fds recycle, ids never do).
    std::map<int, std::uint64_t> fd_index;
    std::uint64_t next_connection_seq = 1;
    std::vector<Poller::Event> events;  // reused wait() buffer
    std::vector<iovec> iov;             // reused writev buffer

    std::mutex inbox_mutex;
    std::vector<Completion> completions;
    /// Accepted fds handed over by shard 0 in handoff mode: (fd, peer).
    std::vector<std::pair<int, std::string>> handoff;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> closed{0};
    std::atomic<std::uint64_t> requests{0};
    std::atomic<std::uint64_t> parse_errors{0};
    std::atomic<std::uint64_t> idle_closed{0};
    std::atomic<std::uint64_t> overloaded{0};
  };

  std::chrono::steady_clock::time_point now() const {
    return options_.clock ? options_.clock()
                          : std::chrono::steady_clock::now();
  }

  void loop(Shard& shard);
  void accept_ready(Shard& shard, std::chrono::steady_clock::time_point now);
  void adopt_fd(Shard& shard, int fd, std::string peer,
                std::chrono::steady_clock::time_point now);
  void drain_handoff(Shard& shard, std::chrono::steady_clock::time_point now);
  void read_ready(Shard& shard, Connection& connection,
                  std::chrono::steady_clock::time_point now);
  void write_ready(Shard& shard, Connection& connection);
  /// Starts the next pending request if the connection is free.
  void pump(Shard& shard, Connection& connection);
  /// 16-hex-digit id, unique within the process: a per-server random-ish
  /// seed mixed with a monotone counter.
  std::string mint_request_id();
  void queue_response(Connection& connection, HttpResponse&& response,
                      bool keep_alive);
  void update_interest(Shard& shard, Connection& connection);
  void drain_completions(Shard& shard);
  void close_connection(Shard& shard, std::uint64_t id);
  static void wake(Shard& shard);
  /// Opens, binds, and listens one listener socket; -1 on failure.
  int open_listener(bool reuseport);
  void teardown_listeners();

  HttpServerOptions options_;
  Handler handler_;
  Executor executor_;

  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  bool reuseport_ = false;
  const char* backend_name_ = "poll";
  std::size_t max_connections_per_shard_ = 0;
  std::uint16_t port_ = 0;
  std::uint64_t request_id_seed_ = 0;
  std::atomic<std::uint64_t> next_request_id_{1};
  /// Round-robin cursor for handoff distribution (shard-0 loop only).
  std::uint32_t handoff_cursor_ = 0;

  /// Handlers dispatched to the executor but not yet completed; stop()
  /// waits for this to hit zero so handler tasks never outlive us.
  std::atomic<std::uint64_t> inflight_{0};
};

}  // namespace ripki::serve
