#include "serve/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>

namespace ripki::serve {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// writev with MSG_NOSIGNAL (plain writev raises SIGPIPE on a dead peer).
ssize_t sendv(int fd, const iovec* iov, std::size_t count) {
  msghdr msg{};
  msg.msg_iov = const_cast<iovec*>(iov);
  msg.msg_iovlen = count;
  return ::sendmsg(fd, &msg, MSG_NOSIGNAL);
}

constexpr std::size_t kMaxIov = 64;

}  // namespace

HttpServer::HttpServer(HttpServerOptions options)
    : options_(std::move(options)) {
  if (options_.shards == 0) options_.shards = 1;
  // Request ids must differ across server instances and restarts without
  // a shared counter: fold the construction time and the instance address
  // into a per-server seed the monotone counter is mixed with.
  const auto seed =
      std::chrono::steady_clock::now().time_since_epoch().count();
  request_id_seed_ = static_cast<std::uint64_t>(seed) ^
                     (reinterpret_cast<std::uintptr_t>(this) << 32);
}

std::string HttpServer::mint_request_id() {
  // Fibonacci hashing spreads the counter across the id space so ids from
  // one connection do not share a prefix.
  const std::uint64_t n =
      next_request_id_.fetch_add(1, std::memory_order_relaxed);
  const std::uint64_t id = (request_id_seed_ ^ n) * 0x9E3779B97F4A7C15ull;
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(id));
  return buf;
}

HttpServer::~HttpServer() { stop(); }

int HttpServer::open_listener(bool reuseport) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;

  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  if (reuseport) {
#ifdef SO_REUSEPORT
    if (::setsockopt(fd, SOL_SOCKET, SO_REUSEPORT, &one, sizeof one) != 0) {
      ::close(fd);
      return -1;
    }
#else
    ::close(fd);
    return -1;
#endif
  }

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port_ != 0 ? port_ : options_.port);
  if (::inet_pton(AF_INET, options_.bind_address.c_str(), &addr.sin_addr) !=
          1 ||
      ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd, 256) != 0 || !set_nonblocking(fd)) {
    ::close(fd);
    return -1;
  }
  return fd;
}

void HttpServer::teardown_listeners() {
  for (auto& shard : shards_) {
    if (shard->listen_fd >= 0) {
      ::close(shard->listen_fd);
      shard->listen_fd = -1;
    }
    for (int& fd : shard->wake_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  }
}

bool HttpServer::start() {
  if (running_.load(std::memory_order_acquire)) return true;

  const std::uint32_t shard_count = options_.shards;
  max_connections_per_shard_ =
      std::max<std::size_t>(1, options_.max_connections / shard_count);

  shards_.clear();
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    auto shard = std::make_unique<Shard>();
    shard->index = i;
    shard->server = this;
    shard->poller = make_poller(options_.backend);
    shards_.push_back(std::move(shard));
  }
  backend_name_ = shards_[0]->poller->name();

  // Accept path: SO_REUSEPORT listeners per shard where possible, else a
  // single listener on shard 0 handing fds off round-robin.
  reuseport_ = options_.accept_mode != AcceptMode::kHandoff;
  port_ = 0;
  int first = open_listener(reuseport_ && shard_count > 1);
  if (first < 0 && reuseport_ && shard_count > 1) {
    reuseport_ = false;  // platform without SO_REUSEPORT: hand off instead
    first = open_listener(false);
  }
  if (first < 0) {
    shards_.clear();
    return false;
  }
  if (shard_count == 1) reuseport_ = options_.accept_mode != AcceptMode::kHandoff;
  shards_[0]->listen_fd = first;

  sockaddr_in bound{};
  socklen_t bound_len = sizeof bound;
  if (::getsockname(first, reinterpret_cast<sockaddr*>(&bound), &bound_len) ==
      0) {
    port_ = ntohs(bound.sin_port);
  }

  bool ok = port_ != 0;
  if (ok && reuseport_ && shard_count > 1) {
    for (std::uint32_t i = 1; ok && i < shard_count; ++i) {
      shards_[i]->listen_fd = open_listener(true);
      ok = shards_[i]->listen_fd >= 0;
    }
  }
  for (auto& shard : shards_) {
    if (!ok) break;
    ok = ::pipe(shard->wake_fds) == 0 && set_nonblocking(shard->wake_fds[0]) &&
         set_nonblocking(shard->wake_fds[1]);
  }
  if (!ok) {
    teardown_listeners();
    shards_.clear();
    return false;
  }

  stop_requested_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    Shard* raw = shard.get();
    shard->thread = std::thread([this, raw] { loop(*raw); });
  }
  return true;
}

void HttpServer::stop() {
  if (!running_.load(std::memory_order_acquire)) return;
  stop_requested_.store(true, std::memory_order_release);
  for (auto& shard : shards_) wake(*shard);
  for (auto& shard : shards_) {
    if (shard->thread.joinable()) shard->thread.join();
  }
  teardown_listeners();
  running_.store(false, std::memory_order_release);
}

void HttpServer::wake(Shard& shard) {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = ::write(shard.wake_fds[1], &byte, 1);
}

HttpServer::Stats HttpServer::shard_stats(std::uint32_t shard) const {
  Stats stats;
  if (shard >= shards_.size()) return stats;
  const Shard& s = *shards_[shard];
  stats.connections_accepted = s.accepted.load(std::memory_order_relaxed);
  stats.connections_closed = s.closed.load(std::memory_order_relaxed);
  stats.requests = s.requests.load(std::memory_order_relaxed);
  stats.parse_errors = s.parse_errors.load(std::memory_order_relaxed);
  stats.idle_closed = s.idle_closed.load(std::memory_order_relaxed);
  stats.overloaded = s.overloaded.load(std::memory_order_relaxed);
  stats.active_connections =
      static_cast<std::int64_t>(stats.connections_accepted) -
      static_cast<std::int64_t>(stats.connections_closed);
  return stats;
}

HttpServer::Stats HttpServer::stats() const {
  Stats total;
  for (std::uint32_t i = 0; i < shards_.size(); ++i) {
    const Stats s = shard_stats(i);
    total.connections_accepted += s.connections_accepted;
    total.connections_closed += s.connections_closed;
    total.requests += s.requests;
    total.parse_errors += s.parse_errors;
    total.idle_closed += s.idle_closed;
    total.overloaded += s.overloaded;
    total.active_connections += s.active_connections;
  }
  return total;
}

std::uint64_t HttpServer::requests_served() const {
  std::uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard->requests.load(std::memory_order_relaxed);
  }
  return total;
}

void HttpServer::loop(Shard& shard) {
  Poller& poller = *shard.poller;
  poller.add(shard.wake_fds[0], /*want_read=*/true, /*want_write=*/false);
  if (shard.listen_fd >= 0) {
    poller.add(shard.listen_fd, /*want_read=*/true, /*want_write=*/false);
  }
  bool listening = shard.listen_fd >= 0;

  while (true) {
    const bool stopping = stop_requested_.load(std::memory_order_acquire);
    if (stopping && inflight_.load(std::memory_order_acquire) == 0) break;
    if (stopping && listening) {
      // Stop accepting; drain in-flight work and condemned connections.
      poller.modify(shard.listen_fd, false, false);
      listening = false;
    }

    const int ready = poller.wait(shard.events, /*timeout_ms=*/100);
    const auto tick = now();
    drain_completions(shard);
    drain_handoff(shard, tick);
    if (ready > 0) {
      for (const Poller::Event& event : shard.events) {
        if (event.fd == shard.wake_fds[0]) {
          char buf[64];
          while (::read(shard.wake_fds[0], buf, sizeof buf) > 0) {
          }
          continue;
        }
        if (event.fd == shard.listen_fd) {
          if (!stopping) accept_ready(shard, tick);
          continue;
        }
        const auto fd_it = shard.fd_index.find(event.fd);
        if (fd_it == shard.fd_index.end()) continue;  // closed meanwhile
        const std::uint64_t id = fd_it->second;
        if (event.error) {
          close_connection(shard, id);
          continue;
        }
        if (event.readable || event.hangup) {
          read_ready(shard, shard.connections.at(id), tick);
          if (shard.connections.find(id) == shard.connections.end()) continue;
        }
        if (event.writable) write_ready(shard, shard.connections.at(id));
        const auto it = shard.connections.find(id);
        if (it != shard.connections.end()) update_interest(shard, it->second);
      }
    }

    // Idle sweep: drop keep-alive connections with nothing in flight.
    // `tick` comes from the injected clock, so tests drive the timeout
    // deterministically.
    std::vector<std::uint64_t> idle;
    for (const auto& [id, connection] : shard.connections) {
      if (!connection.busy && connection.pending.empty() &&
          connection.outq.empty() &&
          tick - connection.last_activity > options_.idle_timeout) {
        idle.push_back(id);
      }
    }
    for (const std::uint64_t id : idle) {
      shard.idle_closed.fetch_add(1, std::memory_order_relaxed);
      if (options_.on_connection_dropped) {
        options_.on_connection_dropped("idle");
      }
      close_connection(shard, id);
    }
  }

  drain_completions(shard);
  for (auto& [id, connection] : shard.connections) {
    shard.poller->remove(connection.fd);
    ::close(connection.fd);
    shard.closed.fetch_add(1, std::memory_order_relaxed);
  }
  shard.connections.clear();
  shard.fd_index.clear();
}

void HttpServer::accept_ready(Shard& shard,
                              std::chrono::steady_clock::time_point now) {
  for (;;) {
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const int fd = ::accept(shard.listen_fd,
                            reinterpret_cast<sockaddr*>(&peer), &peer_len);
    if (fd < 0) return;  // EAGAIN or transient error: back to poll

    char name[INET_ADDRSTRLEN] = {0};
    std::string peer_text;
    if (::inet_ntop(AF_INET, &peer.sin_addr, name, sizeof name) != nullptr) {
      peer_text = name;
    }

    if (!reuseport_ && shards_.size() > 1) {
      // Handoff accept: shard 0 owns the only listener and deals fds
      // round-robin; remote shards adopt them from their inbox.
      const std::uint32_t target =
          handoff_cursor_++ % static_cast<std::uint32_t>(shards_.size());
      if (target != shard.index) {
        Shard& remote = *shards_[target];
        {
          std::lock_guard lock(remote.inbox_mutex);
          remote.handoff.emplace_back(fd, std::move(peer_text));
        }
        wake(remote);
        continue;
      }
    }
    adopt_fd(shard, fd, std::move(peer_text), now);
  }
}

void HttpServer::drain_handoff(Shard& shard,
                               std::chrono::steady_clock::time_point now) {
  std::vector<std::pair<int, std::string>> batch;
  {
    std::lock_guard lock(shard.inbox_mutex);
    batch.swap(shard.handoff);
  }
  for (auto& [fd, peer] : batch) adopt_fd(shard, fd, std::move(peer), now);
}

void HttpServer::adopt_fd(Shard& shard, int fd, std::string peer,
                          std::chrono::steady_clock::time_point now) {
  if (shard.connections.size() >= max_connections_per_shard_) {
    // Best-effort 503 on the fresh (still-empty) socket and drop.
    shard.overloaded.fetch_add(1, std::memory_order_relaxed);
    if (options_.on_connection_dropped) {
      options_.on_connection_dropped("overload");
    }
    const std::string bytes = serialize_response(
        HttpResponse{503, "text/plain; charset=utf-8", "server busy\n", {}, {}},
        /*keep_alive=*/false);
    [[maybe_unused]] const ssize_t n =
        ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    ::close(fd);
    return;
  }
  if (!set_nonblocking(fd)) {
    ::close(fd);
    return;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);

  Connection connection;
  connection.fd = fd;
  // Shard index in the high bits keeps ids process-unique without a
  // shared counter; ids never recycle within a shard.
  connection.id = (static_cast<std::uint64_t>(shard.index) << 48) |
                  shard.next_connection_seq++;
  connection.peer = std::move(peer);
  connection.parser = RequestParser(options_.parser_limits);
  connection.last_activity = now;
  connection.interest = 1;  // read
  if (!shard.poller->add(fd, /*want_read=*/true, /*want_write=*/false)) {
    ::close(fd);
    return;
  }
  shard.accepted.fetch_add(1, std::memory_order_relaxed);
  shard.fd_index.emplace(fd, connection.id);
  shard.connections.emplace(connection.id, std::move(connection));
}

void HttpServer::read_ready(Shard& shard, Connection& connection,
                            std::chrono::steady_clock::time_point now) {
  char buf[8192];
  for (;;) {
    const ssize_t n = ::recv(connection.fd, buf, sizeof buf, 0);
    if (n > 0) {
      connection.last_activity = now;
      if (!connection.parser.feed(
              std::string_view(buf, static_cast<std::size_t>(n)))) {
        shard.parse_errors.fetch_add(1, std::memory_order_relaxed);
        break;  // parser is now failed; handled below
      }
      continue;
    }
    if (n == 0) {  // peer closed its write side
      close_connection(shard, connection.id);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    close_connection(shard, connection.id);
    return;
  }

  while (auto request = connection.parser.next()) {
    request->client = connection.peer;
    request->shard = shard.index;
    connection.pending.push_back(std::move(*request));
  }
  pump(shard, connection);
  write_ready(shard, connection);
}

void HttpServer::pump(Shard& shard, Connection& connection) {
  while (!connection.busy && !connection.close_after_flush &&
         !connection.pending.empty()) {
    HttpRequest request = std::move(connection.pending.front());
    connection.pending.pop_front();
    shard.requests.fetch_add(1, std::memory_order_relaxed);
    request.request_id = mint_request_id();
    const bool keep_alive = request.keep_alive;
    if (executor_) {
      connection.busy = true;
      inflight_.fetch_add(1, std::memory_order_acq_rel);
      const std::uint64_t id = connection.id;
      Shard* home = &shard;
      executor_([this, home, id, request = std::move(request), keep_alive] {
        HttpResponse response = handler_(request);
        response.headers.emplace_back("X-Ripki-Request-Id",
                                      request.request_id);
        {
          std::lock_guard lock(home->inbox_mutex);
          home->completions.push_back({id, std::move(response), keep_alive});
        }
        inflight_.fetch_sub(1, std::memory_order_acq_rel);
        wake(*home);
      });
      return;  // strictly one in-flight handler per connection
    }
    HttpResponse response = handler_(request);
    response.headers.emplace_back("X-Ripki-Request-Id", request.request_id);
    queue_response(connection, std::move(response), keep_alive);
  }

  // A failed parser condemns the connection once in-order responses for
  // everything parsed before the error have been queued.
  if (connection.parser.failed() && !connection.busy &&
      connection.pending.empty() && !connection.close_after_flush) {
    queue_response(connection,
                   HttpResponse{400, "text/plain; charset=utf-8",
                                "malformed request\n", {}, {}},
                   /*keep_alive=*/false);
  }
}

void HttpServer::queue_response(Connection& connection,
                                HttpResponse&& response, bool keep_alive) {
  OutChunk chunk;
  chunk.head = std::move(connection.spare_head);
  chunk.head.clear();
  serialize_head_into(chunk.head, response, keep_alive);
  if (response.shared_body) {
    // Zero-copy: the body iovec points straight into cache storage; the
    // reference keeps the entry alive until the bytes are flushed.
    chunk.body = std::move(response.shared_body);
  } else {
    chunk.head += response.body;
  }
  connection.outq.push_back(std::move(chunk));
  if (!keep_alive) {
    connection.close_after_flush = true;
    connection.pending.clear();
  }
}

void HttpServer::drain_completions(Shard& shard) {
  std::vector<Completion> batch;
  {
    std::lock_guard lock(shard.inbox_mutex);
    batch.swap(shard.completions);
  }
  for (auto& completion : batch) {
    const auto it = shard.connections.find(completion.connection_id);
    if (it == shard.connections.end()) continue;  // connection died meanwhile
    Connection& connection = it->second;
    connection.busy = false;
    queue_response(connection, std::move(completion.response),
                   completion.keep_alive);
    connection.last_activity = now();
    if (completion.keep_alive) pump(shard, connection);
    if (shard.connections.find(completion.connection_id) !=
        shard.connections.end()) {
      write_ready(shard, connection);
      const auto again = shard.connections.find(completion.connection_id);
      if (again != shard.connections.end()) {
        update_interest(shard, again->second);
      }
    }
  }
}

void HttpServer::write_ready(Shard& shard, Connection& connection) {
  while (!connection.outq.empty()) {
    // Scatter-gather: one iovec for each chunk's head and one for its
    // borrowed body, the front chunk offset by what is already written.
    shard.iov.clear();
    std::size_t skip = connection.out_offset;
    for (const OutChunk& chunk : connection.outq) {
      if (shard.iov.size() >= kMaxIov) break;
      std::size_t head_skip = std::min(skip, chunk.head.size());
      skip -= head_skip;
      if (chunk.head.size() > head_skip) {
        shard.iov.push_back(
            {const_cast<char*>(chunk.head.data()) + head_skip,
             chunk.head.size() - head_skip});
      }
      if (chunk.body) {
        std::size_t body_skip = std::min(skip, chunk.body->size());
        skip -= body_skip;
        if (chunk.body->size() > body_skip) {
          shard.iov.push_back(
              {const_cast<char*>(chunk.body->data()) + body_skip,
               chunk.body->size() - body_skip});
        }
      }
    }
    if (shard.iov.empty()) {  // fully-written chunks not yet popped
      connection.outq.clear();
      connection.out_offset = 0;
      break;
    }

    const ssize_t n = sendv(connection.fd, shard.iov.data(), shard.iov.size());
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      close_connection(shard, connection.id);
      return;
    }

    // Consume `n` bytes off the queue front, recycling flushed heads.
    std::size_t written = connection.out_offset + static_cast<std::size_t>(n);
    while (!connection.outq.empty()) {
      OutChunk& front = connection.outq.front();
      const std::size_t chunk_size =
          front.head.size() + (front.body ? front.body->size() : 0);
      if (written < chunk_size) break;
      written -= chunk_size;
      connection.spare_head = std::move(front.head);
      connection.spare_head.clear();
      connection.outq.pop_front();
    }
    connection.out_offset = written;
  }

  if (connection.outq.empty() && connection.close_after_flush &&
      !connection.busy) {
    close_connection(shard, connection.id);
  }
}

void HttpServer::update_interest(Shard& shard, Connection& connection) {
  unsigned want = 0;
  // Stop reading once the connection is condemned; flush and close.
  if (!connection.close_after_flush) want |= 1;
  if (!connection.outq.empty()) want |= 2;
  if (want == connection.interest) return;
  connection.interest = want;
  shard.poller->modify(connection.fd, (want & 1) != 0, (want & 2) != 0);
}

void HttpServer::close_connection(Shard& shard, std::uint64_t id) {
  const auto it = shard.connections.find(id);
  if (it == shard.connections.end()) return;
  // A busy connection still has a handler in flight whose completion will
  // look this id up; erasing now is safe (the completion is dropped), and
  // the fd must go regardless so a dead peer cannot pin resources.
  shard.poller->remove(it->second.fd);
  shard.fd_index.erase(it->second.fd);
  ::close(it->second.fd);
  shard.connections.erase(it);
  shard.closed.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace ripki::serve
