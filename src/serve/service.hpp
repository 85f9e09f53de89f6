// The production query service: the HTTP event-loop server wired to the
// latest measurement Snapshot, fronted by a per-client token-bucket rate
// limiter and a sharded response cache.
//
// Request path (handle(), also callable socket-free from tests):
//
//   rate limiter -> response cache -> snapshot lookup -> cache fill
//
// Every request runs under an obs::RequestScope carrying the id the
// socket layer minted (echoed as X-Ripki-Request-Id), is recorded in a
// bounded structured access log, and is offered to a K-worst-per-endpoint
// slow-request ring together with the span tree collected while it ran.
// Admin endpoints — this service's own diagnostics, served only on its
// port and before the rate limiter, so they stay reachable under load:
//   /accessz                 access-log window, key=value text
//   /slowz                   slow-request rings + span trees, JSON
//   /pprofz?seconds=N        timed CPU profile (requires a profiler); the
//                            capture blocks one handler thread, an
//                            executor worker when a pool is installed
//
// Endpoints (all JSON):
//   /v1/domain/<name>        per-domain coverage + prefix-AS validity
//   /v1/ip/<addr>            covering prefixes, origin ASes, validity
//   /v1/prefix/<p>/<asn>     RFC 6811 outcome for one pair; the prefix
//                            may be one percent-encoded segment
//                            ("10.0.0.0%2F16") or two plain segments
//                            ("/v1/prefix/10.0.0.0/16/65001")
//   /v1/summary              rank-bin aggregates of the current snapshot
//
// Snapshot publication is RCU-style: publish() swaps a shared_ptr under a
// mutex and invalidates the cache; each request copies the pointer under
// the same mutex, so in-flight requests finish on the snapshot they
// already hold. (std::atomic<std::shared_ptr> is not used: libstdc++ 12's
// load unlocks with a relaxed store, which does not order its read before
// the next store's write.)
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "serve/access_log.hpp"
#include "serve/cache.hpp"
#include "serve/http.hpp"
#include "serve/ratelimit.hpp"
#include "serve/server.hpp"
#include "serve/snapshot.hpp"

namespace ripki::obs {
class Counter;
class Gauge;
class Histogram;
class Registry;
class SamplingProfiler;
}

namespace ripki::exec {
class ThreadPool;
}

namespace ripki::serve {

struct QueryServiceOptions {
  HttpServerOptions http;
  /// Per-reactor-shard response cache configuration. `capacity`, like
  /// the /accessz ring's capacity, is a GLOBAL budget, split evenly
  /// across the http.shards reactor shards (each shard keeps its own
  /// cache and log so the hot path never crosses shard boundaries).
  ResponseCache::Options cache;
  /// The rate limiter is deliberately NOT per-shard: one shared instance
  /// keyed by client address, so a client's aggregate budget is invariant
  /// under the reactor shard count (it cannot earn N× tokens by having
  /// its connections land on N shards).
  TokenBucketLimiter::Options rate_limit;
  /// Optional handler fan-out: requests execute on this pool instead of
  /// the event-loop thread (borrowed; stop() the service before the pool
  /// dies).
  exec::ThreadPool* pool = nullptr;
  /// Optional metrics (borrowed): hit/evict/reject counters under
  /// `ripki.serve.*` and per-endpoint latency histograms under
  /// `ripki.serve.latency.<endpoint>`.
  obs::Registry* registry = nullptr;
  /// Optional CPU profiler behind /pprofz (borrowed). A capture blocks
  /// one handler thread for its duration.
  obs::SamplingProfiler* profiler = nullptr;
};

class QueryService {
 public:
  explicit QueryService(QueryServiceOptions options);
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  bool start();
  void stop();
  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }

  /// Swaps in a new snapshot (RCU) and invalidates the response cache.
  void publish(std::shared_ptr<const Snapshot> snapshot);
  /// The currently served snapshot (nullptr before the first publish).
  std::shared_ptr<const Snapshot> snapshot() const;

  /// Full request path minus the sockets — public so tests and the
  /// telemetry /runz summary can exercise routing, limits, and caching
  /// without a connection.
  HttpResponse handle(const HttpRequest& request);

  /// One reactor shard's response cache (shard 0 always exists).
  const ResponseCache& cache(std::uint32_t shard = 0) const {
    return *caches_[shard < caches_.size() ? shard : 0];
  }
  /// Cache statistics aggregated across every reactor shard's cache.
  std::uint64_t cache_hits() const;
  std::uint64_t cache_misses() const;
  std::uint64_t cache_evictions() const;
  std::size_t cache_size() const;
  double cache_hit_rate() const;

  const TokenBucketLimiter& limiter() const { return limiter_; }
  const HttpServer& server() const { return server_; }
  /// One reactor shard's access-log ring (shard 0 always exists).
  const AccessLog& access_log(std::uint32_t shard = 0) const {
    return *access_logs_[shard < access_logs_.size() ? shard : 0];
  }
  const SlowRequestRecorder& slow_requests() const { return slow_; }
  std::uint64_t requests_served() const { return server_.requests_served(); }

  /// Per-shard fleet telemetry as a JSON array ("serve_shards"): one
  /// object per reactor shard with its connection counters, cache hit
  /// rate, and conn_dropped breakdown. Embedded by ripkid's /runz.
  std::string shards_json() const;

 private:
  HttpResponse route(const HttpRequest& request,
                     const std::shared_ptr<const Snapshot>& snapshot,
                     const char** endpoint);
  /// /accessz, /slowz, /pprofz — served before the rate limiter.
  HttpResponse admin(const HttpRequest& request);
  /// options_.http with the connection-drop hook chained in, so the
  /// server reports overload/idle drops into the conn_dropped counters.
  HttpServerOptions http_options_with_drop_hook();
  void on_connection_dropped(std::string_view reason);
  void publish_metrics();

  QueryServiceOptions options_;
  HttpServer server_;
  /// One cache + access-log ring per reactor shard, indexed by
  /// HttpRequest::shard — requests only ever touch their own shard's
  /// structures, so shards share no mutable service state either.
  std::vector<std::unique_ptr<ResponseCache>> caches_;
  std::vector<std::unique_ptr<AccessLog>> access_logs_;
  TokenBucketLimiter limiter_;  // shared: see QueryServiceOptions
  SlowRequestRecorder slow_;
  mutable std::mutex snapshot_mutex_;  // guards snapshot_
  std::shared_ptr<const Snapshot> snapshot_;

  // Pre-resolved metric handles (null when no registry).
  obs::Counter* requests_counter_ = nullptr;
  obs::Counter* cache_hits_counter_ = nullptr;
  obs::Counter* cache_misses_counter_ = nullptr;
  obs::Counter* cache_evictions_counter_ = nullptr;
  obs::Counter* rejected_counter_ = nullptr;
  obs::Counter* dropped_overload_counter_ = nullptr;
  obs::Counter* dropped_idle_counter_ = nullptr;
  obs::Gauge* generation_gauge_ = nullptr;
  /// ripki.serve.latency.<endpoint>, in kEndpoints order (service.cpp).
  std::vector<obs::Histogram*> latency_;
  /// Shard-labeled slices: ripki.serve.<name>{shard=i}.
  struct ShardMetrics {
    obs::Counter* requests = nullptr;
    obs::Counter* cache_hits = nullptr;
    obs::Counter* cache_misses = nullptr;
    obs::Gauge* active_connections = nullptr;
  };
  std::vector<ShardMetrics> shard_metrics_;
};

}  // namespace ripki::serve
