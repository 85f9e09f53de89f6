#include "serve/service.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <utility>
#include <vector>

#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "util/strings.hpp"
#include "util/url.hpp"

namespace ripki::serve {

namespace {

constexpr const char* kJson = "application/json";
constexpr const char* kText = "text/plain; charset=utf-8";

/// Finished requests kept in the /accessz ring, across all shards.
constexpr std::size_t kAccessLogCapacity = 256;
/// Slowest requests kept per endpoint in the /slowz rings.
constexpr std::size_t kSlowRequestsPerEndpoint = 8;

/// The endpoint tags handle() files a request under, each with its
/// ripki.serve.latency.<endpoint> histogram.
constexpr std::string_view kEndpoints[] = {
    "domain", "ip", "prefix", "summary", "cached", "rejected", "admin",
    "other"};

HttpResponse json_ok(std::string body) {
  return HttpResponse{200, kJson, std::move(body), {}};
}

HttpResponse error_response(int status, std::string message) {
  return HttpResponse{status, kText, std::move(message), {}};
}

/// Parses an ASN segment as a bare 32-bit decimal ("65001").
bool parse_asn(std::string_view text, net::Asn& out) {
  std::uint64_t value = 0;
  if (!util::parse_u64(text, value) || value > 0xFFFFFFFFull) return false;
  out = net::Asn(static_cast<std::uint32_t>(value));
  return true;
}

}  // namespace

QueryService::QueryService(QueryServiceOptions options)
    : options_(std::move(options)),
      server_(http_options_with_drop_hook()),
      limiter_(options_.rate_limit),
      slow_(kSlowRequestsPerEndpoint) {
  // One response cache and one access-log ring per reactor shard, the
  // global budgets split evenly. The limiter stays a single shared
  // instance so client budgets are shard-count-invariant.
  const std::uint32_t shard_count =
      std::max<std::uint32_t>(1, options_.http.shards);
  ResponseCache::Options cache_options = options_.cache;
  cache_options.capacity =
      std::max<std::size_t>(1, cache_options.capacity / shard_count);
  const std::size_t log_capacity =
      std::max<std::size_t>(1, kAccessLogCapacity / shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    caches_.push_back(std::make_unique<ResponseCache>(cache_options));
    access_logs_.push_back(std::make_unique<AccessLog>(log_capacity));
  }
  server_.set_handler([this](const HttpRequest& request) {
    return handle(request);
  });
  if (options_.pool != nullptr) {
    exec::ThreadPool* pool = options_.pool;
    server_.set_executor([pool](std::function<void()> task) {
      pool->submit(std::move(task));
    });
  }
  if (obs::Registry* registry = options_.registry) {
    requests_counter_ = &registry->counter("ripki.serve.requests_total");
    registry->describe("ripki.serve.requests_total",
                       "Query API requests handled");
    cache_hits_counter_ = &registry->counter("ripki.serve.cache_hits");
    cache_misses_counter_ = &registry->counter("ripki.serve.cache_misses");
    cache_evictions_counter_ = &registry->counter("ripki.serve.cache_evictions");
    registry->describe("ripki.serve.cache_hits",
                       "Response cache hits (fresh entries served)");
    registry->describe("ripki.serve.cache_misses",
                       "Response cache lookups that missed or were stale");
    registry->describe("ripki.serve.cache_evictions",
                       "Response cache entries evicted to make room");
    rejected_counter_ = &registry->counter("ripki.serve.ratelimit_rejected");
    registry->describe("ripki.serve.ratelimit_rejected",
                       "Requests answered 429 by the token-bucket limiter");
    dropped_overload_counter_ =
        &registry->counter("ripki.serve.conn_dropped{reason=overload}");
    registry->describe("ripki.serve.conn_dropped{reason=overload}",
                       "Connections dropped by the server, by reason");
    dropped_idle_counter_ =
        &registry->counter("ripki.serve.conn_dropped{reason=idle}");
    registry->describe("ripki.serve.conn_dropped{reason=idle}",
                       "Connections dropped by the server, by reason");
    generation_gauge_ = &registry->gauge("ripki.serve.snapshot_generation");
    registry->describe("ripki.serve.snapshot_generation",
                       "Generation number of the served snapshot");
    // Shard-labeled slices of the fleet counters, one set per reactor
    // shard; the unlabeled series above stay as the aggregates.
    shard_metrics_.resize(shard_count);
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      const std::string label = "{shard=" + std::to_string(i) + "}";
      const std::string requests = "ripki.serve.shard_requests" + label;
      const std::string hits = "ripki.serve.shard_cache_hits" + label;
      const std::string misses = "ripki.serve.shard_cache_misses" + label;
      const std::string active =
          "ripki.serve.shard_active_connections" + label;
      registry->describe(requests, "Requests handled, by reactor shard");
      registry->describe(hits, "Response cache hits, by reactor shard");
      registry->describe(misses, "Response cache misses, by reactor shard");
      registry->describe(active, "Open connections, by reactor shard");
      shard_metrics_[i].requests = &registry->counter(requests);
      shard_metrics_[i].cache_hits = &registry->counter(hits);
      shard_metrics_[i].cache_misses = &registry->counter(misses);
      shard_metrics_[i].active_connections = &registry->gauge(active);
    }
    for (const std::string_view endpoint : kEndpoints) {
      const std::string name = "ripki.serve.latency." + std::string(endpoint);
      registry->describe(name, "Request latency in microseconds, per endpoint");
      latency_.push_back(&registry->histogram(name));
    }
  }
}

HttpServerOptions QueryService::http_options_with_drop_hook() {
  HttpServerOptions http = options_.http;
  // Chain rather than replace any hook the embedder installed.
  auto embedder_hook = std::move(http.on_connection_dropped);
  http.on_connection_dropped =
      [this, embedder_hook = std::move(embedder_hook)](std::string_view reason) {
        on_connection_dropped(reason);
        if (embedder_hook) embedder_hook(reason);
      };
  return http;
}

void QueryService::on_connection_dropped(std::string_view reason) {
  obs::Counter* counter = reason == "overload" ? dropped_overload_counter_
                          : reason == "idle"   ? dropped_idle_counter_
                                               : nullptr;
  if (counter != nullptr) counter->inc();
}

QueryService::~QueryService() { stop(); }

bool QueryService::start() { return server_.start(); }

void QueryService::stop() { server_.stop(); }

void QueryService::publish(std::shared_ptr<const Snapshot> snapshot) {
  const std::uint64_t generation = snapshot ? snapshot->generation() : 0;
  {
    std::lock_guard lock(snapshot_mutex_);
    snapshot_.swap(snapshot);
  }
  // `snapshot` now holds the previous one; if that is its last reference,
  // it is freed when publish returns, outside the lock.
  //
  // Entries rendered from the previous snapshot are stale the moment the
  // swap lands. Each entry carries its generation, so a body a request on
  // the old snapshot stores after this clear is never served to a request
  // on the new one; the clear only frees them. Readers already past the
  // cache keep their old snapshot reference and stay internally
  // consistent. In-flight zero-copy writes of evicted bodies hold their
  // own shared references and finish safely.
  for (auto& cache : caches_) cache->clear();
  if (generation_gauge_ != nullptr) {
    generation_gauge_->set(static_cast<std::int64_t>(generation));
  }
}

std::shared_ptr<const Snapshot> QueryService::snapshot() const {
  std::lock_guard lock(snapshot_mutex_);
  return snapshot_;
}

std::uint64_t QueryService::cache_hits() const {
  std::uint64_t total = 0;
  for (const auto& cache : caches_) total += cache->hits();
  return total;
}

std::uint64_t QueryService::cache_misses() const {
  std::uint64_t total = 0;
  for (const auto& cache : caches_) total += cache->misses();
  return total;
}

std::uint64_t QueryService::cache_evictions() const {
  std::uint64_t total = 0;
  for (const auto& cache : caches_) total += cache->evictions();
  return total;
}

std::size_t QueryService::cache_size() const {
  std::size_t total = 0;
  for (const auto& cache : caches_) total += cache->size();
  return total;
}

double QueryService::cache_hit_rate() const {
  const std::uint64_t h = cache_hits(), m = cache_misses();
  return h + m == 0 ? 0.0
                    : static_cast<double>(h) / static_cast<double>(h + m);
}

void QueryService::publish_metrics() {
  // Counter handles are pre-resolved; set() mirrors the authoritative
  // atomics kept by the caches/limiter (a few relaxed stores per request).
  if (cache_hits_counter_ == nullptr) return;
  cache_hits_counter_->set(cache_hits());
  cache_misses_counter_->set(cache_misses());
  cache_evictions_counter_->set(cache_evictions());
  rejected_counter_->set(limiter_.rejected());
  for (std::uint32_t i = 0; i < shard_metrics_.size(); ++i) {
    const HttpServer::Stats stats = server_.shard_stats(i);
    shard_metrics_[i].requests->set(stats.requests);
    shard_metrics_[i].cache_hits->set(caches_[i]->hits());
    shard_metrics_[i].cache_misses->set(caches_[i]->misses());
    shard_metrics_[i].active_connections->set(stats.active_connections);
  }
}

std::string QueryService::shards_json() const {
  std::string out = "[";
  for (std::uint32_t i = 0; i < server_.shard_count(); ++i) {
    const HttpServer::Stats stats = server_.shard_stats(i);
    const ResponseCache& cache =
        *caches_[i < caches_.size() ? i : caches_.size() - 1];
    if (i != 0) out += ',';
    out += "{\"shard\":" + std::to_string(i);
    out += ",\"accepted\":" + std::to_string(stats.connections_accepted);
    out += ",\"active\":" + std::to_string(stats.active_connections);
    out += ",\"requests\":" + std::to_string(stats.requests);
    out += ",\"parse_errors\":" + std::to_string(stats.parse_errors);
    out += ",\"cache_hits\":" + std::to_string(cache.hits());
    out += ",\"cache_misses\":" + std::to_string(cache.misses());
    char rate[32];
    std::snprintf(rate, sizeof rate, "%.4f", cache.hit_rate());
    out += ",\"cache_hit_rate\":" + std::string(rate);
    out += ",\"conn_dropped\":{\"overload\":" + std::to_string(stats.overloaded);
    out += ",\"idle\":" + std::to_string(stats.idle_closed) + "}}";
  }
  out += "]";
  return out;
}

HttpResponse QueryService::admin(const HttpRequest& request) {
  if (request.path == "/accessz") {
    // Every shard's window, shard 0 first (rings are per-shard so the
    // recording hot path stays shard-local).
    std::string body;
    for (const auto& log : access_logs_) body += log->render_text();
    return HttpResponse{200, kText, std::move(body), {}};
  }
  if (request.path == "/slowz") return json_ok(slow_.render_json());
  // /pprofz — blocks this handler thread (an executor worker, or the
  // event loop when no pool is installed) for the capture duration.
  return obs::profile_capture(options_.profiler, request.query);
}

HttpResponse QueryService::handle(const HttpRequest& request) {
  const auto started = std::chrono::steady_clock::now();
  if (requests_counter_ != nullptr) requests_counter_->inc();

  // Request-scoped telemetry: every span closed while the handler runs
  // accumulates on this context (the span tree /slowz shows) and every
  // log record picks up the request id from the wire header.
  obs::RequestContext context(
      obs::RequestContext::parse_id(request.request_id), started);
  obs::RequestScope scope(&context);

  HttpResponse response;
  const char* endpoint = "other";
  {
    // Scoped so the handle span itself lands in the context before the
    // slow-request ring reads it.
    obs::Span span(options_.registry, "serve.handle");
    if (request.method != "GET") {
      response = error_response(405, "only GET is supported\n");
    } else if (request.path == "/accessz" || request.path == "/slowz" ||
               request.path == "/pprofz") {
      // Before the limiter: diagnostics must stay reachable under load.
      endpoint = "admin";
      response = admin(request);
    } else if (!limiter_.allow(
                   request.client.empty() ? "local" : request.client,
                   std::chrono::steady_clock::now())) {
      response = error_response(429, "rate limit exceeded\n");
      response.headers.push_back({"Retry-After", "1"});
      endpoint = "rejected";
    } else {
      response = route(request, snapshot(), &endpoint);
    }
  }

  const auto elapsed = std::chrono::steady_clock::now() - started;
  const std::uint64_t duration_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
  if (options_.registry != nullptr) {
    const auto tag = std::find(std::begin(kEndpoints), std::end(kEndpoints),
                               endpoint);
    assert(tag != std::end(kEndpoints));
    latency_[tag - std::begin(kEndpoints)]->observe(
        std::chrono::duration<double, std::micro>(elapsed).count());
    publish_metrics();
  }

  AccessLog& log =
      *access_logs_[request.shard < access_logs_.size() ? request.shard : 0];
  log.record(AccessLog::Entry{
      .seq = 0,
      .request_id = request.request_id,
      .client = request.client,
      .method = request.method,
      .target = request.target,
      .endpoint = endpoint,
      .status = response.status,
      .duration_us = duration_us,
  });
  slow_.offer(SlowRequestRecorder::Entry{
      .request_id = request.request_id,
      .client = request.client,
      .method = request.method,
      .target = request.target,
      .endpoint = endpoint,
      .status = response.status,
      .duration_us = duration_us,
      .spans = context.take_spans(),
      .spans_dropped = context.spans_dropped(),
  });
  return response;
}

HttpResponse QueryService::route(const HttpRequest& request,
                                 const std::shared_ptr<const Snapshot>& snapshot,
                                 const char** endpoint) {
  const auto segments = util::split_path_segments(request.path);
  if (!segments.has_value()) {
    return error_response(400, "malformed percent-encoding in path\n");
  }

  if (segments->empty()) {
    return HttpResponse{200, kText,
                        "ripki query api\n\n"
                        "/v1/domain/<name>\n"
                        "/v1/ip/<addr>\n"
                        "/v1/prefix/<prefix>/<asn>\n"
                        "/v1/summary\n"
                        "/accessz\n"
                        "/slowz\n"
                        "/pprofz\n",
                        {}};
  }
  if ((*segments)[0] != "v1") {
    return error_response(404, "not found; GET / lists endpoints\n");
  }
  if (snapshot == nullptr) {
    return error_response(503, "no snapshot published yet\n");
  }

  // Cache on the raw target: distinct encodings of one resource are
  // distinct keys, which costs duplicate entries but never correctness.
  // The cache is this request's reactor shard's — no cross-shard locks.
  ResponseCache& cache =
      *caches_[request.shard < caches_.size() ? request.shard : 0];
  const bool cacheable = request.method == "GET";
  if (cacheable) {
    if (auto cached = cache.get(request.target, snapshot->generation())) {
      // Zero-copy hit: hand the socket layer a reference into cache
      // storage; no body bytes are copied on this path.
      *endpoint = "cached";
      HttpResponse response;
      response.content_type = kJson;
      response.shared_body = std::move(cached);
      return response;
    }
  }

  HttpResponse response;
  const std::vector<std::string>& path = *segments;
  if (path.size() == 3 && path[1] == "domain") {
    *endpoint = "domain";
    obs::Span span(options_.registry, "domain");
    const auto record = snapshot->find_domain(path[2]);
    response = !record
                   ? error_response(404, "unknown domain\n")
                   : json_ok(Snapshot::render_domain_json(
                         *record, snapshot->generation()));
  } else if (path.size() == 3 && path[1] == "ip") {
    *endpoint = "ip";
    obs::Span span(options_.registry, "ip");
    const auto address = net::IpAddress::parse(path[2]);
    response = address.ok()
                   ? json_ok(snapshot->ip_json(address.value()))
                   : error_response(400, "unparseable IP address\n");
  } else if ((path.size() == 4 || path.size() == 5) && path[1] == "prefix") {
    *endpoint = "prefix";
    obs::Span span(options_.registry, "prefix");
    // Either ["v1","prefix","10.0.0.0/16","65001"] (encoded slash) or
    // ["v1","prefix","10.0.0.0","16","65001"] (plain slash).
    const std::string prefix_text =
        path.size() == 4 ? path[2] : path[2] + "/" + path[3];
    const auto prefix = net::Prefix::parse(prefix_text);
    net::Asn origin;
    if (!prefix.ok() || !parse_asn(path.back(), origin)) {
      response = error_response(400, "expected /v1/prefix/<prefix>/<asn>\n");
    } else {
      response = json_ok(snapshot->prefix_json(prefix.value(), origin));
    }
  } else if (path.size() == 2 && path[1] == "summary") {
    *endpoint = "summary";
    obs::Span span(options_.registry, "summary");
    response = json_ok(snapshot->summary_json());
  } else {
    response = error_response(404, "not found; GET / lists endpoints\n");
  }

  if (cacheable && response.status == 200) {
    // Move the rendered body into the cache and serve this response from
    // the stored reference too — the fill request is also zero-copy.
    response.shared_body = cache.put(request.target, snapshot->generation(),
                                     std::move(response.body));
    response.body.clear();
  }
  return response;
}

}  // namespace ripki::serve
