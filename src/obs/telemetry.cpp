#include "obs/telemetry.hpp"

#include <algorithm>
#include <chrono>
#include <sstream>
#include <thread>
#include <utility>

#include "obs/profiler.hpp"
#include "obs/request_context.hpp"
#include "obs/sched.hpp"
#include "util/strings.hpp"
#include "util/url.hpp"

namespace ripki::obs {

using serve::HttpResponse;

namespace {

/// Value of `key` in a query string ("seconds=2&format=json"); empty when
/// absent or valueless.
std::string_view query_param(std::string_view query, std::string_view key) {
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key) {
      return pair.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return {};
}

constexpr const char* kText = "text/plain; charset=utf-8";

}  // namespace

HttpResponse profile_capture(SamplingProfiler* profiler,
                             std::string_view query) {
  if (profiler == nullptr) {
    return HttpResponse{503, kText, "no profiler configured\n", {}};
  }
  std::uint64_t seconds = 2;
  if (const std::string_view v = query_param(query, "seconds"); !v.empty()) {
    if (!util::parse_u64(v, seconds)) {
      return HttpResponse{400, kText, "seconds must be a decimal integer\n",
                          {}};
    }
  }
  seconds = std::clamp<std::uint64_t>(seconds, 1, 30);
  const std::string_view format = query_param(query, "format");
  const bool as_json = format == "json";
  if (!format.empty() && !as_json && format != "folded") {
    return HttpResponse{400, kText, "format must be folded or json\n", {}};
  }

  // Window from the current capture sequence so a previous capture's
  // samples (one-shot leftovers or always-on history) are excluded.
  const std::uint64_t from = profiler->sequence();
  const bool one_shot = !profiler->running();
  if (one_shot && !profiler->start()) {
    return HttpResponse{503, kText,
                        "SIGPROF is owned by another profiler instance\n",
                        {}};
  }
  std::this_thread::sleep_for(std::chrono::seconds(seconds));
  if (one_shot) profiler->stop();

  HttpResponse response;
  if (as_json) {
    response.content_type = "application/json";
    response.body = profiler->json(from);
  } else {
    response.body = profiler->folded(from);
  }
  return response;
}

// --- health ----------------------------------------------------------------

void HealthRegistry::set(std::string_view subsystem, bool healthy,
                         std::string_view detail) {
  std::lock_guard lock(mutex_);
  statuses_[std::string(subsystem)] =
      HealthStatus{healthy, std::string(detail)};
}

std::vector<HealthRegistry::Result> HealthRegistry::evaluate() const {
  std::lock_guard lock(mutex_);
  std::vector<Result> out;
  out.reserve(statuses_.size());
  for (const auto& [name, status] : statuses_) {
    out.push_back(Result{name, status});
  }
  return out;
}

bool HealthRegistry::healthy() const {
  for (const auto& result : evaluate()) {
    if (!result.status.healthy) return false;
  }
  return true;
}

// --- HTTP server -----------------------------------------------------------

TelemetryServer::TelemetryServer(Options options, EventTracer* tracer,
                                 LogRing* log_ring, HealthRegistry* health)
    : tracer_(tracer),
      log_ring_(log_ring),
      health_(health),
      server_(serve::HttpServerOptions{
          .port = options.port,
          .bind_address = std::move(options.bind_address),
          // Telemetry is a scrape target, not a public API: a handful of
          // collectors, small responses, handlers cheap enough to run
          // inline on the loop thread.
          .max_connections = 64,
          .idle_timeout = std::chrono::milliseconds(10'000),
          .parser_limits = {},
          .clock = {},
          .on_connection_dropped = {},
      }) {
  server_.set_handler([this](const serve::HttpRequest& request) {
    // Request-scoped telemetry: while the handler runs, spans and log
    // records carry the id echoed in X-Ripki-Request-Id.
    RequestContext context(RequestContext::parse_id(request.request_id),
                           std::chrono::steady_clock::now());
    RequestScope scope(&context);
    return dispatch(request.method, request.target);
  });
  register_builtin_routes();
}

TelemetryServer::~TelemetryServer() { stop(); }

void TelemetryServer::register_builtin_routes() {
  set_handler("/", [this] {
    HttpResponse response;
    std::ostringstream os;
    os << "ripki telemetry\n\n";
    std::lock_guard lock(handlers_mutex_);
    for (const auto& [path, handler] : handlers_) os << path << '\n';
    response.body = os.str();
    return response;
  });
  set_handler("/healthz", [this] {
    HttpResponse response;
    if (health_ == nullptr) {
      response.body = "ok (no health registry configured)\n";
      return response;
    }
    std::ostringstream os;
    bool all_healthy = true;
    for (const auto& result : health_->evaluate()) {
      all_healthy = all_healthy && result.status.healthy;
      os << (result.status.healthy ? "ok   " : "FAIL ") << result.subsystem;
      if (!result.status.detail.empty()) os << ": " << result.status.detail;
      os << '\n';
    }
    if (!all_healthy) response.status = 503;
    os << (all_healthy ? "healthy\n" : "unhealthy\n");
    response.body = os.str();
    return response;
  });
  set_handler("/tracez", [this] {
    HttpResponse response;
    response.content_type = "application/json";
    response.body = tracer_ == nullptr ? "{\"traceEvents\":[]}\n"
                                       : trace_json(*tracer_);
    return response;
  });
  set_handler("/schedz", [this] {
    HttpResponse response;
    if (sched_ == nullptr) {
      response.body = "(no scheduler telemetry configured)\n";
      return response;
    }
    response.content_type = "application/json";
    response.body = sched_->render_json();
    return response;
  });
  set_handler("/logz", [this] {
    HttpResponse response;
    if (log_ring_ == nullptr) {
      response.body = "(no log ring configured)\n";
      return response;
    }
    std::ostringstream os;
    log_ring_->render(os);
    response.body = os.str();
    return response;
  });
}

void TelemetryServer::set_handler(std::string path, HttpHandler handler) {
  std::lock_guard lock(handlers_mutex_);
  handlers_[std::move(path)] = std::move(handler);
}

HttpResponse TelemetryServer::dispatch(std::string_view method,
                                       std::string_view target) const {
  if (method != "GET") {
    return HttpResponse{405, "text/plain; charset=utf-8",
                        "only GET is supported\n", {}};
  }
  const std::string_view path = util::split_target(target).path;
  HttpHandler handler;
  {
    std::lock_guard lock(handlers_mutex_);
    if (const auto it = handlers_.find(path); it != handlers_.end()) {
      handler = it->second;
    }
  }
  if (!handler) {
    return HttpResponse{404, "text/plain; charset=utf-8",
                        "not found; GET / lists endpoints\n", {}};
  }
  return handler();
}

bool TelemetryServer::start() { return server_.start(); }

void TelemetryServer::stop() { server_.stop(); }

}  // namespace ripki::obs
