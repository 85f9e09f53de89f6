// Live telemetry exposition: per-subsystem health checks and the
// embedded telemetry endpoint surface, served by the shared HTTP/1.1
// event-loop core (serve::HttpServer) — keep-alive connections, no
// slow-client head-of-line blocking on an accept thread:
//
//   /            endpoint index
//   /metrics     Prometheus text exposition      (registered by core)
//   /metrics.json   registry as JSON             (registered by core)
//   /healthz     per-subsystem health, 200/503
//   /tracez      Chrome trace-event JSON (Perfetto / chrome://tracing):
//                the tracer's one timeline, spans and the scheduler's
//                per-worker tracks alike
//   /schedz      scheduler X-ray JSON (requires set_sched): per-worker
//                utilization, idle tail, stage attribution
//   /logz        log flight-recorder dump
//
// Handlers run inline on the event-loop thread, so every route here must
// be cheap. The request diagnostics (/accessz, /slowz) and the blocking
// /pprofz capture belong to the query API (serve::QueryService), whose
// handlers can run on an executor worker.
//
// The server owns no telemetry state — it borrows the tracer, log ring,
// and health registry, and dispatches everything else through registered
// handlers, so `core` can attach the registry exporters without `obs`
// depending on it. Dispatch is exposed directly (`dispatch()`) so tests
// can exercise routes without sockets.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/logring.hpp"
#include "obs/trace.hpp"
#include "serve/server.hpp"

namespace ripki::obs {

class SamplingProfiler;
class SchedTelemetry;

// --- health ----------------------------------------------------------------

struct HealthStatus {
  bool healthy = true;
  std::string detail;
};

/// Per-subsystem health, fed two ways: pipeline stages `set()` an outcome
/// imperatively after each run, and long-lived components can
/// `register_check()` a callback evaluated on every /healthz scrape.
class HealthRegistry {
 public:
  using Check = std::function<HealthStatus()>;

  void set(std::string_view subsystem, bool healthy,
           std::string_view detail = "");
  void register_check(std::string_view subsystem, Check check);

  struct Result {
    std::string subsystem;
    HealthStatus status;
  };

  /// Every subsystem (stored statuses merged with callback results),
  /// sorted by name.
  std::vector<Result> evaluate() const;
  /// True when every subsystem reports healthy (vacuously true when none
  /// are registered).
  bool healthy() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, HealthStatus, std::less<>> statuses_;
  std::map<std::string, Check, std::less<>> checks_;
};

// --- HTTP server -----------------------------------------------------------

using HttpHandler = std::function<serve::HttpResponse()>;

/// The query API's /pprofz (serve::QueryService): captures `seconds=N`
/// (clamped to [1, 30], default 2) of CPU profile and renders it as
/// `format=folded` (default) or `format=json`. A profiler that is already
/// running — always-on mode — is windowed via its capture sequence and
/// left running; otherwise the profiler is started for the capture and
/// stopped after. Blocks the calling thread for the capture duration. 503
/// when `profiler` is null or another profiler instance owns SIGPROF.
serve::HttpResponse profile_capture(SamplingProfiler* profiler,
                                    std::string_view query);

class TelemetryServer {
 public:
  struct Options {
    /// 0 picks an ephemeral port; the bound port is reported by port().
    std::uint16_t port = 0;
    std::string bind_address = "127.0.0.1";
  };

  /// All telemetry sources are borrowed and optional — a null source makes
  /// its endpoint report that it is not configured.
  TelemetryServer(Options options, EventTracer* tracer = nullptr,
                  LogRing* log_ring = nullptr, HealthRegistry* health = nullptr);
  ~TelemetryServer();

  TelemetryServer(const TelemetryServer&) = delete;
  TelemetryServer& operator=(const TelemetryServer&) = delete;

  /// Binds, listens, and starts the event loop. False on socket errors
  /// (port in use, say); the server stays stopped.
  bool start();
  /// Idempotent; joins the event-loop thread.
  void stop();
  bool running() const { return server_.running(); }
  /// The bound port (valid after a successful start()).
  std::uint16_t port() const { return server_.port(); }

  /// Registers/overrides a route ("/metrics", say): exact-match paths,
  /// query strings stripped before dispatch. One route per path:
  /// whichever was registered last wins.
  void set_handler(std::string path, HttpHandler handler);

  /// Enables the /schedz route (borrowed; outlive the server). Install
  /// before start().
  void set_sched(SchedTelemetry* sched) { sched_ = sched; }

  /// Routes a request the way the socket path does — 404 for unknown
  /// paths, 405 for anything but GET. Public so tests can hit routes
  /// without opening sockets.
  serve::HttpResponse dispatch(std::string_view method,
                               std::string_view target) const;

  std::uint64_t requests_served() const { return server_.requests_served(); }

 private:
  void register_builtin_routes();

  EventTracer* tracer_;
  LogRing* log_ring_;
  HealthRegistry* health_;
  SchedTelemetry* sched_ = nullptr;

  mutable std::mutex handlers_mutex_;
  std::map<std::string, HttpHandler, std::less<>> handlers_;

  serve::HttpServer server_;
};

}  // namespace ripki::obs
