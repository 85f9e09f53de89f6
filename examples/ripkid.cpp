// ripkid: a long-running measurement daemon with live telemetry.
//
// Re-runs the paper's four-stage pipeline (DNS -> BGP -> RPKI -> origin
// validation) on an interval and serves pull-based telemetry between
// runs from an embedded HTTP server:
//
//   curl localhost:<port>/metrics        Prometheus text exposition
//   curl localhost:<port>/metrics.json   registry as JSON
//   curl localhost:<port>/healthz        per-stage health (200/503)
//   curl localhost:<port>/tracez         Chrome trace JSON (Perfetto)
//   curl localhost:<port>/logz           log flight-recorder dump
//   curl localhost:<port>/runz           last run's per-run stage table
//   curl localhost:<port>/schedz         scheduler X-ray: per-worker
//                                        utilization, steals, stage split
//   curl localhost:<port>/varz           per-interval metric history (JSON)
//   curl localhost:<port>/deltaz         incremental-pipeline telemetry
//
// and the measurement query API, with its own diagnostics, on its own
// port (printed at start):
//
//   curl localhost:<api-port>/v1/domain/<name>
//   curl localhost:<api-port>/v1/ip/<addr>
//   curl localhost:<api-port>/v1/prefix/<prefix>/<asn>
//   curl localhost:<api-port>/v1/summary
//   curl localhost:<api-port>/accessz    access-log window
//   curl localhost:<api-port>/slowz      slow-request rings + span trees
//   curl localhost:<api-port>/pprofz     timed CPU profile (folded stacks)
//
// Every route has one port. /pprofz sits on the API port because a
// capture blocks its handler for seconds: there it runs on an executor
// worker, while the telemetry server runs handlers on its one loop thread.
//
//   build/examples/ripkid [--port N] [--api-port N] [--rate-limit N]
//                         [--serve-shards N] [--interval SEC] [--domains N]
//                         [--iterations N] [--sample N] [--threads N]
//                         [--delta] [--full] [--oracle-every N]
//                         [--churn FRAC] [--profile] [--rtr] [--rrdp]
//
// --iterations 0 (default) runs until SIGINT/SIGTERM; --port 0 (default)
// binds an ephemeral port and prints it (--api-port likewise). --sample N
// records one of every N intervals (spans and the scheduler's run, idle
// and steal intervals alike) in the trace timeline. --threads N shards
// the domain sweep across N workers, clamped to the host's hardware
// concurrency (--threads 0 resolves to exactly that clamp; omitting the
// flag runs serial); the sweep's effective thread
// count and hot-path cache hit rates appear on /runz and as
// `ripki.exec.*` gauges on /metrics. --rate-limit N caps each API client
// at N requests/second (burst 2N; 0 = unlimited; the budget is shared
// across reactor shards, so it is invariant under --serve-shards).
// --serve-shards N runs the query API on N reactor shards — one event
// loop + thread per shard, SO_REUSEPORT listeners when the kernel
// supports it (0 = all hardware threads); per-shard fleet telemetry
// appears as the serve_shards block on /runz and as shard-labeled
// `ripki.serve.*` metrics. Each completed run
// publishes a fresh query snapshot (RCU swap); /runz reports the served
// generation/parent lineage, response-cache hit rate, and rate-limited
// request count, and appends one interval to the /varz history ring
// (last 64 intervals).
//
// --delta switches the run loop to the incremental pipeline: instead of
// re-measuring every domain per interval, a deterministic churn tick is
// generated and applied end to end (churn zone -> RIB -> RTR-synced
// VRPs -> dirty-row re-sweep -> snapshot delta), publishing generation
// N+1 derived from N. --full (the default) keeps the classic
// full-rebuild loop. --oracle-every N, in delta mode, rebuilds the world
// from scratch every Nth tick and byte-compares all /v1/* renderings
// against the published delta snapshot (0 = never); divergence is fatal.
// The rebuild is a whole batch sweep plus a from-scratch snapshot: at 1M
// domains one took ~57 s and the process ended near 2 GiB in a scale
// probe, so keep N sparse at that size.
// --churn FRAC sets the per-tick domain churn fraction (default 0.01).
// Both modes schedule ticks on absolute deadlines (start + k*interval),
// so a slow run delays but never accumulates drift; observed scheduling
// jitter (last/max) is reported on /runz.
// --profile arms the sampling profiler at daemon start (always-on,
// 100 Hz); without it the profiler sits idle until a /pprofz capture
// starts it one-shot.
#include <algorithm>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <mutex>
#include <thread>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/logring.hpp"
#include "obs/profiler.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_signal(int) { g_stop = 1; }

}  // namespace

int main(int argc, char** argv) {
  using namespace ripki;

  web::EcosystemConfig ecosystem_config;
  ecosystem_config.domain_count = 20'000;
  core::PipelineConfig pipeline_config;
  std::uint16_t port = 0;
  std::uint16_t api_port = 0;
  double rate_limit = 0.0;
  std::uint32_t serve_shards = 1;
  unsigned interval_sec = 30;
  std::uint64_t iterations = 0;
  std::uint32_t sample_every = 1;
  bool profile = false;
  bool delta_mode = false;
  std::uint64_t oracle_every = 0;
  double churn_fraction = 0.01;

  for (int i = 1; i < argc; ++i) {
    const auto next_u64 = [&](std::uint64_t fallback) {
      return i + 1 < argc ? std::strtoull(argv[++i], nullptr, 10) : fallback;
    };
    if (std::strcmp(argv[i], "--port") == 0) {
      port = static_cast<std::uint16_t>(next_u64(0));
    } else if (std::strcmp(argv[i], "--api-port") == 0) {
      api_port = static_cast<std::uint16_t>(next_u64(0));
    } else if (std::strcmp(argv[i], "--rate-limit") == 0) {
      rate_limit = static_cast<double>(next_u64(0));
    } else if (std::strcmp(argv[i], "--serve-shards") == 0) {
      // --serve-shards 0 means "one reactor shard per hardware thread".
      serve_shards = static_cast<std::uint32_t>(next_u64(1));
      if (serve_shards == 0) {
        serve_shards = std::max(1u, std::thread::hardware_concurrency());
      }
    } else if (std::strcmp(argv[i], "--interval") == 0) {
      interval_sec = static_cast<unsigned>(next_u64(30));
    } else if (std::strcmp(argv[i], "--domains") == 0) {
      ecosystem_config.domain_count = next_u64(20'000);
    } else if (std::strcmp(argv[i], "--iterations") == 0) {
      iterations = next_u64(0);
    } else if (std::strcmp(argv[i], "--sample") == 0) {
      sample_every = static_cast<std::uint32_t>(next_u64(1));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      // --threads 0 means "all hardware threads"; the pipeline clamps
      // larger requests down to hardware concurrency anyway.
      pipeline_config.threads = next_u64(0);
      if (pipeline_config.threads == 0) {
        pipeline_config.threads = std::max(1u, std::thread::hardware_concurrency());
      }
    } else if (std::strcmp(argv[i], "--delta") == 0) {
      delta_mode = true;
    } else if (std::strcmp(argv[i], "--full") == 0) {
      delta_mode = false;
    } else if (std::strcmp(argv[i], "--oracle-every") == 0) {
      oracle_every = next_u64(0);
    } else if (std::strcmp(argv[i], "--churn") == 0) {
      churn_fraction =
          i + 1 < argc ? std::strtod(argv[++i], nullptr) : churn_fraction;
    } else if (std::strcmp(argv[i], "--profile") == 0) {
      profile = true;
    } else if (std::strcmp(argv[i], "--rtr") == 0) {
      pipeline_config.use_rtr = true;
    } else if (std::strcmp(argv[i], "--rrdp") == 0) {
      pipeline_config.use_rrdp = true;
    } else {
      std::cerr << "unknown flag: " << argv[i] << '\n';
      return 2;
    }
  }

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  // The one timeline: spans and the scheduler's lanes reach it through
  // the registry.
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/1 << 16, sample_every);
  registry.set_tracer(&tracer);
  obs::LogRing log_ring(/*capacity=*/512);
  log_ring.set_dump_on_error(&std::cerr);
  obs::Logger::global().attach_ring(&log_ring);
  obs::HealthRegistry health;
  health.set("pipeline", false, "no completed run yet");

  // Scheduler X-ray for the sweep: per-worker tallies, queue-depth
  // samples, stage attribution. Serves /schedz; its workers' run, idle
  // and steal intervals join /tracez on tracks named after their lanes.
  obs::SchedTelemetry sched(&registry);

  pipeline_config.registry = &registry;
  pipeline_config.health = &health;
  pipeline_config.sched = &sched;
  pipeline_config.verbosity = obs::LogLevel::kInfo;

  obs::TelemetryServer server({.port = port}, &tracer, &log_ring, &health);
  server.set_sched(&sched);
  core::attach_metrics_endpoints(server, registry);

  // CPU profiler behind the query API's /pprofz; --profile arms it for
  // the daemon's whole lifetime (always-on captures window the running
  // buffer instead of starting a one-shot).
  obs::SamplingProfiler profiler;
  if (profile && !profiler.start()) {
    std::cerr << "ripkid: --profile: failed to arm SIGPROF profiler\n";
    return 1;
  }

  // Last run's per-interval stage table, served at /runz.
  std::mutex runz_mutex;
  std::string runz = "(no completed run yet)\n";
  server.set_handler("/runz", [&] {
    serve::HttpResponse response;
    std::lock_guard lock(runz_mutex);
    response.body = runz;
    return response;
  });

  // Per-interval metric history (one entry per completed run), at /varz.
  obs::TimeSeriesRing varz(/*capacity=*/64);
  server.set_handler("/varz", [&varz] {
    serve::HttpResponse response;
    response.content_type = "application/json";
    response.body = varz.render_json();
    return response;
  });

  // Incremental-pipeline telemetry: the latest tick's /deltaz payload,
  // snapshotted under the mutex after each apply (full mode reports the
  // mode only).
  std::mutex deltaz_mutex;
  std::string deltaz = "{\"mode\":\"full\"}";
  server.set_handler("/deltaz", [&] {
    serve::HttpResponse response;
    response.content_type = "application/json";
    std::lock_guard lock(deltaz_mutex);
    response.body = deltaz;
    return response;
  });

  if (!server.start()) {
    std::cerr << "ripkid: failed to bind " << port << '\n';
    return 1;
  }
  std::cout << "ripkid: telemetry on http://127.0.0.1:" << server.port()
            << "/ (metrics, metrics.json, healthz, tracez, schedz, logz, "
               "runz, varz, deltaz"
            << (profile ? "; profiler armed at 100 Hz" : "") << ")"
            << std::endl;

  // The query API: lookups answered from the latest run's snapshot,
  // handlers fanned out over a small worker pool.
  exec::ThreadPool api_pool(2, &registry);
  serve::QueryServiceOptions api_options;
  api_options.http.port = api_port;
  api_options.http.shards = serve_shards;
  api_options.rate_limit.tokens_per_sec = rate_limit;
  api_options.rate_limit.burst = rate_limit * 2.0;
  api_options.pool = &api_pool;
  api_options.registry = &registry;
  api_options.profiler = &profiler;
  serve::QueryService api(std::move(api_options));
  if (!api.start()) {
    std::cerr << "ripkid: failed to bind api port " << api_port << '\n';
    return 1;
  }

  char rate_text[32];
  std::snprintf(rate_text, sizeof rate_text, "%g/s", rate_limit);
  std::cout << "ripkid: query api on http://127.0.0.1:" << api.port()
            << "/v1/ (domain, ip, prefix, summary; accessz, slowz, pprofz; "
               "rate limit "
            << (rate_limit > 0.0 ? rate_text : "off") << "; "
            << api.server().shard_count() << " reactor shard(s), "
            << api.server().accept_mode() << " accept, "
            << api.server().backend_name() << " backend)" << std::endl;

  std::cout << "ripkid: generating ecosystem ("
            << ecosystem_config.domain_count << " domains, sweep threads="
            << pipeline_config.threads << ")...\n";
  const auto ecosystem = web::Ecosystem::generate(ecosystem_config);
  registry.counter("ripki.ripkid.runs_total");
  registry.describe("ripki.ripkid.runs_total",
                    "Completed pipeline iterations since daemon start");

  // Absolute-deadline tick scheduling, shared by both modes: the k-th
  // tick fires at start + k*interval, so a slow run delays its own tick
  // but never shifts the schedule (the old sleep-after-work loop drifted
  // by one run duration per interval). Sleeps in short slices so SIGINT
  // lands promptly while the telemetry server keeps answering scrapes.
  const auto interval = std::chrono::seconds(interval_sec);
  auto deadline = std::chrono::steady_clock::now();
  double jitter_last_ms = 0.0;
  double jitter_max_ms = 0.0;
  const auto wait_for_next_tick = [&] {
    deadline += interval;
    auto now = std::chrono::steady_clock::now();
    if (deadline < now) deadline = now;  // overran: fire now, don't burst
    while (!g_stop && (now = std::chrono::steady_clock::now()) < deadline) {
      std::this_thread::sleep_for(
          std::min<std::chrono::steady_clock::duration>(
              deadline - now, std::chrono::milliseconds(100)));
    }
    jitter_last_ms = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - deadline)
                         .count();
    jitter_max_ms = std::max(jitter_max_ms, jitter_last_ms);
  };

  auto varz_tick = std::chrono::steady_clock::now();

  if (delta_mode) {
    // Incremental mode: init once (full measurement, generation 1), then
    // per tick apply a churn delta end to end and publish N+1 from N.
    delta::DeltaConfig delta_config;
    delta_config.churn.seed = ecosystem_config.seed;
    delta_config.churn.domain_churn_fraction = churn_fraction;
    std::cout << "ripkid: initialising incremental pipeline (churn "
              << churn_fraction << "/tick, oracle every "
              << oracle_every << " ticks)...\n";
    delta::IncrementalPipeline incremental(*ecosystem, delta_config);
    incremental.init();
    delta::TickGenerator churn(delta_config.churn, incremental.universe());
    api.publish(incremental.snapshot());
    health.set("pipeline", true, "incremental generation 1");
    {
      std::lock_guard lock(deltaz_mutex);
      deltaz = incremental.deltaz_json();
    }
    std::cout << "ripkid: generation 1 published ("
              << incremental.row_count() << " rows)\n";

    for (std::uint64_t run = 0; iterations == 0 || run < iterations; ++run) {
      wait_for_next_tick();
      if (g_stop) break;
      const delta::Tick tick = churn.next();
      const delta::TickStats stats = incremental.apply_tick(tick);
      api.publish(incremental.snapshot());
      registry.counter("ripki.ripkid.runs_total").inc();
      health.set("pipeline", stats.rtr_in_sync,
                 stats.rtr_in_sync
                     ? "incremental generation " +
                           std::to_string(stats.generation)
                     : "rtr serial sync diverged");

      bool oracle_checked = false;
      delta::IncrementalPipeline::OracleReport oracle;
      if (oracle_every != 0 && tick.number % oracle_every == 0) {
        oracle = incremental.check_against(*incremental.full_rebuild());
        oracle_checked = true;
      }

      {
        const auto now = std::chrono::steady_clock::now();
        varz.record(registry.collect(),
                    std::chrono::duration<double>(now - varz_tick).count());
        varz_tick = now;
      }

      {
        char line[640];
        std::snprintf(
            line, sizeof line,
            "tick %llu (incremental, generation %llu from %llu%s)\n"
            "events: %zu (dns dirty names %zu, dirty rows %zu, changed %zu)\n"
            "rib: -%zu +%zu; vrps: +%zu -%zu; rtr serial %u %s\n"
            "apply: %.3f ms; snapshot overlay %zu rows; compactions %llu\n"
            "oracle: %s\n"
            "tick scheduling: absolute deadlines; jitter last %.2f ms, "
            "max %.2f ms\n",
            static_cast<unsigned long long>(tick.number),
            static_cast<unsigned long long>(stats.generation),
            static_cast<unsigned long long>(stats.generation - 1),
            stats.compacted ? ", compacted" : ", delta",
            stats.events, stats.dns_dirty_names, stats.dirty_rows,
            stats.changed_rows, stats.rib_withdrawn, stats.rib_announced,
            stats.vrp_added, stats.vrp_removed, stats.rtr_serial,
            stats.rtr_in_sync ? "in sync" : "DIVERGED",
            stats.apply_ms, stats.overlay_size,
            static_cast<unsigned long long>(incremental.compactions()),
            !oracle_checked ? "not checked this tick"
                            : (oracle.identical ? "identical to full rebuild"
                                                : oracle.divergence.c_str()),
            jitter_last_ms, jitter_max_ms);
        std::lock_guard lock(runz_mutex);
        runz = std::string(line) +
               "serve_shards: " + api.shards_json() + "\n";
      }
      {
        std::lock_guard lock(deltaz_mutex);
        deltaz = incremental.deltaz_json();
      }
      std::cout << "ripkid: tick " << tick.number << " done — generation "
                << stats.generation << ", " << stats.events << " events, "
                << stats.dirty_rows << " rows re-swept in "
                << stats.apply_ms << " ms"
                << (oracle_checked
                        ? (oracle.identical ? " (oracle: identical)"
                                            : " (ORACLE DIVERGED)")
                        : "")
                << "\n";
      if (oracle_checked && !oracle.identical) {
        std::cerr << "ripkid: oracle divergence: " << oracle.divergence
                  << "\n";
        api.stop();
        server.stop();
        obs::Logger::global().attach_ring(nullptr);
        return 1;
      }
    }

    std::cout << "ripkid: shutting down after " << server.requests_served()
              << " telemetry requests, " << api.requests_served()
              << " api requests\n";
    api.stop();
    server.stop();
    obs::Logger::global().attach_ring(nullptr);
    return 0;
  }

  for (std::uint64_t run = 0; iterations == 0 || run < iterations; ++run) {
    if (g_stop) break;
    RIPKI_LOG_INFO("ripkid", "pipeline run starting",
                   obs::LogField("run", run + 1));
    const auto before = registry.collect();
    core::MeasurementPipeline pipeline(*ecosystem, pipeline_config);
    const core::Dataset dataset = pipeline.run();
    registry.counter("ripki.ripkid.runs_total").inc();
    const auto delta = obs::delta_snapshots(before, registry.collect());

    // One /varz interval per run: deltas over the wall time since the
    // previous tick (run + idle sleep), so per-second rates are honest.
    {
      const auto now = std::chrono::steady_clock::now();
      varz.record(registry.collect(),
                  std::chrono::duration<double>(now - varz_tick).count());
      varz_tick = now;
    }

    // Publish this run's snapshot to the query API (RCU swap; in-flight
    // requests finish on the previous generation).
    api.publish(serve::Snapshot::build(dataset, pipeline.rib(),
                                       pipeline.validation_report().vrps,
                                       /*generation=*/run + 1,
                                       /*parent_generation=*/run));

    {
      const auto& caches = pipeline.cache_stats();
      char cache_line[256];
      std::snprintf(cache_line, sizeof cache_line,
                    "sweep threads: %zu\n"
                    "covering cache: %llu hits / %llu misses (%.1f%% hit)\n"
                    "validation cache: %llu hits / %llu misses (%.1f%% hit)\n",
                    pipeline_config.threads,
                    static_cast<unsigned long long>(caches.covering_hits),
                    static_cast<unsigned long long>(caches.covering_misses),
                    caches.covering_hit_rate() * 100.0,
                    static_cast<unsigned long long>(caches.validation_hits),
                    static_cast<unsigned long long>(caches.validation_misses),
                    caches.validation_hit_rate() * 100.0);
      // Per-worker split, so one worker with a cold cache (imbalanced
      // shard mix) is visible instead of averaged away.
      std::string worker_lines;
      if (caches.workers.size() > 1) {
        for (std::size_t w = 0; w < caches.workers.size(); ++w) {
          const auto& wk = caches.workers[w];
          char line[192];
          std::snprintf(
              line, sizeof line,
              "  worker %zu: covering %.1f%% hit (%llu/%llu), "
              "validation %.1f%% hit (%llu/%llu)\n",
              w, wk.covering_hit_rate() * 100.0,
              static_cast<unsigned long long>(wk.covering_hits),
              static_cast<unsigned long long>(wk.covering_hits +
                                              wk.covering_misses),
              wk.validation_hit_rate() * 100.0,
              static_cast<unsigned long long>(wk.validation_hits),
              static_cast<unsigned long long>(wk.validation_hits +
                                              wk.validation_misses));
          worker_lines += line;
        }
      }
      // One-line scheduler summary; /schedz has the full X-ray.
      char sched_line[224];
      {
        const auto ss = sched.snapshot();
        const std::size_t sweep_workers =
            ss.lanes.size() > 1 ? ss.lanes.size() - 1 : ss.lanes.size();
        std::uint64_t tasks = 0, steals = 0, run_ns = 0;
        for (std::size_t i = 0; i < sweep_workers; ++i) {
          tasks += ss.lanes[i].tasks;
          steals += ss.lanes[i].steals;
          run_ns += ss.lanes[i].run_ns;
        }
        const double window_ms = ss.window_ms();
        const double util =
            sweep_workers == 0 || window_ms <= 0.0
                ? 0.0
                : static_cast<double>(run_ns) / 1e6 /
                      (window_ms * static_cast<double>(sweep_workers)) * 100.0;
        std::snprintf(sched_line, sizeof sched_line,
                      "scheduler: %zu lanes, %llu tasks (%llu stolen), "
                      "utilization %.1f%% — /schedz for the full X-ray\n",
                      ss.lanes.size(),
                      static_cast<unsigned long long>(tasks),
                      static_cast<unsigned long long>(steals), util);
      }
      const auto& setup = pipeline.setup_stats();
      char setup_line[256];
      std::snprintf(setup_line, sizeof setup_line,
                    "setup: MRT parse %.1f ms (%.0f records/s), "
                    "ROA validation %.1f ms (%.0f ROAs/s)\n",
                    setup.rib_prepare_ms, setup.mrt_records_per_sec,
                    setup.vrp_prepare_ms, setup.roas_per_sec);
      char serving_line[256];
      std::snprintf(serving_line, sizeof serving_line,
                    "serving: generation %llu (parent %llu, full rebuild), "
                    "%llu domains, %u reactor "
                    "shard(s) [%s], response cache %.1f%% hit, "
                    "%llu rate-limited\n",
                    static_cast<unsigned long long>(run + 1),
                    static_cast<unsigned long long>(run),
                    static_cast<unsigned long long>(dataset.domains.size()),
                    api.server().shard_count(), api.server().accept_mode(),
                    api.cache_hit_rate() * 100.0,
                    static_cast<unsigned long long>(api.limiter().rejected()));
      char jitter_line[160];
      std::snprintf(jitter_line, sizeof jitter_line,
                    "tick scheduling: absolute deadlines; jitter last "
                    "%.2f ms, max %.2f ms\n",
                    jitter_last_ms, jitter_max_ms);
      std::lock_guard lock(runz_mutex);
      runz = "run " + std::to_string(run + 1) + " (per-run deltas)\n" +
             cache_line + worker_lines + sched_line + setup_line +
             serving_line + jitter_line +
             "serve_shards: " + api.shards_json() + "\n" +
             obs::stage_report(delta);
    }
    std::cout << "ripkid: run " << run + 1 << " done — "
              << dataset.counters.domains_total << " domains, "
              << dataset.counters.dns_queries << " DNS queries, tracer "
              << tracer.recorded() << " events (" << tracer.dropped()
              << " dropped)\n";

    if (iterations != 0 && run + 1 >= iterations) break;
    wait_for_next_tick();
  }

  std::cout << "ripkid: shutting down after " << server.requests_served()
            << " telemetry requests, " << api.requests_served()
            << " api requests\n";
  api.stop();
  server.stop();
  obs::Logger::global().attach_ring(nullptr);
  return 0;
}
