// Telemetry exposition: event tracer ring/sampling/track names/Chrome-JSON
// well-formedness, log flight recorder, health registry, the embedded
// HTTP server (route dispatch and real sockets), and snapshot deltas.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <thread>

#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "obs/logring.hpp"
#include "obs/metrics.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ripki;

std::chrono::steady_clock::time_point now() {
  return std::chrono::steady_clock::now();
}

std::size_t count_occurrences(const std::string& haystack,
                              const std::string& needle) {
  std::size_t count = 0;
  for (auto pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Structural well-formedness for the Chrome trace JSON: balanced
/// braces/brackets, an even quote count, one process, and only complete
/// ("X") and metadata ("M") events, none with a negative duration.
void expect_well_formed_trace_json(const std::string& json) {
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '"') % 2, 0);
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\"") +
                count_occurrences(json, "\"ph\":\"M\""),
            count_occurrences(json, "\"ph\":"));
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""),
            count_occurrences(json, "\"dur\":"));
  EXPECT_EQ(json.find("\"dur\":-"), std::string::npos);
  EXPECT_EQ(json.find("\"pid\":2"), std::string::npos);
}

// --- event tracer ----------------------------------------------------------

TEST(EventTracer, RecordsOneCompleteEventPerInterval) {
  obs::EventTracer tracer(/*capacity=*/64);
  const auto outer_begin = now();
  const auto inner_begin = outer_begin + std::chrono::microseconds(3);
  const auto inner_end = inner_begin + std::chrono::microseconds(40);
  const auto outer_end = inner_end + std::chrono::microseconds(5);
  tracer.record("outer.inner", inner_begin, inner_end);
  tracer.record("outer", outer_begin, outer_end);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer.inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_NEAR(static_cast<double>(events[0].dur_us), 40.0, 1.0);
  EXPECT_NEAR(static_cast<double>(events[1].dur_us), 48.0, 1.0);
  // Both ends truncate on one clock: the child lies inside its parent.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
  EXPECT_EQ(tracer.recorded(), 2u);
  EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(EventTracer, TimestampsMonotonicPerThread) {
  obs::EventTracer tracer;
  for (int i = 0; i < 50; ++i) {
    const auto begin = now();
    tracer.record("span", begin, now());
  }
  std::map<std::uint32_t, std::uint64_t> last_ts;
  for (const auto& event : tracer.snapshot()) {
    const auto it = last_ts.find(event.tid);
    if (it != last_ts.end()) {
      EXPECT_GE(event.ts_us, it->second);
    }
    last_ts[event.tid] = event.ts_us + event.dur_us;
  }
}

TEST(EventTracer, AssignsDenseTrackIdsPerThread) {
  obs::EventTracer tracer;
  tracer.record("main", now(), now());
  std::thread worker([&] {
    tracer.name_track("helper");
    tracer.record("worker", now(), now());
  });
  worker.join();

  std::uint32_t main_tid = 99, worker_tid = 99;
  for (const auto& event : tracer.snapshot()) {
    if (event.name == "main") main_tid = event.tid;
    if (event.name == "worker") worker_tid = event.tid;
  }
  EXPECT_EQ(main_tid, 0u);
  EXPECT_EQ(worker_tid, 1u);
  const auto names = tracer.track_names();
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "");  // never named: written as "track-0"
  EXPECT_EQ(names[1], "helper");
}

TEST(EventTracer, TracksBelongToThreadsNotThreadIds) {
  obs::EventTracer tracer;
  // Successive threads naming one track share it, as each run's pool
  // worker 0 does.
  for (int run = 0; run < 3; ++run) {
    std::thread([&] {
      tracer.name_track("worker-0");
      tracer.record("run", now(), now());
    }).join();
  }
  // Unnamed threads each get their own track, even where the OS hands a
  // later thread an earlier one's id.
  for (int i = 0; i < 2; ++i) {
    std::thread([&] { tracer.record("plain", now(), now()); }).join();
  }
  // A thread whose track has no name yet keeps it and names it.
  tracer.record("main", now(), now());
  tracer.name_track("external");
  tracer.record("main", now(), now());

  const auto names = tracer.track_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "worker-0");
  EXPECT_EQ(names[1], "");
  EXPECT_EQ(names[2], "");
  EXPECT_EQ(names[3], "external");
  std::map<std::string, std::vector<std::uint32_t>> tids;
  for (const auto& event : tracer.snapshot()) {
    tids[event.name].push_back(event.tid);
  }
  EXPECT_EQ(tids["run"], (std::vector<std::uint32_t>{0, 0, 0}));
  EXPECT_EQ(tids["plain"], (std::vector<std::uint32_t>{1, 2}));
  EXPECT_EQ(tids["main"], (std::vector<std::uint32_t>{3, 3}));
}

TEST(EventTracer, RingWrapOverwritesOldestAndCountsDrops) {
  obs::EventTracer tracer(/*capacity=*/4);
  for (int i = 0; i < 6; ++i) {
    tracer.record("s" + std::to_string(i), now(), now());
  }
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(tracer.recorded(), 6u);
  EXPECT_EQ(tracer.dropped(), 2u);
  // The buffer holds the most recent window, oldest first.
  EXPECT_EQ(events.front().name, "s2");
  EXPECT_EQ(events.back().name, "s5");
}

TEST(EventTracer, SamplingSkipsSpansAndCountsThem) {
  obs::EventTracer tracer(/*capacity=*/64, /*sample_every=*/4);
  for (int i = 0; i < 20; ++i) tracer.record("sampled", now(), now());
  EXPECT_EQ(tracer.recorded(), 5u);  // one of every 4 intervals
  EXPECT_EQ(tracer.sampled_out(), 15u);
  EXPECT_EQ(tracer.snapshot().size(), 5u);
}

TEST(EventTracer, ChromeTraceJsonIsWellFormedAfterWrap) {
  // Spans on this thread and a pool lane's intervals on another, into a
  // ring that wraps many times: whatever survives is whole X events, and
  // the lane's track keeps its name.
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/5);
  registry.set_tracer(&tracer);
  obs::SchedTelemetry sched(&registry);
  sched.begin_run(1);
  for (int i = 0; i < 9; ++i) {
    obs::Span span(&registry, "span" + std::to_string(i));
  }
  std::thread worker([&] {
    obs::LaneScope lane(&sched, 0);
    for (int i = 0; i < 9; ++i) {
      const auto begin = now();
      obs::Span span(&sched, obs::SweepStage::kEmit);
      span.stop();
      sched.on_task_run(begin, now());
    }
  });
  worker.join();
  registry.set_tracer(nullptr);

  EXPECT_EQ(tracer.recorded(), 27u);
  EXPECT_EQ(tracer.dropped(), 22u);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 5u);
  const auto names = tracer.track_names();
  for (const auto& event : events) {
    ASSERT_LT(event.tid, names.size());
    EXPECT_EQ(names[event.tid], "worker-0") << event.name;
  }
  const std::string json = obs::trace_json(tracer);
  expect_well_formed_trace_json(json);
  EXPECT_EQ(count_occurrences(json, "\"ph\":\"X\""), 5u);
  EXPECT_NE(json.find("\"cat\":\"ripki\""), std::string::npos);
  EXPECT_NE(json.find("\"args\":{\"name\":\"worker-0\"}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"args\":{\"name\":\"track-0\"}"),
            std::string::npos)
      << json;
}

TEST(EventTracer, ClearResetsBufferAndCounters) {
  obs::EventTracer tracer(/*capacity=*/2);
  for (int i = 0; i < 4; ++i) tracer.record("x", now(), now());
  EXPECT_GT(tracer.dropped(), 0u);
  tracer.clear();
  EXPECT_EQ(tracer.snapshot().size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.recorded(), 0u);
}

// --- span/tracer integration ------------------------------------------------

TEST(EventTracer, SpansEmitEventsThroughRegistryTracer) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  {
    obs::Span outer(&registry, "outer");
    obs::Span inner(&registry, "inner");
  }
  // One event per span, recorded when it stops: the inner span first.
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "outer.inner");  // tracer sees full dotted paths
  EXPECT_EQ(events[1].name, "outer");
  expect_well_formed_trace_json(obs::trace_json(tracer));

  // Detached again: spans fall back to histogram-only recording.
  registry.set_tracer(nullptr);
  { obs::Span after(&registry, "after"); }
  EXPECT_EQ(tracer.snapshot().size(), 2u);
}

TEST(EventTracer, PipelineRunProducesWellFormedTimeline) {
  web::EcosystemConfig config;
  config.domain_count = 60;
  const auto ecosystem = web::Ecosystem::generate(config);

  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  obs::HealthRegistry health;
  core::PipelineConfig pipeline_config;
  pipeline_config.registry = &registry;
  pipeline_config.health = &health;
  core::MeasurementPipeline pipeline(*ecosystem, pipeline_config);
  const auto dataset = pipeline.run();
  EXPECT_EQ(dataset.domains.size(), 60u);

  EXPECT_GT(tracer.recorded(), 0u);
  const std::string json = obs::trace_json(tracer);
  expect_well_formed_trace_json(json);
  EXPECT_NE(json.find("pipeline.run"), std::string::npos);
  EXPECT_NE(json.find("stage2.dns"), std::string::npos);

  // Every stage reported healthy on this successful run.
  EXPECT_TRUE(health.healthy());
  const auto results = health.evaluate();
  ASSERT_EQ(results.size(), 4u);  // bgp, dns, pipeline, rpki
  registry.set_tracer(nullptr);
}

// --- log ring ---------------------------------------------------------------

TEST(LogRing, KeepsLastNAndCountsEvictions) {
  obs::LogRing ring(/*capacity=*/3);
  for (int i = 0; i < 5; ++i) {
    obs::LogRecord record;
    record.message = "m" + std::to_string(i);
    ring.append(record);
  }
  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records.front().message, "m2");
  EXPECT_EQ(records.back().message, "m4");
  EXPECT_EQ(ring.total(), 5u);
  EXPECT_EQ(ring.dropped(), 2u);
}

TEST(LogRing, CapturesBelowLoggerVerbosity) {
  auto& logger = obs::Logger::global();
  const auto previous = logger.level();
  logger.set_level(obs::LogLevel::kError);  // sink would drop everything below
  obs::LogRing ring(/*capacity=*/8);
  logger.attach_ring(&ring);
  logger.set_sink([](const obs::LogRecord&) {});  // silence stderr

  RIPKI_LOG_DEBUG("test", "debug detail");
  RIPKI_LOG_INFO("test", "info detail");

  logger.attach_ring(nullptr);
  logger.set_sink(nullptr);
  logger.set_level(previous);

  const auto records = ring.snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].level, obs::LogLevel::kDebug);
  EXPECT_EQ(records[1].message, "info detail");
}

TEST(LogRing, DumpsOnceOnFirstError) {
  obs::LogRing ring(/*capacity=*/8);
  std::ostringstream dump;
  ring.set_dump_on_error(&dump);

  obs::LogRecord info;
  info.message = "context before failure";
  ring.append(info);
  EXPECT_TRUE(dump.str().empty());

  obs::LogRecord error;
  error.level = obs::LogLevel::kError;
  error.message = "boom";
  ring.append(error);
  EXPECT_NE(dump.str().find("context before failure"), std::string::npos);
  EXPECT_NE(dump.str().find("boom"), std::string::npos);

  const auto size_after_first = dump.str().size();
  ring.append(error);  // second error must not dump again
  EXPECT_EQ(dump.str().size(), size_after_first);
}

TEST(LogRing, RenderIncludesCountsHeader) {
  obs::LogRing ring(/*capacity=*/2);
  for (int i = 0; i < 3; ++i) {
    obs::LogRecord record;
    record.message = "r" + std::to_string(i);
    ring.append(record);
  }
  std::ostringstream os;
  ring.render(os);
  EXPECT_NE(os.str().find("last 2 of 3"), std::string::npos);
  EXPECT_NE(os.str().find("1 evicted"), std::string::npos);
  EXPECT_EQ(os.str().find("r0"), std::string::npos);  // evicted
}

// --- health -----------------------------------------------------------------

TEST(Health, EmptyRegistryIsVacuouslyHealthy) {
  obs::HealthRegistry health;
  EXPECT_TRUE(health.healthy());
  EXPECT_TRUE(health.evaluate().empty());
}

TEST(Health, SetAndCallbackChecksMerge) {
  obs::HealthRegistry health;
  health.set("rpki", true, "fresh");
  health.set("bgp", true, "RIB loaded");
  EXPECT_TRUE(health.healthy());

  health.set("rpki", false, "stale");
  EXPECT_FALSE(health.healthy());
  const auto results = health.evaluate();
  ASSERT_EQ(results.size(), 2u);
  EXPECT_EQ(results[0].subsystem, "bgp");
  EXPECT_TRUE(results[0].status.healthy);
  EXPECT_EQ(results[1].status.detail, "stale");
}

// --- telemetry server (dispatch, no sockets) --------------------------------

TEST(TelemetryServer, DispatchRoutesAndErrorCodes) {
  obs::EventTracer tracer;
  obs::LogRing ring;
  obs::HealthRegistry health;
  obs::TelemetryServer server({}, &tracer, &ring, &health);

  EXPECT_EQ(server.dispatch("GET", "/nope").status, 404);
  EXPECT_EQ(server.dispatch("POST", "/healthz").status, 405);
  const auto index = server.dispatch("GET", "/");
  EXPECT_EQ(index.status, 200);
  EXPECT_NE(index.body.find("/tracez"), std::string::npos);
  EXPECT_NE(index.body.find("/logz"), std::string::npos);
  // Query strings are stripped before route lookup.
  EXPECT_EQ(server.dispatch("GET", "/healthz?verbose=1").status, 200);
  // The query API owns its diagnostics; none has a telemetry route.
  for (const char* path : {"/pprofz", "/accessz", "/slowz"}) {
    EXPECT_EQ(server.dispatch("GET", path).status, 404) << path;
    EXPECT_EQ(index.body.find(path), std::string::npos) << path;
  }
}

TEST(TelemetryServer, HealthzFlipsTo503OnFailedCheck) {
  obs::HealthRegistry health;
  obs::TelemetryServer server({}, nullptr, nullptr, &health);

  health.set("dns", true, "resolving");
  EXPECT_EQ(server.dispatch("GET", "/healthz").status, 200);
  EXPECT_NE(server.dispatch("GET", "/healthz").body.find("healthy"),
            std::string::npos);

  health.set("dns", false, "resolver wedged");
  const auto response = server.dispatch("GET", "/healthz");
  EXPECT_EQ(response.status, 503);
  EXPECT_NE(response.body.find("FAIL dns"), std::string::npos);
  EXPECT_NE(response.body.find("resolver wedged"), std::string::npos);
}

TEST(TelemetryServer, TracezAndLogzServeTheirSources) {
  obs::EventTracer tracer;
  tracer.record("visible", now(), now());
  obs::LogRing ring;
  obs::LogRecord record;
  record.message = "flight record";
  ring.append(record);

  obs::TelemetryServer server({}, &tracer, &ring, nullptr);
  const auto tracez = server.dispatch("GET", "/tracez");
  EXPECT_EQ(tracez.content_type, "application/json");
  EXPECT_NE(tracez.body.find("visible"), std::string::npos);
  expect_well_formed_trace_json(tracez.body);

  const auto logz = server.dispatch("GET", "/logz");
  EXPECT_NE(logz.body.find("flight record"), std::string::npos);
}

TEST(TelemetryServer, SchedzServesSchedulerTelemetry) {
  obs::TelemetryServer bare({});
  EXPECT_NE(bare.dispatch("GET", "/schedz").body.find("no scheduler"),
            std::string::npos);

  obs::SchedTelemetry sched;
  sched.begin_run(2);
  sched.attach_lane(0);
  const auto begin = now();
  sched.on_task_run(begin, begin + std::chrono::microseconds(500));
  sched.detach_lane();

  obs::TelemetryServer server({});
  server.set_sched(&sched);
  const auto schedz = server.dispatch("GET", "/schedz");
  EXPECT_EQ(schedz.status, 200);
  EXPECT_EQ(schedz.content_type, "application/json");
  EXPECT_NE(schedz.body.find("\"schedz\""), std::string::npos);
  EXPECT_NE(schedz.body.find("\"workers\":2"), std::string::npos);
  EXPECT_NE(schedz.body.find("\"utilization_pct\""), std::string::npos);
  EXPECT_NE(schedz.body.find("\"stage_ms\""), std::string::npos);
  // The index advertises the route.
  EXPECT_NE(server.dispatch("GET", "/").body.find("/schedz"),
            std::string::npos);
}

TEST(TelemetryServer, TracezMergesSchedulerTracksWhenConfigured) {
  // A scheduler built with the tracer's registry puts its lanes'
  // intervals on the one timeline /tracez serves, next to the spans.
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  obs::SchedTelemetry sched(&registry);
  sched.begin_run(1);
  sched.attach_lane(0);
  { obs::Span span(&registry, "sweep"); }
  const auto begin = now();
  sched.on_task_run(begin, begin + std::chrono::microseconds(50));
  sched.detach_lane();
  registry.set_tracer(nullptr);

  obs::TelemetryServer server({}, &tracer, nullptr, nullptr);
  server.set_sched(&sched);
  const auto tracez = server.dispatch("GET", "/tracez");
  EXPECT_EQ(tracez.status, 200);
  expect_well_formed_trace_json(tracez.body);
  EXPECT_NE(tracez.body.find("\"name\":\"sweep\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(tracez.body.find("\"worker-0\""), std::string::npos);
  EXPECT_EQ(count_occurrences(tracez.body, "\"thread_name\""), 1u)
      << "one track: " << tracez.body;
}

TEST(TelemetryServer, MetricsEndpointsServeRegistryExports) {
  obs::Registry registry;
  registry.counter("ripki.dns.queries").set(77);
  registry.describe("ripki.dns.queries", "DNS queries issued");
  obs::TelemetryServer server({});
  core::attach_metrics_endpoints(server, registry);

  const auto prom = server.dispatch("GET", "/metrics");
  EXPECT_EQ(prom.status, 200);
  EXPECT_NE(prom.content_type.find("text/plain"), std::string::npos);
  EXPECT_NE(prom.body.find("# HELP ripki_dns_queries DNS queries issued"),
            std::string::npos);
  EXPECT_NE(prom.body.find("ripki_dns_queries 77"), std::string::npos);

  const auto json = server.dispatch("GET", "/metrics.json");
  EXPECT_EQ(json.content_type, "application/json");
  EXPECT_NE(json.body.find("\"ripki.dns.queries\":77"), std::string::npos);
}

// --- telemetry server (real sockets) ----------------------------------------

std::string http_get(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return {};
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return {};
  }
  const std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
  ::send(fd, request.data(), request.size(), 0);
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(TelemetryServer, ServesHttpOverRealSockets) {
  obs::Registry registry;
  registry.counter("ripki.live.requests").set(5);
  obs::EventTracer tracer;
  tracer.record("live", now(), now());
  obs::HealthRegistry health;
  health.set("pipeline", true, "ok");

  obs::TelemetryServer server({.port = 0}, &tracer, nullptr, &health);
  core::attach_metrics_endpoints(server, registry);
  ASSERT_TRUE(server.start());
  ASSERT_NE(server.port(), 0);

  const std::string metrics = http_get(server.port(), "/metrics");
  EXPECT_NE(metrics.find("HTTP/1.1 200 OK"), std::string::npos);
  EXPECT_NE(metrics.find("ripki_live_requests 5"), std::string::npos);
  EXPECT_NE(metrics.find("Content-Length:"), std::string::npos);

  const std::string healthz = http_get(server.port(), "/healthz");
  EXPECT_NE(healthz.find("200 OK"), std::string::npos);
  health.set("pipeline", false, "wedged");
  EXPECT_NE(http_get(server.port(), "/healthz").find("503"),
            std::string::npos);

  const std::string tracez = http_get(server.port(), "/tracez");
  EXPECT_NE(tracez.find("application/json"), std::string::npos);
  EXPECT_NE(tracez.find("live"), std::string::npos);

  EXPECT_NE(http_get(server.port(), "/missing").find("404"),
            std::string::npos);
  EXPECT_GE(server.requests_served(), 5u);
  server.stop();
  EXPECT_FALSE(server.running());
}

TEST(TelemetryServer, StopIsCleanAndIdempotent) {
  obs::TelemetryServer server({.port = 0});
  ASSERT_TRUE(server.start());
  const auto port = server.port();
  server.stop();
  server.stop();  // idempotent
  EXPECT_FALSE(server.running());
  // The port is released: a second server can bind it again.
  obs::TelemetryServer second({.port = port});
  EXPECT_TRUE(second.start());
  second.stop();
}

// --- snapshot deltas --------------------------------------------------------

TEST(Delta, CountersSubtractGaugesKeepAfterValue) {
  obs::Registry registry;
  auto& counter = registry.counter("ripki.run.domains");
  auto& gauge = registry.gauge("ripki.run.depth");
  counter.inc(100);
  gauge.set(7);
  const auto before = registry.collect();
  counter.inc(40);
  gauge.set(3);
  const auto delta = obs::delta_snapshots(before, registry.collect());

  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[1].name, "ripki.run.domains");
  EXPECT_EQ(delta[1].counter_value, 40u);
  EXPECT_EQ(delta[0].gauge_value, 3);
}

TEST(Delta, HistogramsSubtractAndRecomputePercentiles) {
  obs::Registry registry;
  const double bounds[] = {10, 20, 30};
  auto& hist = registry.histogram("ripki.trace.stage", bounds);
  for (int i = 0; i < 100; ++i) hist.observe(5);  // run 1: all in bucket 0
  const auto before = registry.collect();
  for (int i = 0; i < 100; ++i) hist.observe(25);  // run 2: all in bucket 2
  const auto delta = obs::delta_snapshots(before, registry.collect());

  ASSERT_EQ(delta.size(), 1u);
  EXPECT_EQ(delta[0].count, 100u);
  EXPECT_DOUBLE_EQ(delta[0].sum, 2500.0);
  ASSERT_EQ(delta[0].bucket_counts.size(), 4u);
  EXPECT_EQ(delta[0].bucket_counts[0], 0u);
  EXPECT_EQ(delta[0].bucket_counts[2], 100u);
  // Cumulatively p50 straddles both runs; the delta view sits in (20, 30].
  EXPECT_GT(delta[0].p50, 20.0);
  EXPECT_LE(delta[0].p50, 30.0);
}

TEST(Delta, MetricsNewSinceBeforePassThrough) {
  obs::Registry registry;
  registry.counter("ripki.run.a").inc(1);
  const auto before = registry.collect();
  registry.counter("ripki.run.b").inc(9);
  const auto delta = obs::delta_snapshots(before, registry.collect());
  ASSERT_EQ(delta.size(), 2u);
  EXPECT_EQ(delta[1].name, "ripki.run.b");
  EXPECT_EQ(delta[1].counter_value, 9u);
}

TEST(Delta, StageReportRendersFromDeltaSnapshots) {
  obs::Registry registry;
  registry.histogram("ripki.trace.stage2.dns").observe(100);
  const auto before = registry.collect();
  registry.histogram("ripki.trace.stage2.dns").observe(200);
  const auto delta = obs::delta_snapshots(before, registry.collect());
  const std::string report = obs::stage_report(delta);
  EXPECT_NE(report.find("stage2.dns"), std::string::npos);
  EXPECT_NE(report.find("1"), std::string::npos);  // one call in the window
}

}  // namespace
