// Observability subsystem: counter/gauge/histogram semantics, percentile
// math against known distributions, span nesting and timing monotonicity,
// logger sink capture and level filtering, and JSON/Prometheus export.
#include <gtest/gtest.h>

#include <sstream>
#include <thread>

#include "bgp/mrt.hpp"
#include "core/dataset.hpp"
#include "core/export.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/request_context.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "obs/trace.hpp"

namespace {

using namespace ripki;

// --- metrics ---------------------------------------------------------------

TEST(Metrics, CounterIncrementAndSet) {
  obs::Registry registry;
  auto& counter = registry.counter("ripki.test.events");
  EXPECT_EQ(counter.value(), 0u);
  counter.inc();
  counter.inc(41);
  EXPECT_EQ(counter.value(), 42u);
  counter.set(7);
  EXPECT_EQ(counter.value(), 7u);
  // Same name resolves to the same metric.
  EXPECT_EQ(&registry.counter("ripki.test.events"), &counter);
}

TEST(Metrics, GaugeSetAndAdd) {
  obs::Registry registry;
  auto& gauge = registry.gauge("ripki.test.depth");
  gauge.set(10);
  gauge.add(-3);
  EXPECT_EQ(gauge.value(), 7);
  gauge.add(-10);
  EXPECT_EQ(gauge.value(), -3);
}

TEST(Metrics, CounterIsThreadSafe) {
  obs::Registry registry;
  auto& counter = registry.counter("ripki.test.parallel");
  constexpr int kThreads = 4;
  constexpr int kIncrements = 100'000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIncrements; ++i) counter.inc();
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), static_cast<std::uint64_t>(kThreads) * kIncrements);
}

TEST(Metrics, HistogramBucketsAndAggregates) {
  obs::Registry registry;
  const double bounds[] = {10, 20, 30};
  auto& hist = registry.histogram("ripki.test.hist", bounds);
  hist.observe(5);    // bucket 0
  hist.observe(10);   // bucket 0 (bounds are inclusive upper edges)
  hist.observe(15);   // bucket 1
  hist.observe(100);  // overflow
  EXPECT_EQ(hist.count(), 4u);
  EXPECT_DOUBLE_EQ(hist.sum(), 130.0);
  EXPECT_DOUBLE_EQ(hist.max(), 100.0);
  const auto counts = hist.bucket_counts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 0u);
  EXPECT_EQ(counts[3], 1u);
}

TEST(Metrics, HistogramPercentilesOnUniformDistribution) {
  obs::Registry registry;
  const double bounds[] = {25, 50, 75, 100};
  auto& hist = registry.histogram("ripki.test.uniform", bounds);
  // 1..100 uniform: 25 observations per bucket. With linear interpolation
  // inside the bucket, the percentiles land exactly on the value.
  for (int v = 1; v <= 100; ++v) hist.observe(v);
  EXPECT_DOUBLE_EQ(hist.percentile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.90), 90.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.25), 25.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.00), 100.0);
  // p99 target rank 99 falls inside the last finite bucket: 75 + 24/25*25.
  EXPECT_DOUBLE_EQ(hist.percentile(0.99), 99.0);
}

TEST(Metrics, HistogramPercentileSkewedAndOverflow) {
  obs::Registry registry;
  const double bounds[] = {1, 2};
  auto& hist = registry.histogram("ripki.test.skew", bounds);
  for (int i = 0; i < 99; ++i) hist.observe(0.5);
  hist.observe(1000);  // one outlier in the overflow bucket
  // Median sits inside the first bucket: target rank 50 of the 99
  // first-bucket observations, interpolated across (0, 1].
  EXPECT_NEAR(hist.percentile(0.50), 50.0 / 99.0, 1e-9);
  // Ranks landing in the overflow bucket report the observed max.
  EXPECT_DOUBLE_EQ(hist.percentile(0.999), 1000.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);  // empty target rank clamps
}

TEST(Metrics, EmptyHistogramPercentileIsZero) {
  obs::Registry registry;
  auto& hist = registry.histogram("ripki.test.empty");
  EXPECT_DOUBLE_EQ(hist.percentile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.0), 0.0);
  EXPECT_EQ(hist.count(), 0u);
}

TEST(Metrics, SingleSampleHistogramPercentiles) {
  obs::Registry registry;
  const double bounds[] = {10, 100};
  auto& hist = registry.histogram("ripki.test.single", bounds);
  hist.observe(42);
  // Every rank lands in the one occupied bucket (10, 100]: low ranks
  // interpolate from the bucket's lower edge, and the max cap keeps every
  // rank from exceeding the lone observation.
  EXPECT_DOUBLE_EQ(hist.percentile(0.01), 10.9);  // 10 + 0.01 * 90
  EXPECT_DOUBLE_EQ(hist.percentile(0.50), 42.0);  // 55 capped at max
  EXPECT_DOUBLE_EQ(hist.percentile(0.99), 42.0);
  EXPECT_DOUBLE_EQ(hist.percentile(1.00), 42.0);
}

TEST(Metrics, AllSamplesInOverflowBucketReportMax) {
  obs::Registry registry;
  const double bounds[] = {1, 2};
  auto& hist = registry.histogram("ripki.test.overflow", bounds);
  hist.observe(50);
  hist.observe(70);
  hist.observe(90);
  // Every rank resolves to the overflow bucket, which reports the
  // observed max rather than an interpolation over an unbounded range.
  EXPECT_DOUBLE_EQ(hist.percentile(0.01), 90.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.50), 90.0);
  EXPECT_DOUBLE_EQ(hist.percentile(0.99), 90.0);
  const auto counts = hist.bucket_counts();
  EXPECT_EQ(counts.back(), 3u);
}

TEST(Metrics, PercentileFromBucketsMatchesHistogram) {
  obs::Registry registry;
  const double bounds[] = {25, 50, 75, 100};
  auto& hist = registry.histogram("ripki.test.shared", bounds);
  for (int v = 1; v <= 100; ++v) hist.observe(v);
  const auto counts = hist.bucket_counts();
  for (const double p : {0.25, 0.50, 0.90, 0.99}) {
    EXPECT_DOUBLE_EQ(
        obs::percentile_from_buckets(bounds, counts, hist.max(), p),
        hist.percentile(p));
  }
}

TEST(Metrics, CollectIsSortedAndComplete) {
  obs::Registry registry;
  registry.counter("ripki.b.counter").inc(3);
  registry.gauge("ripki.a.gauge").set(-5);
  registry.histogram("ripki.c.hist").observe(12.0);
  const auto metrics = registry.collect();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].name, "ripki.a.gauge");
  EXPECT_EQ(metrics[1].name, "ripki.b.counter");
  EXPECT_EQ(metrics[2].name, "ripki.c.hist");
  EXPECT_EQ(metrics[0].gauge_value, -5);
  EXPECT_EQ(metrics[1].counter_value, 3u);
  EXPECT_EQ(metrics[2].count, 1u);
}

// --- spans -----------------------------------------------------------------

TEST(Span, RecordsDurationHistogram) {
  obs::Registry registry;
  {
    obs::Span span(&registry, "outer");
    EXPECT_TRUE(span.active());
    EXPECT_EQ(span.path(), "outer");
  }
  const auto metrics = registry.collect();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "ripki.trace.outer");
  EXPECT_EQ(metrics[0].count, 1u);
}

TEST(Span, NestingBuildsDottedPathsAndParentCoversChild) {
  obs::Registry registry;
  {
    obs::Span outer(&registry, "outer");
    {
      obs::Span inner(&registry, "inner");
      EXPECT_EQ(inner.path(), "outer.inner");
      EXPECT_EQ(obs::Span::current(), &inner);
    }
    EXPECT_EQ(obs::Span::current(), &outer);
  }
  EXPECT_EQ(obs::Span::current(), nullptr);

  double outer_sum = 0, inner_sum = 0;
  for (const auto& m : registry.collect()) {
    if (m.name == "ripki.trace.outer") outer_sum = m.sum;
    if (m.name == "ripki.trace.outer.inner") inner_sum = m.sum;
  }
  EXPECT_GT(inner_sum, 0.0);
  // The parent's clock ran the whole time the child's did: monotonicity.
  EXPECT_GE(outer_sum, inner_sum);
}

TEST(Span, StopIsIdempotentAndEndsNesting) {
  obs::Registry registry;
  obs::Span span(&registry, "once");
  span.stop();
  span.stop();
  EXPECT_EQ(obs::Span::current(), nullptr);
  double count = 0;
  for (const auto& m : registry.collect()) {
    if (m.name == "ripki.trace.once") count = static_cast<double>(m.count);
  }
  EXPECT_EQ(count, 1.0);
}

TEST(Span, NullRegistryIsInert) {
  obs::Span span(nullptr, "ignored");
  EXPECT_FALSE(span.active());
  EXPECT_EQ(span.path(), "");
  EXPECT_EQ(span.elapsed_ns(), 0u);
  EXPECT_EQ(obs::Span::current(), nullptr);
  span.stop();  // no-op, no crash
  obs::record_duration_ns(nullptr, "ignored", 123);
}

TEST(Span, RecordDurationNsUsesCurrentPath) {
  obs::Registry registry;
  {
    obs::Span outer(&registry, "parse");
    obs::record_duration_ns(&registry, "insert", 2'000);  // 2µs
  }
  bool found = false;
  for (const auto& m : registry.collect()) {
    if (m.name == "ripki.trace.parse.insert") {
      found = true;
      EXPECT_DOUBLE_EQ(m.sum, 2.0);
    }
  }
  EXPECT_TRUE(found);
}

TEST(Span, StageReportListsEverySpan) {
  obs::Registry registry;
  {
    obs::Span a(&registry, "alpha");
    obs::Span b(&registry, "beta");
  }
  const std::string report = obs::stage_report(registry);
  EXPECT_NE(report.find("alpha"), std::string::npos);
  EXPECT_NE(report.find("alpha.beta"), std::string::npos);
  EXPECT_NE(report.find("calls"), std::string::npos);

  obs::Registry empty;
  EXPECT_NE(obs::stage_report(empty).find("no trace spans"), std::string::npos);
}

// --- logging ---------------------------------------------------------------

/// Restores the global logger's sink/level on scope exit so tests don't
/// leak configuration into each other.
class ScopedLoggerCapture {
 public:
  explicit ScopedLoggerCapture(obs::LogLevel level) {
    auto& logger = obs::Logger::global();
    previous_level_ = logger.level();
    logger.set_level(level);
    logger.set_sink([this](const obs::LogRecord& record) {
      records_.push_back(record);
    });
  }
  ~ScopedLoggerCapture() {
    auto& logger = obs::Logger::global();
    logger.set_sink(nullptr);
    logger.set_level(previous_level_);
  }

  const std::vector<obs::LogRecord>& records() const { return records_; }

 private:
  std::vector<obs::LogRecord> records_;
  obs::LogLevel previous_level_;
};

TEST(Log, SinkCapturesRecordsWithFields) {
  ScopedLoggerCapture capture(obs::LogLevel::kDebug);
  RIPKI_LOG_INFO("dns", "resolved", obs::LogField("domain", "example.com"),
                 obs::LogField("addresses", 3));
  ASSERT_EQ(capture.records().size(), 1u);
  const auto& record = capture.records()[0];
  EXPECT_EQ(record.level, obs::LogLevel::kInfo);
  EXPECT_EQ(record.component, "dns");
  EXPECT_EQ(record.message, "resolved");
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0].key, "domain");
  EXPECT_EQ(record.fields[0].value, "example.com");
  EXPECT_EQ(record.fields[1].value, "3");
}

TEST(Log, LevelFilteringDropsLowerSeverities) {
  ScopedLoggerCapture capture(obs::LogLevel::kWarn);
  RIPKI_LOG_DEBUG("pipeline", "dropped");
  RIPKI_LOG_INFO("pipeline", "dropped too");
  RIPKI_LOG_WARN("pipeline", "kept");
  RIPKI_LOG_ERROR("pipeline", "kept too");
  ASSERT_EQ(capture.records().size(), 2u);
  EXPECT_EQ(capture.records()[0].message, "kept");
  EXPECT_EQ(capture.records()[1].level, obs::LogLevel::kError);
}

TEST(Log, FormatQuotesValuesWithSpaces) {
  obs::LogRecord record;
  record.level = obs::LogLevel::kWarn;
  record.component = "rtr";
  record.message = "downgrade";
  record.fields.push_back(obs::LogField("reason", "unsupported version"));
  record.fields.push_back(obs::LogField("from", 2));
  EXPECT_EQ(obs::Logger::format(record),
            "WARN rtr: downgrade reason=\"unsupported version\" from=2");
}

TEST(Log, FieldConstructorsStringify) {
  EXPECT_EQ(obs::LogField("b", true).value, "true");
  EXPECT_EQ(obs::LogField("b", false).value, "false");
  EXPECT_EQ(obs::LogField("d", 1.5).value, "1.5");
  EXPECT_EQ(obs::LogField("u", std::uint64_t{18'000'000'000}).value,
            "18000000000");
}

// --- export ----------------------------------------------------------------

TEST(Export, MetricsJsonRoundTripsValues) {
  obs::Registry registry;
  registry.counter("ripki.dns.queries").set(1234);
  registry.gauge("ripki.bgp.rib_prefixes").set(42);
  const double bounds[] = {10, 20};
  auto& hist = registry.histogram("ripki.trace.stage", bounds);
  hist.observe(5);
  hist.observe(15);

  std::ostringstream os;
  core::export_metrics_json(registry, os);
  const std::string json = os.str();

  EXPECT_NE(json.find("\"ripki.dns.queries\":1234"), std::string::npos);
  EXPECT_NE(json.find("\"ripki.bgp.rib_prefixes\":42"), std::string::npos);
  EXPECT_NE(json.find("\"count\":2"), std::string::npos);
  EXPECT_NE(json.find("\"sum\":20"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":10,\"count\":1}"), std::string::npos);
  EXPECT_NE(json.find("{\"le\":\"+Inf\",\"count\":0}"), std::string::npos);
  // Braces balance — cheap structural validity check.
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
}

TEST(Export, MetricsPrometheusTextFormat) {
  obs::Registry registry;
  registry.counter("ripki.dns.queries").set(9);
  const double bounds[] = {10};
  auto& hist = registry.histogram("ripki.trace.run", bounds);
  hist.observe(5);
  hist.observe(50);

  std::ostringstream os;
  core::export_metrics_prometheus(registry, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# TYPE ripki_dns_queries counter"), std::string::npos);
  EXPECT_NE(text.find("ripki_dns_queries 9"), std::string::npos);
  EXPECT_NE(text.find("# TYPE ripki_trace_run histogram"), std::string::npos);
  EXPECT_NE(text.find("ripki_trace_run_bucket{le=\"10\"} 1"), std::string::npos);
  // Prometheus buckets are cumulative: +Inf equals the total count.
  EXPECT_NE(text.find("ripki_trace_run_bucket{le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("ripki_trace_run_count 2"), std::string::npos);
}

TEST(Export, PrometheusEscapingPerExpositionSpec) {
  // Label values escape backslash, double-quote, and newline.
  EXPECT_EQ(core::prometheus_escape_label("plain"), "plain");
  EXPECT_EQ(core::prometheus_escape_label("a\\b"), "a\\\\b");
  EXPECT_EQ(core::prometheus_escape_label("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(core::prometheus_escape_label("two\nlines"), "two\\nlines");
  // HELP text escapes backslash and newline but leaves quotes alone.
  EXPECT_EQ(core::prometheus_escape_help("a\\b"), "a\\\\b");
  EXPECT_EQ(core::prometheus_escape_help("two\nlines"), "two\\nlines");
  EXPECT_EQ(core::prometheus_escape_help("say \"hi\""), "say \"hi\"");
}

TEST(Export, PrometheusHelpLinesAreEmittedEscaped) {
  obs::Registry registry;
  registry.counter("ripki.dns.queries").set(3);
  registry.describe("ripki.dns.queries", "queries with\nnewline and \\slash");

  std::ostringstream os;
  core::export_metrics_prometheus(registry, os);
  const std::string text = os.str();
  EXPECT_NE(text.find("# HELP ripki_dns_queries queries with\\nnewline "
                      "and \\\\slash"),
            std::string::npos);
  // The escaped newline must not break the line structure: HELP and TYPE
  // stay adjacent lines.
  EXPECT_NE(text.find("\\\\slash\n# TYPE ripki_dns_queries counter"),
            std::string::npos);
}

// --- legacy counter migration ----------------------------------------------

TEST(Migration, PipelineCountersPublishIntoRegistry) {
  core::PipelineCounters counters;
  counters.domains_total = 100;
  counters.dns_queries = 4321;
  counters.as_set_entries_excluded = 7;

  obs::Registry registry;
  counters.publish(registry);
  EXPECT_EQ(registry.counter("ripki.pipeline.domains_total").value(), 100u);
  EXPECT_EQ(registry.counter("ripki.pipeline.dns_queries").value(), 4321u);
  EXPECT_EQ(registry.counter("ripki.pipeline.as_set_entries_excluded").value(),
            7u);

  // for_each_field enumerates every struct field exactly once.
  std::size_t fields = 0;
  counters.for_each_field([&](const char*, std::uint64_t) { ++fields; });
  EXPECT_EQ(fields, 11u);
}

TEST(Migration, MrtParseStatsPublishIntoRegistry) {
  bgp::mrt::ParseStats stats;
  stats.records = 11;
  stats.rib_entries = 22;
  stats.skipped_attributes = 33;

  obs::Registry registry;
  stats.publish(registry);
  EXPECT_EQ(registry.counter("ripki.bgp.mrt.records").value(), 11u);
  EXPECT_EQ(registry.counter("ripki.bgp.mrt.rib_entries").value(), 22u);
  EXPECT_EQ(registry.counter("ripki.bgp.mrt.skipped_attributes").value(), 33u);
}

// --- request-scoped context --------------------------------------------------

TEST(RequestContext, FormatAndParseIdRoundTrip) {
  EXPECT_EQ(obs::RequestContext::format_id(0), "0000000000000000");
  EXPECT_EQ(obs::RequestContext::format_id(0x1234abcd), "000000001234abcd");
  EXPECT_EQ(obs::RequestContext::format_id(~0ull), "ffffffffffffffff");
  for (std::uint64_t id : {0ull, 1ull, 0xdeadbeefull, ~0ull}) {
    EXPECT_EQ(obs::RequestContext::parse_id(obs::RequestContext::format_id(id)),
              id);
  }
  // Short and uppercase spellings parse too (proxies may re-case headers).
  EXPECT_EQ(obs::RequestContext::parse_id("ff"), 0xffu);
  EXPECT_EQ(obs::RequestContext::parse_id("DeadBeef"), 0xdeadbeefu);
}

TEST(RequestContext, ParseIdRejectsMalformedInput) {
  EXPECT_EQ(obs::RequestContext::parse_id(""), 0u);
  EXPECT_EQ(obs::RequestContext::parse_id("xyz"), 0u);
  EXPECT_EQ(obs::RequestContext::parse_id("12 34"), 0u);
  EXPECT_EQ(obs::RequestContext::parse_id("0x12"), 0u);
  // 17 digits overflows a u64 id: rejected, not truncated.
  EXPECT_EQ(obs::RequestContext::parse_id("11111111111111111"), 0u);
}

TEST(RequestContext, RecordSpanCapsAtMaxSpansAndCountsDrops) {
  const auto start = std::chrono::steady_clock::now();
  obs::RequestContext context(7, start);
  EXPECT_EQ(context.id(), 7u);
  EXPECT_EQ(context.id_hex(), "0000000000000007");

  const std::size_t kMax = obs::RequestContext::kMaxSpans;
  for (std::size_t i = 0; i < kMax + 5; ++i) {
    context.record_span("serve.handle.step", start + std::chrono::microseconds(i),
                        /*duration_ns=*/2'500);
  }
  EXPECT_EQ(context.spans().size(), kMax);
  EXPECT_EQ(context.spans_dropped(), 5u);
  EXPECT_EQ(context.spans().front().path, "serve.handle.step");
  EXPECT_EQ(context.spans().front().duration_us, 2u);  // 2500 ns -> 2 µs

  // Spans that opened before the request (executor clock skew) clamp their
  // offset to zero instead of going negative.
  obs::RequestContext late(8, start + std::chrono::seconds(1));
  late.record_span("early", start, 1'000);
  EXPECT_EQ(late.spans().front().start_us, 0u);

  // take_spans moves the list out for the slow-request ring.
  auto moved = context.take_spans();
  EXPECT_EQ(moved.size(), kMax);
}

TEST(RequestContext, ScopesInstallNestAndRestore) {
  EXPECT_EQ(obs::RequestContext::current(), nullptr);
  const auto now = std::chrono::steady_clock::now();
  obs::RequestContext outer(1, now);
  obs::RequestContext inner(2, now);
  {
    obs::RequestScope outer_scope(&outer);
    EXPECT_EQ(obs::RequestContext::current(), &outer);
    {
      obs::RequestScope inner_scope(&inner);
      EXPECT_EQ(obs::RequestContext::current(), &inner);
      // A null scope is inert: it neither installs nor disturbs.
      obs::RequestScope null_scope(nullptr);
      EXPECT_EQ(obs::RequestContext::current(), &inner);
    }
    EXPECT_EQ(obs::RequestContext::current(), &outer);
  }
  EXPECT_EQ(obs::RequestContext::current(), nullptr);
}

TEST(RequestContext, SpanStopAppendsToCurrentContext) {
  obs::Registry registry;
  obs::RequestContext context(42, std::chrono::steady_clock::now());
  {
    obs::RequestScope scope(&context);
    obs::Span handle(&registry, "serve.handle");
    { obs::Span child(&registry, "domain"); }
  }
  ASSERT_EQ(context.spans().size(), 2u);
  // Children close first; paths are the full dotted span paths.
  EXPECT_EQ(context.spans()[0].path, "serve.handle.domain");
  EXPECT_EQ(context.spans()[1].path, "serve.handle");
  // Outside a scope the same spans cost nothing and record nowhere.
  { obs::Span orphan(&registry, "serve.handle"); }
  EXPECT_EQ(context.spans().size(), 2u);
}

TEST(RequestContext, LoggerStampsRequestIdWhileScopeIsLive) {
  obs::Logger logger;
  std::vector<obs::LogRecord> records;
  logger.set_sink([&records](const obs::LogRecord& r) { records.push_back(r); });

  obs::RequestContext context(0xabcd, std::chrono::steady_clock::now());
  {
    obs::RequestScope scope(&context);
    logger.log(obs::LogLevel::kInfo, "serve", "inside");
  }
  logger.log(obs::LogLevel::kInfo, "serve", "outside");
  logger.set_sink(nullptr);

  ASSERT_EQ(records.size(), 2u);
  ASSERT_EQ(records[0].fields.size(), 1u);
  EXPECT_EQ(records[0].fields[0].key, "request_id");
  EXPECT_EQ(records[0].fields[0].value, "000000000000abcd");
  EXPECT_TRUE(records[1].fields.empty());
}

// --- metric time series ------------------------------------------------------

TEST(TimeSeries, RecordsPerIntervalDeltasAndEvictsOldest) {
  obs::Registry registry;
  auto& requests = registry.counter("ripki.test.requests");
  auto& depth = registry.gauge("ripki.test.depth");

  obs::TimeSeriesRing ring(2);
  requests.set(10);
  depth.set(5);
  ring.record(registry.collect(), 1.0);  // first tick: absolute values
  requests.inc(30);
  depth.set(3);
  ring.record(registry.collect(), 2.0);
  requests.inc(5);
  ring.record(registry.collect(), 1.0);  // evicts tick 1

  EXPECT_EQ(ring.ticks(), 3u);
  EXPECT_EQ(ring.size(), 2u);
  EXPECT_EQ(ring.capacity(), 2u);

  const auto history = ring.history();
  ASSERT_EQ(history.size(), 2u);
  // Sequence numbers keep counting across eviction.
  EXPECT_EQ(history[0].seq, 2u);
  EXPECT_EQ(history[1].seq, 3u);
  EXPECT_DOUBLE_EQ(history[0].seconds, 2.0);

  auto find = [](const std::vector<obs::MetricSnapshot>& deltas,
                 std::string_view name) -> const obs::MetricSnapshot* {
    for (const auto& snapshot : deltas) {
      if (snapshot.name == name) return &snapshot;
    }
    return nullptr;
  };
  // Counters are per-interval increments; gauges stay point-in-time.
  const auto* tick2 = find(history[0].deltas, "ripki.test.requests");
  ASSERT_NE(tick2, nullptr);
  EXPECT_EQ(tick2->counter_value, 30u);
  const auto* tick3 = find(history[1].deltas, "ripki.test.requests");
  ASSERT_NE(tick3, nullptr);
  EXPECT_EQ(tick3->counter_value, 5u);
  const auto* gauge2 = find(history[0].deltas, "ripki.test.depth");
  ASSERT_NE(gauge2, nullptr);
  EXPECT_EQ(gauge2->gauge_value, 3);
}

TEST(TimeSeries, RenderJsonEmitsOneSeriesPerMetric) {
  obs::Registry registry;
  registry.counter("ripki.test.hits").set(4);
  registry.histogram("ripki.test.latency").observe(100.0);

  obs::TimeSeriesRing ring(8);
  ring.record(registry.collect(), 2.0);
  registry.counter("ripki.test.hits").inc(6);
  ring.record(registry.collect(), 2.0);

  const std::string json = ring.render_json();
  EXPECT_EQ(json.find("{\"varz\":"), 0u) << json;
  EXPECT_NE(json.find("\"ticks\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"ripki.test.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"counter\""), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"histogram\""), std::string::npos);
  // Counter deltas [4, 6] at 2 s intervals -> per-second rates [2, 3].
  EXPECT_NE(json.find("\"deltas\":[4,6]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"per_sec\":[2,3]"), std::string::npos) << json;
}

TEST(TimeSeries, MetricsRegisteredMidStreamPadWithZeros) {
  obs::Registry registry;
  registry.counter("ripki.test.first").set(1);
  obs::TimeSeriesRing ring(8);
  ring.record(registry.collect(), 1.0);
  registry.counter("ripki.test.second").set(9);
  ring.record(registry.collect(), 1.0);

  const std::string json = ring.render_json();
  // The late metric still has one entry per interval: a zero pad, then
  // its first absolute value.
  EXPECT_NE(json.find("\"ripki.test.second\""), std::string::npos);
  EXPECT_NE(json.find("\"deltas\":[0,9]"), std::string::npos) << json;
}

// --- delta snapshots under tracer wrap and gauge movement --------------------

TEST(Delta, NegativeGaugeDeltasKeepPointInTimeValue) {
  obs::Registry registry;
  auto& gauge = registry.gauge("ripki.test.inflight");
  gauge.set(10);
  const auto before = registry.collect();
  gauge.set(-5);  // drains below zero: deltas must not underflow
  const auto after = registry.collect();

  const auto deltas = obs::delta_snapshots(before, after);
  ASSERT_EQ(deltas.size(), 1u);
  EXPECT_EQ(deltas[0].kind, obs::MetricSnapshot::Kind::kGauge);
  EXPECT_EQ(deltas[0].gauge_value, -5);
}

TEST(Delta, CounterDeltasStayExactWhileTracerRingWraps) {
  // A small tracer ring wraps many times over while spans keep feeding
  // the same registry; the histogram/counter deltas must stay exact and
  // the ring must still hold whole events, the newest ones.
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/8, /*sample_every=*/1);
  registry.set_tracer(&tracer);

  const auto before = registry.collect();
  constexpr int kSpans = 50;
  for (int i = 0; i < kSpans; ++i) {
    obs::Span span(&registry, "wrap.work");
  }
  registry.set_tracer(nullptr);
  const auto after = registry.collect();

  EXPECT_EQ(tracer.recorded(), static_cast<std::uint64_t>(kSpans));
  EXPECT_EQ(tracer.dropped(), static_cast<std::uint64_t>(kSpans - 8));

  const auto deltas = obs::delta_snapshots(before, after);
  const obs::MetricSnapshot* latency = nullptr;
  for (const auto& snapshot : deltas) {
    if (snapshot.name == "ripki.trace.wrap.work") latency = &snapshot;
  }
  ASSERT_NE(latency, nullptr);
  EXPECT_EQ(latency->count, static_cast<std::uint64_t>(kSpans));
  std::uint64_t bucket_total = 0;
  for (const std::uint64_t count : latency->bucket_counts) bucket_total += count;
  EXPECT_EQ(bucket_total, static_cast<std::uint64_t>(kSpans));

  // Wrap drops whole events: the survivors are the eight newest spans,
  // in order, each with its own duration.
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 8u);
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].name, "wrap.work");
    if (i > 0) {
      EXPECT_GE(events[i].ts_us,
                events[i - 1].ts_us + events[i - 1].dur_us);
    }
  }
}

}  // namespace
