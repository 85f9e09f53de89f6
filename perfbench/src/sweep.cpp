// sweep: the paper's workload. One world, then MeasurementPipeline::run()
// with `threads` workers, repeated; every dataset must equal a serial
// (threads = 0) dataset computed once in set-up, record for record and
// counter for counter.
//
// The sweep's layers sit inside run(), so the traced run replays its
// per-domain calls in rank order through the same public functions —
// StubResolver::resolve_all on both name variants, CoveringCache::covering
// for each kept address, VrpIndex::validate for each pair — with a span
// around each. The replayed pair count must equal the dataset's, so the
// parts add up to the whole.
#include <memory>
#include <string>
#include <vector>

#include "bench.hpp"
#include "bgp/covering_cache.hpp"
#include "core/pipeline.hpp"
#include "dns/server.hpp"
#include "layers.hpp"
#include "net/special.hpp"

namespace perfbench {

namespace {

using namespace ripki;

struct ReplayCounts {
  std::uint64_t resolve_calls = 0;
  std::uint64_t resolve_queries = 0;
  std::uint64_t resolve_failed = 0;
  std::uint64_t server_queries = 0;
  std::uint64_t pairs = 0;
  std::uint64_t valid = 0;
};

/// Stages 2-4 of MeasurementPipeline::measure_domain for every domain, in
/// rank order, plus the DNSKEY probe; one span per call into a layer and
/// one per domain, all sharing the domain's rank as id.
ReplayCounts replay_sweep(const web::Ecosystem& eco, const bgp::Rib& rib,
                          const rpki::VrpIndex& vrps, Tracer& tracer) {
  ReplayCounts counts;
  const dns::AuthoritativeServer server(&eco.zone_source(web::Vantage::kBerlin));
  dns::StubResolver resolver(&server);
  bgp::CoveringCache covering(&rib);
  std::vector<net::IpAddress> kept;
  std::vector<core::PrefixAsPair> pairs;
  for (std::size_t i = 0; i < eco.domain_count(); ++i) {
    const std::uint64_t id = eco.plan(i).rank;
    Tracer::Scope domain_span(tracer, "core.domain", id);
    auto apex = dns::DnsName::parse(eco.plan_name(i));
    if (!apex.ok()) continue;
    const dns::DnsName& apex_name = apex.value();
    const dns::DnsName www = apex_name.prepended("www");
    for (const dns::DnsName* name : {&www, &apex_name}) {
      Tracer::Scope dns_span(tracer, "dns.resolve_all", id);
      const std::uint64_t queries_before = resolver.queries_sent();
      const auto resolution = resolver.resolve_all(*name);
      dns_span.end();
      ++counts.resolve_calls;
      counts.resolve_queries += resolver.queries_sent() - queries_before;
      if (!resolution.ok()) {
        ++counts.resolve_failed;
        continue;
      }
      if (resolution.value().rcode != dns::Rcode::kNoError) continue;
      kept.clear();
      for (const auto& address : resolution.value().addresses) {
        if (!net::is_special_purpose(address)) kept.push_back(address);
      }
      pairs.clear();
      for (const auto& address : kept) {
        Tracer::Scope covering_span(tracer, "bgp.covering", id);
        const auto& matches = covering.covering(address);
        covering_span.end();
        for (const auto& match : matches) {
          for (const auto& entry : *match.entries) {
            if (entry.as_path.contains_as_set()) continue;
            if (const auto origin = entry.origin()) {
              pairs.push_back(core::PrefixAsPair{match.prefix, *origin});
            }
          }
        }
      }
      core::dedupe_pairs(pairs);
      for (const auto& pair : pairs) {
        Tracer::Scope validate_span(tracer, "rpki.origin_validate", id);
        if (vrps.validate(pair.prefix, pair.origin) == rpki::OriginValidity::kValid) {
          ++counts.valid;
        }
      }
      counts.pairs += pairs.size();
    }
    Tracer::Scope probe_span(tracer, "dns.query", id);
    (void)resolver.query(apex_name, dns::RecordType::kDnskey);
  }
  counts.server_queries = server.stats().queries.load();
  return counts;
}

void check_dataset(const core::Dataset& got, const core::Dataset& want,
                   Result& result) {
  if (got.size() != want.size()) {
    result.fail(want.size(), "dataset row count differs from the serial oracle");
    return;
  }
  std::uint64_t differing = 0;
  std::size_t first = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    if (got[i] == want[i]) continue;
    if (differing++ == 0) first = i;
  }
  if (differing != 0) {
    result.fail(differing, "dataset row " + std::to_string(first) +
                               " differs from the serial oracle");
  }
  if (!(got.counters == want.counters) || got.rank_space != want.rank_space) {
    result.fail(differing == 0 ? 1 : 0,
                "dataset counters differ from the serial oracle");
  }
}

}  // namespace

Result run_sweep(const Config& config, Tracer& tracer) {
  Result result;
  double generate_ms = 0.0;
  const auto eco = generate_world(config, generate_ms);

  // Oracle: one serial run, computed once in set-up.
  core::PipelineConfig serial_config;
  serial_config.threads = 0;
  core::MeasurementPipeline serial(*eco, serial_config);
  const auto serial_start = Clock::now();
  core::Dataset oracle = serial.run();
  const double serial_ms = ms_between(serial_start, Clock::now());
  if (config.corrupt == Corrupt::kRow && oracle.size() > 0) {
    const core::DomainRecord row = oracle.record(0);
    oracle.domains.set_row(0, !row.excluded_dns, row.dnssec_signed, row.www,
                           row.apex);
  }

  core::PipelineConfig parallel_config;
  parallel_config.threads = config.threads;
  std::vector<double> run_ms;
  double measured_ms = 0.0;
  core::MeasurementPipeline::CacheStats cache_stats;
  while (run_ms.size() < 3 || measured_ms < config.seconds * 1000.0) {
    core::MeasurementPipeline pipeline(*eco, parallel_config);
    const double cpu_before = cpu_seconds();
    const auto start = Clock::now();
    const core::Dataset dataset = pipeline.run();
    const double ms = ms_between(start, Clock::now());
    result.cpu_s += cpu_seconds() - cpu_before;
    measured_ms += ms;
    run_ms.push_back(ms);
    cache_stats = pipeline.cache_stats();
    result.attempted += eco->domain_count();
    check_dataset(dataset, oracle, result);
  }
  result.wall_s = measured_ms / 1000.0;

  const double p50_ms = median(run_ms);
  const double domains_per_s = static_cast<double>(eco->domain_count()) / (p50_ms / 1000.0);
  // The world is the sweep's whole set-up (see README: generated once).
  result.e2e("setup_s", generate_ms / 1000.0, "s");
  result.e2e("throughput_per_s", domains_per_s, "1/s");
  result.e2e("latency_p50_ms", p50_ms, "ms");
  result.e2e("latency_tail_ms", quantile(run_ms, 0.9), "ms");
  result.info("sweep_domains_per_s", domains_per_s, "1/s");
  result.info("sweep_run_ms_p50", p50_ms, "ms");
  result.info("sweep_run_ms_max", quantile(run_ms, 1.0), "ms");
  result.info("sweep_runs", static_cast<double>(run_ms.size()), "count");
  result.info("sweep_serial_run_ms", serial_ms, "ms");
  if (!config.trace) return result;

  result.layer("web.generate_ms", generate_ms, "ms");
  replay_setup_stages(*eco, tracer, result);

  // Untraced, traced, untraced: the difference is the tracing overhead.
  const auto timed_replay = [&](bool traced, ReplayCounts& counts) {
    tracer.set_enabled(traced);
    const auto start = Clock::now();
    counts = replay_sweep(*eco, serial.rib(), serial.vrp_index(), tracer);
    return ms_between(start, Clock::now());
  };
  ReplayCounts counts;
  const double untraced_a = timed_replay(false, counts);
  const double traced = timed_replay(true, counts);
  const double untraced_b = timed_replay(false, counts);
  tracer.set_enabled(true);
  const double untraced = (untraced_a + untraced_b) / 2.0;
  result.layer("trace.overhead_pct", (traced - untraced) / untraced * 100.0, "%");

  const std::uint64_t dataset_pairs =
      oracle.counters.pairs_www + oracle.counters.pairs_apex;
  if (counts.pairs != dataset_pairs) {
    result.fail(1, "replayed pair count " + std::to_string(counts.pairs) +
                       " != dataset pairs " + std::to_string(dataset_pairs));
  }

  const auto resolve = tracer.summarize("dns.resolve_all");
  const auto probe = tracer.summarize("dns.query");
  const auto cover = tracer.summarize("bgp.covering");
  const auto validate = tracer.summarize("rpki.origin_validate");
  const auto domain = tracer.summarize("core.domain");
  result.layer("dns.resolve_calls", static_cast<double>(counts.resolve_calls), "count");
  result.layer("dns.resolve_busy_ms", resolve.busy_ms, "ms");
  result.layer("dns.resolve_us_p50", quantile(resolve.durations_us, 0.5), "us");
  result.layer("dns.resolve_us_p99", quantile(resolve.durations_us, 0.99), "us");
  result.layer("dns.queries_per_resolve",
               static_cast<double>(counts.resolve_queries) /
                   static_cast<double>(std::max<std::uint64_t>(1, counts.resolve_calls)),
               "ratio");
  result.layer("dns.resolve_failed", static_cast<double>(counts.resolve_failed), "count");
  result.layer("dns.server_queries", static_cast<double>(counts.server_queries), "count");
  result.layer("bgp.covering_calls", static_cast<double>(cover.count), "count");
  result.layer("bgp.covering_busy_ms", cover.busy_ms, "ms");
  result.layer("bgp.covering_us_p50", quantile(cover.durations_us, 0.5), "us");
  result.layer("bgp.covering_us_p99", quantile(cover.durations_us, 0.99), "us");
  result.layer("bgp.covering_cache_hit_ratio", cache_stats.covering_hit_rate(), "ratio");
  result.layer("rpki.origin_validate_calls", static_cast<double>(validate.count), "count");
  result.layer("rpki.origin_validate_busy_ms", validate.busy_ms, "ms");
  result.layer("rpki.validation_cache_hit_ratio", cache_stats.validation_hit_rate(),
               "ratio");
  result.layer("exec.speedup", serial_ms / p50_ms, "ratio");
  result.layer("exec.cpu_per_wall", result.cpu_s / result.wall_s, "ratio");

  // Serial run() minus what the replay attributes to dns, bgp and rpki and
  // minus the set-up stages run() times itself: emit and glue.
  const auto& setup = serial.setup_stats();
  result.layer("core.unattributed_ms",
               serial_ms - resolve.busy_ms - probe.busy_ms - cover.busy_ms -
                   validate.busy_ms - setup.rib_prepare_ms - setup.vrp_prepare_ms -
                   setup.cache_warm_ms,
               "ms");
  result.layer("core.pairs", static_cast<double>(counts.pairs), "count");
  result.layer("core.domain_self_ms", domain.self_ms, "ms");
  return result;
}

}  // namespace perfbench
