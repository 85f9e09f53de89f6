#include "core/pipeline.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

#include "core/kernel.hpp"
#include "exec/thread_pool.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "obs/trace.hpp"
#include "rpki/rrdp.hpp"
#include "rtr/cache.hpp"

namespace ripki::core {

namespace {

/// Shards per worker in the parallel sweep. Shard cost is even: on a
/// 4-vCPU VM, serial sweeps of each twelfth of a 100k-domain rank axis
/// took 74–150 ms, and one band varied across three rounds as much as the
/// bands did within one. The idle tail comes from workers progressing
/// unevenly on shared cores, and finer shards let the queue even that
/// out; the in-order merge appends each fragment while later shards run,
/// so finer shards add no merge after the join. A single worker gets
/// exactly one shard (nothing to balance).
constexpr std::size_t kShardsPerWorker = 16;

/// Floor on shard size: below this, per-shard overhead (span, fragment
/// table, queue traffic) dominates the work itself.
constexpr std::size_t kMinShardSize = 256;

std::size_t sweep_shard_count(std::size_t workers, std::size_t count) {
  if (workers <= 1) return 1;
  const std::size_t by_worker = workers * kShardsPerWorker;
  const std::size_t by_size = count / kMinShardSize;
  return std::max(workers, std::min(by_worker, std::max<std::size_t>(by_size, 1)));
}

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// items/second over a millisecond interval; 0 when the interval is
/// unmeasurably short.
double per_second(std::uint64_t items, double ms) {
  return ms <= 0.0 ? 0.0 : static_cast<double>(items) / (ms / 1000.0);
}

/// Per-worker sweep state: a measurement kernel over the *shared* world
/// (authoritative-server view, frozen RIB, VRP index), plus the counters
/// of the rows it measured. A sweep without a pool uses one; a pooled
/// sweep one per pool worker. A worker's set-up cost is its route memo's
/// slot array: one slot per node of the RIB image.
struct SweepWorker {
  MeasurementKernel kernel;
  PipelineCounters counters;
};

/// Folds a finished worker into the dataset and the cache statistics:
/// resolver query count, counter merge, route-memo traffic.
void absorb_worker(SweepWorker& worker, Dataset& dataset,
                   MeasurementPipeline::CacheStats& stats) {
  worker.counters.dns_queries = worker.kernel.queries_sent();
  dataset.counters.merge(worker.counters);
  const MeasurementPipeline::CacheTraffic traffic{
      .covering_hits = worker.kernel.covering_hits(),
      .covering_misses = worker.kernel.covering_misses(),
      .validation_hits = worker.kernel.validation_hits(),
      .validation_misses = worker.kernel.validation_misses()};
  stats.covering_hits += traffic.covering_hits;
  stats.covering_misses += traffic.covering_misses;
  stats.validation_hits += traffic.validation_hits;
  stats.validation_misses += traffic.validation_misses;
  stats.workers.push_back(traffic);
}

}  // namespace

std::vector<std::uint32_t> every_row(std::size_t count) {
  std::vector<std::uint32_t> rows(count);
  std::iota(rows.begin(), rows.end(), 0u);
  return rows;
}

MeasurementPipeline::MeasurementPipeline(const web::Ecosystem& ecosystem,
                                         PipelineConfig config)
    : ecosystem_(ecosystem), config_(config) {
  if (config_.now == 0) config_.now = ecosystem.config().now;
}

void MeasurementPipeline::set_health(std::string_view subsystem, bool healthy,
                                     std::string_view detail) const {
  if (config_.health == nullptr) return;
  config_.health->set(subsystem, healthy, detail);
}

void MeasurementPipeline::log(obs::LogLevel level, std::string_view message,
                              std::vector<obs::LogField> fields) const {
  if (static_cast<int>(level) < static_cast<int>(config_.verbosity)) return;
  obs::Logger::global().log(level, "pipeline", message, std::move(fields));
}

void MeasurementPipeline::prepare_rib(exec::ThreadPool* pool) {
  obs::Span span(config_.registry, "stage3.rib_prepare");
  const auto stage_start = std::chrono::steady_clock::now();
  // Consume the collector table the way the paper consumes RIS: through
  // the serialised MRT dump, not via in-process shortcuts. The world
  // serialises it once; every run parses it.
  const util::Bytes& dump = ecosystem_.mrt_dump();
  const auto parse_start = std::chrono::steady_clock::now();
  auto rib = bgp::mrt::read_table_dump(dump, &mrt_stats_, config_.registry, pool);
  const double parse_ms = ms_since(parse_start);
  assert(rib.ok() && "ecosystem MRT dump must parse");
  rib_ = std::move(rib).value();
  // Freeze the compact array-mapped trie image: the sweep's route memos
  // key on its node indices, and the flat walk is cheaper than pointer
  // chasing for every lookup.
  rib_.freeze();
  setup_stats_.rib_prepare_ms = ms_since(stage_start);
  setup_stats_.mrt_records_per_sec = per_second(mrt_stats_.records, parse_ms);
  if (config_.registry != nullptr) {
    config_.registry->gauge("ripki.bgp.rib_prefixes")
        .set(static_cast<std::int64_t>(rib_.prefix_count()));
    config_.registry->gauge("ripki.bgp.rib_entries")
        .set(static_cast<std::int64_t>(rib_.entry_count()));
    config_.registry->gauge("ripki.bgp.mrt_parse_records_per_sec")
        .set(static_cast<std::int64_t>(setup_stats_.mrt_records_per_sec));
    config_.registry->describe("ripki.bgp.rib_entries",
                               "Path entries in the MRT-loaded RIB (stage 3)");
    config_.registry->describe("ripki.bgp.mrt_parse_records_per_sec",
                               "MRT records parsed per second in the last "
                               "stage 3 table load");
  }
  log(obs::LogLevel::kInfo, "stage 3 table ready",
      {{"prefixes", rib_.prefix_count()}, {"entries", rib_.entry_count()}});
  set_health("bgp", rib_.prefix_count() > 0,
             rib_.prefix_count() > 0 ? "RIB loaded from MRT dump"
                                     : "RIB empty after MRT parse");
}

void MeasurementPipeline::prepare_vrps(exec::ThreadPool* pool) {
  obs::Span span(config_.registry, "stage4.vrp_prepare");
  const auto stage_start = std::chrono::steady_clock::now();
  const rpki::RepositoryValidator validator(config_.now, config_.registry);
  double validate_ms = 0.0;
  if (config_.use_rrdp) {
    // Full relying-party collection: mirror every repository over RRDP,
    // reassemble the fetched objects, and bootstrap trust from the TALs.
    std::vector<rpki::Repository> fetched;
    for (const auto& repo : ecosystem_.repositories()) {
      obs::Span mirror_span(config_.registry, "rrdp.mirror");
      rpki::RrdpServer server("session-" + rpki::repository_base_uri(repo), repo);
      rpki::RrdpClient client;
      const auto synced = client.sync(server);
      assert(synced.ok() && "RRDP sync against in-process server must succeed");
      (void)synced;
      auto assembled = client.assemble();
      assert(assembled.ok() && "RRDP-mirrored repository must reassemble");
      fetched.push_back(std::move(assembled).value());
    }
    const auto tals = ecosystem_.tals();
    const auto validate_start = std::chrono::steady_clock::now();
    report_ = validator.validate(fetched, tals, pool);
    validate_ms = ms_since(validate_start);
  } else {
    const auto validate_start = std::chrono::steady_clock::now();
    report_ = validator.validate(ecosystem_.repositories(), pool);
    validate_ms = ms_since(validate_start);
  }
  setup_stats_.roas_per_sec =
      per_second(report_.roas_accepted + report_.roas_rejected, validate_ms);

  if (config_.use_rtr) {
    // Ship the validated set to the "router" over RFC 6810.
    rtr::CacheServer cache(/*session_id=*/0x5157, report_.vrps);
    rtr::RouterClient client;
    client.attach(config_.registry);
    const auto synced = client.sync(cache);
    assert(synced.ok() && "RTR sync against in-process cache must succeed");
    (void)synced;
    vrp_index_ = client.build_index();
  } else {
    vrp_index_ = rpki::VrpIndex(report_.vrps);
  }
  setup_stats_.vrp_prepare_ms = ms_since(stage_start);
  if (config_.registry != nullptr) {
    config_.registry->gauge("ripki.rpki.roa_validate_per_sec")
        .set(static_cast<std::int64_t>(setup_stats_.roas_per_sec));
    config_.registry->describe("ripki.rpki.roa_validate_per_sec",
                               "ROAs validated per second in the last "
                               "stage 4 repository walk");
  }
  log(obs::LogLevel::kInfo, "stage 4 VRPs ready",
      {{"vrps", report_.vrps.size()},
       {"roas_accepted", report_.roas_accepted},
       {"roas_rejected", report_.roas_rejected}});
  set_health("rpki", !report_.vrps.empty(),
             !report_.vrps.empty() ? "VRP set validated"
                                   : "validation produced no VRPs");
}

void MeasurementPipeline::publish_sweep_metrics() const {
  if (config_.registry == nullptr) return;
  obs::Registry& registry = *config_.registry;
  registry.counter("ripki.bgp.covering_cache_hits")
      .inc(cache_stats_.covering_hits);
  registry.counter("ripki.bgp.covering_cache_misses")
      .inc(cache_stats_.covering_misses);
  registry.counter("ripki.rpki.validation_cache_hits")
      .inc(cache_stats_.validation_hits);
  registry.counter("ripki.rpki.validation_cache_misses")
      .inc(cache_stats_.validation_misses);
  registry.describe("ripki.bgp.covering_cache_hits",
                    "Route-memo lookups that found their trie-node slot "
                    "filled (per-worker memo)");
  registry.describe("ripki.bgp.covering_cache_misses",
                    "Route-memo lookups that filled their trie-node slot "
                    "from the node's covering path");
  registry.describe("ripki.rpki.validation_cache_hits",
                    "Validated (prefix, origin) pairs taken from a filled "
                    "route-memo slot");
  registry.describe("ripki.rpki.validation_cache_misses",
                    "(prefix, origin) pairs validated against the VRP index "
                    "while filling a route-memo slot");
  registry.gauge("ripki.exec.threads")
      .set(static_cast<std::int64_t>(effective_threads_));
  registry.describe("ripki.exec.threads",
                    "Sweep worker threads of the last run after the "
                    "hardware-concurrency clamp (0 = serial)");
  registry.gauge("ripki.exec.covering_cache_hit_rate_pct")
      .set(static_cast<std::int64_t>(cache_stats_.covering_hit_rate() * 100.0));
  registry.gauge("ripki.exec.validation_cache_hit_rate_pct")
      .set(static_cast<std::int64_t>(cache_stats_.validation_hit_rate() *
                                     100.0));
  registry.describe("ripki.exec.covering_cache_hit_rate_pct",
                    "Route-memo lookup hit rate of the last run (%)");
  registry.describe("ripki.exec.validation_cache_hit_rate_pct",
                    "Share of the last run's pairs taken from a filled "
                    "route-memo slot (%)");
}

Dataset MeasurementPipeline::run() {
  if (config_.registry != nullptr) {
    config_.registry->describe("ripki.pipeline.domains_total",
                               "Domains measured (paper stage 1 selection)");
    config_.registry->describe("ripki.pipeline.dns_queries",
                               "DNS queries issued during stage 2 resolution");
    config_.registry->describe("ripki.bgp.rib_prefixes",
                               "Prefixes in the MRT-loaded RIB (stage 3)");
    config_.registry->describe("ripki.rpki.vrps",
                               "Validated ROA payloads feeding stage 4");
  }
  // Clamp to the host: more workers than cores only time-slice each other
  // (and split the cache working sets) — never a speedup.
  effective_threads_ = config_.threads;
  const std::size_t hardware = exec::ThreadPool::hardware_threads();
  if (effective_threads_ > hardware) {
    log(obs::LogLevel::kWarn, "clamping sweep threads to hardware concurrency",
        {{"requested", config_.threads}, {"hardware", hardware}});
    effective_threads_ = hardware;
  }
  obs::Span run_span(config_.registry, "pipeline.run");
  // One pool serves the setup stages and the sweep, so worker threads are
  // spawned (and their counters registered) exactly once per run.
  std::unique_ptr<exec::ThreadPool> pool;
  if (effective_threads_ > 0) {
    pool = std::make_unique<exec::ThreadPool>(effective_threads_,
                                              config_.registry, config_.sched);
  } else if (config_.sched != nullptr) {
    // Serial run: one telemetry window with only the external lane, which
    // the sweep below binds to the calling thread.
    config_.sched->begin_run(0);
  }
  prepare_rib(pool.get());
  prepare_vrps(pool.get());

  // Materialize the vantage's zone view on this thread (lazily built); the
  // sweep's workers share it read-only.
  const dns::ZoneSource& zones = ecosystem_.zone_source(config_.vantage);

  obs::Span select_span(config_.registry, "stage1.select_domains");
  std::size_t count = ecosystem_.domain_count();
  if (config_.max_domains != 0) count = std::min(count, config_.max_domains);
  select_span.stop();
  log(obs::LogLevel::kInfo, "stage 1 domains selected",
      {{"domains", count}, {"threads", effective_threads_}});

  Dataset dataset =
      sweep({&zones, &rib_, &vrp_index_}, every_row(count), pool.get());

  const std::uint64_t resolved =
      dataset.counters.domains_total - dataset.counters.domains_excluded_dns;
  set_health("dns",
             dataset.counters.domains_total == 0 || resolved > 0,
             resolved > 0 ? "resolutions succeeding"
                          : "no domain resolved");
  set_health("pipeline", true, "last run completed");
  publish_sweep_metrics();

  if (config_.registry != nullptr) {
    dataset.counters.publish(*config_.registry);
    run_span.stop();
    log(obs::LogLevel::kInfo,
        "stage timing breakdown\n" + obs::stage_report(*config_.registry));
  }
  return dataset;
}

Dataset MeasurementPipeline::sweep(const SweepWorld& world,
                                   std::span<const std::uint32_t> rows,
                                   exec::ThreadPool* pool, RowExtras* extras) {
  // One authoritative-server view over the zones, shared read-only by
  // every worker (the server's stats are atomic).
  const dns::AuthoritativeServer server(world.zones);
  std::vector<std::unique_ptr<SweepWorker>> workers;
  const std::size_t worker_count = pool == nullptr ? 1 : pool->size();
  for (std::size_t i = 0; i < worker_count; ++i) {
    workers.push_back(std::make_unique<SweepWorker>(SweepWorker{
        MeasurementKernel(&server, world.rib, world.vrps, config_.registry,
                          config_.sched),
        {}}));
  }
  assert(std::is_sorted(rows.begin(), rows.end()));
  if (extras != nullptr) {
    extras->as_set_entries.assign(rows.size(), 0);
    extras->kept_addresses.assign(rows.size(), {});
  }

  // Each shard measures rows[begin, end) through its worker's kernel,
  // charges them to the worker's counters, and appends them to its own
  // SoA fragment. Fragments append in shard order, replaying the one-shard
  // append sequence exactly, so the dataset is the same for every thread
  // count.
  const std::size_t n_shards =
      pool == nullptr ? 1 : sweep_shard_count(pool->size(), rows.size());
  std::vector<DomainTable> fragments(n_shards);
  const auto run_shard = [&](std::size_t shard, std::size_t begin,
                             std::size_t end) {
    SweepWorker& worker =
        *workers[pool == nullptr ? 0 : exec::ThreadPool::current_worker()];
    DomainTable& fragment = fragments[shard];
    fragment.reserve(end - begin);
    // A worker's span stack is empty, so its shards carry the full dotted
    // path and aggregate into the histograms of the calling thread's one
    // shard inside run()'s span; the tracer shows a segment per shard.
    obs::Span sweep_span(config_.registry,
                         pool == nullptr ? "sweep" : "pipeline.run.sweep");
    for (std::size_t k = begin; k < end; ++k) {
      const std::string_view name = ecosystem_.plan_name(rows[k]);
      const DomainMeasurement& row = worker.kernel.measure(name);
      obs::Span emit_span(config_.sched, obs::SweepStage::kEmit);
      worker.counters.count_row(+1, row, row.as_set_entries_excluded);
      fragment.append(ecosystem_.plan(rows[k]).rank, name, row.excluded_dns,
                      row.dnssec_signed, row.www, row.apex);
      if (extras != nullptr) {
        extras->as_set_entries[k] = row.as_set_entries_excluded;
        extras->kept_addresses[k] = row.kept_addresses;
      }
    }
  };

  Dataset dataset;
  dataset.rank_space = ecosystem_.config().rank_space;
  if (pool == nullptr) {
    // Bind the calling thread to the external lane so the kernel's stage
    // spans attribute its time too.
    obs::LaneScope lane(config_.sched, config_.sched != nullptr
                                           ? config_.sched->external_lane()
                                           : 0);
    run_shard(0, 0, rows.size());
    dataset.domains = std::move(fragments.front());
  } else {
    // The rows are known up front; the pair pool grows as fragments
    // arrive. The calling thread appends each fragment, and frees it, as
    // soon as it and every earlier one are done, while later shards run.
    dataset.domains.reserve(rows.size());
    exec::parallel_for_shards(
        *pool, rows.size(), n_shards, run_shard, [&](std::size_t shard) {
          // Opened on the calling thread inside the live `pipeline.run`
          // span, so the short name lands at `pipeline.run.sweep_merge`.
          obs::Span merge_span(config_.registry, "sweep_merge");
          dataset.domains.append_table(fragments[shard]);
          fragments[shard] = DomainTable();
        });
  }
  // A table grown row by row (or fragment by fragment) keeps the pair
  // pool's doubling slack; the dataset, the delta's base and the oracle's
  // snapshot hold it for their lifetime, so give it back.
  dataset.domains.shrink_pair_pool();
  // Per-worker counters merge once at join; field-wise sums are
  // order-independent, so totals match the one-shard run exactly.
  cache_stats_ = CacheStats{};
  for (auto& worker : workers) absorb_worker(*worker, dataset, cache_stats_);
  return dataset;
}

}  // namespace ripki::core
