// churn: the write path. delta::IncrementalPipeline over the workload's
// world; init() runs in set-up, then `warmup_ticks` untimed ticks, then
// seconds × tick_rate (at least `min_ticks`) consecutive TickGenerator
// ticks at the configured churn, each timed around apply_tick(). The
// pipeline is serial (the exec pool is idle) and re-sweeps only dirty
// rows; every rows/4 changed rows the snapshot overlay compacts through a
// full Snapshot::build, and those ticks form the tail. `lane` offsets the
// churn seed, so that concurrent processes over the same world tick
// different streams. Every timed tick is also returned in `samples_ms`.
// Oracle, untimed after the ticks: full_rebuild() followed by
// check_against() must report identical.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "bench.hpp"
#include "delta/pipeline.hpp"
#include "layers.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve_probe.hpp"

namespace perfbench {

using namespace ripki;

Result run_churn(const Config& config, Tracer& tracer) {
  Result result;
  double generate_ms = 0.0;
  const auto eco = generate_world(config, generate_ms);

  delta::DeltaConfig delta_config;
  delta_config.churn.seed = config.seed + 0x9E3779B97F4A7C15ULL * config.lane;
  delta_config.churn.domain_churn_fraction = config.churn_fraction;
  std::unique_ptr<delta::IncrementalPipeline> pipeline;
  const double init_s = median_setup_s(config.setup_reps, [&] {
    pipeline.reset();
    pipeline = std::make_unique<delta::IncrementalPipeline>(*eco, delta_config);
    pipeline->init();
  });

  delta::TickGenerator generator(delta_config.churn, pipeline->universe());
  for (int n = 0; n < config.warmup_ticks; ++n) {
    pipeline->apply_tick(generator.next());
  }
  const std::uint64_t compactions_before = pipeline->compactions();
  std::vector<double> apply_ms, traced_ms, untraced_ms, generate_tick_ms;
  std::uint64_t dirty_rows = 0, changed_rows = 0;
  double measured_ms = 0.0;
  rusage usage_before{};
  ::getrusage(RUSAGE_SELF, &usage_before);
  const double cpu_before = cpu_seconds();
  const auto loop_start = Clock::now();
  const auto timed_ticks = static_cast<std::uint64_t>(
      std::max(static_cast<double>(config.min_ticks),
               std::ceil(config.seconds * config.tick_rate)));
  for (std::uint64_t n = 0; n < timed_ticks; ++n) {
    // Every other tick traced: an interleaved estimate of the overhead.
    const bool traced = config.trace && n % 2 == 0;
    tracer.set_enabled(traced);
    auto start = Clock::now();
    Tracer::Scope generate_span(tracer, "delta.tick_gen", n + 1);
    const delta::Tick tick = generator.next();
    generate_span.end();
    generate_tick_ms.push_back(ms_between(start, Clock::now()));

    start = Clock::now();
    Tracer::Scope apply_span(tracer, "delta.apply_tick", tick.number);
    const delta::TickStats stats = pipeline->apply_tick(tick);
    apply_span.end();
    const double ms = ms_between(start, Clock::now());
    apply_ms.push_back(ms);
    (traced ? traced_ms : untraced_ms).push_back(ms);
    measured_ms += ms;
    dirty_rows += stats.dirty_rows;
    changed_rows += stats.changed_rows;
  }
  tracer.set_enabled(config.trace);
  result.wall_s = ms_between(loop_start, Clock::now()) / 1000.0;
  result.cpu_s = cpu_seconds() - cpu_before;
  rusage usage_after{};
  ::getrusage(RUSAGE_SELF, &usage_after);
  const auto ticks = static_cast<std::uint64_t>(apply_ms.size());
  result.attempted = ticks;
  result.samples_ms = apply_ms;

  const auto full = pipeline->full_rebuild();
  const auto report = pipeline->check_against(*full);
  if (!report.identical) {
    result.fail(ticks, "delta snapshot differs from the full rebuild at " +
                           report.divergence);
  }

  const double p50_ms = median(apply_ms);
  const double p90_ms = quantile(apply_ms, 0.9);
  const std::uint64_t compactions = pipeline->compactions() - compactions_before;
  result.e2e("setup_s", generate_ms / 1000.0 + init_s, "s");
  result.e2e("throughput_per_s", static_cast<double>(ticks) / (measured_ms / 1000.0),
             "1/s");
  result.e2e("latency_p50_ms", p50_ms, "ms");
  result.e2e("latency_tail_ms", p90_ms, "ms");
  result.info("tick_p50_ms", p50_ms, "ms");
  result.info("tick_p90_ms", p90_ms, "ms");
  result.info("tick_max_ms", quantile(apply_ms, 1.0), "ms");
  result.info("ticks", static_cast<double>(ticks), "count");
  result.info("compactions", static_cast<double>(compactions), "count");
  result.info("tick_minor_faults",
              static_cast<double>(usage_after.ru_minflt - usage_before.ru_minflt),
              "count");
  if (!config.trace) return result;

  result.layer("web.generate_ms", generate_ms, "ms");
  const rpki::VrpSet vrps = replay_setup_stages(*eco, tracer, result);
  result.layer("delta.init_ms", init_s * 1000.0, "ms");
  result.layer("delta.dirty_rows",
               static_cast<double>(dirty_rows) / static_cast<double>(ticks), "count");
  result.layer("delta.changed_ratio",
               static_cast<double>(changed_rows) /
                   static_cast<double>(std::max<std::uint64_t>(1, dirty_rows)),
               "ratio");
  result.layer("delta.us_per_dirty_row",
               measured_ms * 1000.0 /
                   static_cast<double>(std::max<std::uint64_t>(1, dirty_rows)),
               "us");
  result.layer("delta.tick_gen_ms", mean(generate_tick_ms), "ms");
  result.layer("delta.compactions", static_cast<double>(compactions), "count");
  result.layer("exec.cpu_per_wall", result.cpu_s / result.wall_s, "ratio");

  // A compacting tick's extra cost: a full snapshot build over the rows.
  std::vector<double> build_ms;
  for (int i = 0; i < 3; ++i) {
    const auto start = Clock::now();
    Tracer::Scope span(tracer, "serve.snapshot_build", static_cast<std::uint64_t>(i));
    const auto snapshot =
        serve::Snapshot::build(pipeline->dataset(), eco->rib(), vrps, 1);
    span.end();
    build_ms.push_back(ms_between(start, Clock::now()));
  }
  result.layer("serve.snapshot_build_ms", median(build_ms), "ms");

  // The serve layer, socket-free, over the pipeline's latest snapshot and
  // serve_churn's request mix: publish, parse, handle, render.
  serve::QueryService service(serve::QueryServiceOptions{});
  service.publish(pipeline->snapshot());
  const std::vector<Key> keys = churn_keys(pipeline->dataset(), config.seed);
  probe_request_path(service, keys, tracer, result);
  probe_render(*pipeline->snapshot(), keys, tracer, result);

  const double untraced = median(untraced_ms);
  result.layer("trace.overhead_pct", (median(traced_ms) - untraced) / untraced * 100.0,
               "%");
  return result;
}

}  // namespace perfbench
