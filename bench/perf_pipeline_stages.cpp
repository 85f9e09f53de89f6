// Per-stage timing and parallel-speedup baseline for the measurement
// pipeline.
//
// Runs the four-step pipeline over the same ecosystem several times —
// with metrics only, with the event tracer attached, and across a thread
// ladder (serial, 1, 2, max) — and emits one JSON object on stdout:
//
//   {"metrics": <registry JSON of the tracer-off serial run>,
//    "tracer_overhead": {"off_ms": .., "on_ms": .., "overhead_pct": ..,
//                        "events_recorded": .., "events_dropped": ..},
//    "profiler_overhead": {"off_ms": .., "on_ms": .., "overhead_pct": ..,
//                          "hz": .., "samples": .., "dropped": ..},
//    "parallel_speedup": {"domains": .., "serial_ms": ..,
//                         "runs": [{"threads": .., "wall_ms": ..,
//                                   "speedup": ..,
//                                   "rib_prepare_ms": ..,
//                                   "vrp_prepare_ms": ..,
//                                   "covering_cache_hit_rate": ..,
//                                   "validation_cache_hit_rate": ..,
//                                   "identical_to_serial": true,
//                                   "identical_rib": true,
//                                   "identical_report": true}, ..]},
//    "setup_speedup": {"serial_parse_ms": .., "serial_validate_ms": ..,
//                      "runs": [{"threads": .., "parse_ms": ..,
//                                "validate_ms": .., "parse_speedup": ..,
//                                "validate_speedup": ..,
//                                "combined_speedup": ..,
//                                "identical_rib": true,
//                                "identical_report": true}, ..]},
//    "scheduler": {"runs": [{"threads": .., "off_ms": .., "on_ms": ..,
//                            "overhead_pct": .., "utilization_pct": ..,
//                            "steal_ratio": .., "tasks": .., "steals": ..,
//                            "idle_tail_ms": ..,
//                            "stage_ms": {"dns": .., "covering": ..,
//                                         "validation": .., "emit": ..},
//                            "workers": [{"lane": .., "tasks": ..,
//                                         "steals": .., "run_ms": ..,
//                                         "idle_ms": ..}, ..]}, ..]},
//    "million_rung": {"domains": .., "serial_ms": .., "peak_rss_bytes": ..,
//                     "runs": [{"threads": .., "wall_ms": ..,
//                               "pair_serial_ms": .., "speedup": ..,
//                               "identical_to_serial": true}, ..]},
//    "delta_rung": {"domains": .., "ticks": .., "churn_fraction": ..,
//                   "init_full_ms": .., "mean_apply_ms": ..,
//                   "max_apply_ms": .., "mean_full_ms": ..,
//                   "mean_speedup": ..,
//                   "mean_phase_ms": {"dns": .., "bgp": .., "rpki": ..,
//                                     "resweep": .., "publish": ..},
//                   "runs": [{"tick": .., "events": .., "dirty_rows": ..,
//                             "changed_rows": .., "apply_ms": ..,
//                             "full_ms": ..,
//                             "phase_ms": {"dns": .., "bgp": ..,
//                                          "rpki": .., "resweep": ..,
//                                          "publish": ..},
//                             "identical_to_full": true}, ..]}}
//
// The scheduler block times each thread-ladder rung twice back to back —
// without and with SchedTelemetry attached — so check_regression.py can
// gate the X-ray's recording overhead (<3%) on adjacent pairs, immune to
// process-lifetime drift. `--schedz FILE` dumps the top rung's /schedz
// JSON and `--trace FILE` a combined Perfetto trace from one extra
// instrumented run (excluded from the overhead figures).
//
// Every parallel dataset is compared record-for-record (counters
// included) against the serial one, and every pooled setup artifact (RIB,
// parse stats, validation report) byte-for-byte against the serial
// artifact; all "identical_*" fields must be true — sharding is an
// implementation detail, never an output change. The exit code reflects
// ONLY those identity checks: speedup numbers are reported for the
// trajectory, not asserted, because CI runners may expose a single core.
//
// The human-readable stage table goes to stderr. Future PRs compare the
// JSON against their own run to track the per-stage perf trajectory, the
// instrumentation overhead, and the parallel scaling curve.
//
// The million rung is a separate, much larger ecosystem — default
// 1,000,000 domains, the paper's real N — swept once serially and once
// per parallel ladder rung, emitting wall-ms, per-thread speedup, the
// byte-identity verdict against its own serial sweep, and the process
// peak RSS sampled right after the serial sweep (the memory figure the
// compact core layout is accountable for). `--million N` rescales it
// (CI passes a downscaled N; 0 skips the rung), and the
// RIPKI_MILLION_DOMAINS environment variable sets the default.
//
//   build/bench/perf_pipeline_stages [domain_count] [--rtr] [--rrdp]
//                                    [--threads N] [--million N]
//                                    [--delta N] [--delta-ticks T]
//                                    [--schedz FILE] [--trace FILE]
//
// --threads caps the ladder's top rung (default: hardware threads).
// --delta N runs the incremental-pipeline rung over an N-domain
// ecosystem (0 = skip, the default): init once, then --delta-ticks
// (default 20) churn ticks, each applied incrementally AND rebuilt from
// scratch; per tick it emits the apply cost, the full-rebuild cost, and
// the byte-identity verdict across all /v1/* renderings. The exit code
// includes those verdicts, and check_regression.py gates mean_apply_ms.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bgp/mrt.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "delta/churn.hpp"
#include "delta/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "rpki/validator.hpp"

namespace {

struct TimedRun {
  double wall_ms = 0;
  ripki::core::Dataset dataset;
  ripki::core::MeasurementPipeline::CacheStats cache_stats;
  // The pipeline itself is kept so rungs can compare setup artifacts
  // (RIB, validation report) against the serial baseline.
  std::unique_ptr<ripki::core::MeasurementPipeline> pipeline;
};

TimedRun run_once(const ripki::web::Ecosystem& ecosystem,
                  ripki::core::PipelineConfig config) {
  TimedRun out;
  const auto start = std::chrono::steady_clock::now();
  out.pipeline =
      std::make_unique<ripki::core::MeasurementPipeline>(ecosystem, config);
  out.dataset = out.pipeline->run();
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  out.cache_stats = out.pipeline->cache_stats();
  return out;
}

double ms_between(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Process peak resident set in bytes: VmHWM from /proc/self/status,
/// falling back to getrusage on kernels without it. A high-water mark,
/// so it must be sampled right after the allocation of interest.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10) * 1024;
    }
  }
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    return static_cast<std::uint64_t>(usage.ru_maxrss) * 1024;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ripki;

  web::EcosystemConfig config;
  config.domain_count = 20'000;
  core::PipelineConfig pipeline_config;
  std::size_t max_threads = exec::ThreadPool::hardware_threads();
  std::size_t million_domains = 1'000'000;
  if (const char* env = std::getenv("RIPKI_MILLION_DOMAINS")) {
    million_domains = std::strtoull(env, nullptr, 10);
  }
  const char* schedz_path = nullptr;
  const char* trace_path = nullptr;
  std::size_t delta_domains = 0;
  std::size_t delta_ticks = 20;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--rtr") == 0) {
      pipeline_config.use_rtr = true;
    } else if (std::strcmp(argv[i], "--rrdp") == 0) {
      pipeline_config.use_rrdp = true;
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      max_threads = std::strtoull(argv[++i], nullptr, 10);
      if (max_threads == 0) max_threads = 1;
    } else if (std::strcmp(argv[i], "--million") == 0 && i + 1 < argc) {
      million_domains = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--delta") == 0 && i + 1 < argc) {
      delta_domains = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--delta-ticks") == 0 && i + 1 < argc) {
      delta_ticks = std::strtoull(argv[++i], nullptr, 10);
    } else if (std::strcmp(argv[i], "--schedz") == 0 && i + 1 < argc) {
      schedz_path = argv[++i];
    } else if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else {
      config.domain_count = std::strtoull(argv[i], nullptr, 10);
    }
  }

  std::cerr << "perf_pipeline_stages: " << config.domain_count
            << " domains (rtr=" << pipeline_config.use_rtr
            << ", rrdp=" << pipeline_config.use_rrdp
            << ", max threads=" << max_threads << ")\n";
  const auto ecosystem = web::Ecosystem::generate(config);

  // Pass 1: serial, metrics registry only (the per-stage baseline and the
  // speedup denominator).
  obs::Registry registry;
  pipeline_config.registry = &registry;
  pipeline_config.verbosity = obs::LogLevel::kInfo;
  const TimedRun serial = run_once(*ecosystem, pipeline_config);

  // Pass 2: same serial run with the event tracer attached — the
  // instrumentation overhead series.
  obs::Registry traced_registry;
  obs::EventTracer tracer(/*capacity=*/1 << 16);
  core::PipelineConfig traced_config = pipeline_config;
  traced_config.registry = &traced_registry;
  traced_config.tracer = &tracer;
  const double on_ms = run_once(*ecosystem, traced_config).wall_ms;

  // Pass 2b: same serial run with the 100 Hz sampling profiler armed —
  // the always-on profiling overhead series (acceptance: <5%). The off
  // baseline is a fresh adjacent run, not pass 1: wall times drift over
  // the process lifetime (allocator and page-cache state), and an
  // adjacent pair keeps that drift out of the overhead figure.
  obs::SamplingProfiler profiler;
  double profiler_off_ms = 0.0;
  double profiled_ms = 0.0;
  {
    {
      obs::Registry off_registry;
      core::PipelineConfig off_config = pipeline_config;
      off_config.registry = &off_registry;
      profiler_off_ms = run_once(*ecosystem, off_config).wall_ms;
    }
    obs::Registry profiled_registry;
    core::PipelineConfig profiled_config = pipeline_config;
    profiled_config.registry = &profiled_registry;
    if (!profiler.start()) {
      std::cerr << "perf_pipeline_stages: cannot arm SIGPROF profiler\n";
      return 1;
    }
    profiled_ms = run_once(*ecosystem, profiled_config).wall_ms;
    profiler.stop();
  }

  // Pass 3: the thread ladder. Every rung gets a fresh registry so its
  // cache counters are per-run, and its dataset is checked against the
  // serial one.
  std::vector<std::size_t> ladder{0, 1, 2, max_threads};
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());

  struct Rung {
    std::size_t threads;
    double wall_ms;
    double speedup;
    double rib_prepare_ms;
    double vrp_prepare_ms;
    double covering_rate;
    double validation_rate;
    bool identical;
    bool identical_rib;
    bool identical_report;
  };
  std::vector<Rung> rungs;
  for (const std::size_t threads : ladder) {
    double wall_ms;
    core::MeasurementPipeline::CacheStats cache_stats;
    core::MeasurementPipeline::SetupStats setup_stats;
    bool identical, identical_rib, identical_report;
    if (threads == 0) {
      wall_ms = serial.wall_ms;  // reuse pass 1
      cache_stats = serial.cache_stats;
      setup_stats = serial.pipeline->setup_stats();
      identical = identical_rib = identical_report = true;
    } else {
      obs::Registry rung_registry;
      core::PipelineConfig rung_config = pipeline_config;
      rung_config.registry = &rung_registry;
      rung_config.verbosity = obs::LogLevel::kWarn;
      rung_config.threads = threads;
      const TimedRun run = run_once(*ecosystem, rung_config);
      wall_ms = run.wall_ms;
      cache_stats = run.cache_stats;
      setup_stats = run.pipeline->setup_stats();
      identical = run.dataset == serial.dataset;
      identical_rib = run.pipeline->rib() == serial.pipeline->rib() &&
                      run.pipeline->mrt_stats() == serial.pipeline->mrt_stats();
      identical_report =
          run.pipeline->validation_report() == serial.pipeline->validation_report();
    }
    rungs.push_back({threads, wall_ms,
                     wall_ms > 0 ? serial.wall_ms / wall_ms : 0.0,
                     setup_stats.rib_prepare_ms, setup_stats.vrp_prepare_ms,
                     cache_stats.covering_hit_rate(),
                     cache_stats.validation_hit_rate(), identical,
                     identical_rib, identical_report});
    std::cerr << "threads=" << threads << ": " << wall_ms << " ms ("
              << rungs.back().speedup << "x), rib_prepare "
              << setup_stats.rib_prepare_ms << " ms, vrp_prepare "
              << setup_stats.vrp_prepare_ms << " ms, covering cache "
              << rungs.back().covering_rate * 100 << "% hit, validation cache "
              << rungs.back().validation_rate * 100 << "% hit, identical="
              << (identical && identical_rib && identical_report ? "yes" : "NO")
              << "\n";
  }

  // Pass 4: the setup-stage ladder. The MRT parse and the repository
  // validation are timed directly (no sweep, no registry) so the
  // parse/validate speedup is visible even when the domain sweep
  // dominates the wall clock. Serial first, then pools of {1, 2, max}.
  const util::Bytes dump = ecosystem->mrt_dump();
  const auto& repositories = ecosystem->repositories();
  const rpki::RepositoryValidator validator(ecosystem->config().now);

  bgp::mrt::ParseStats serial_parse_stats;
  auto parse_start = std::chrono::steady_clock::now();
  auto serial_rib = bgp::mrt::read_table_dump(dump, &serial_parse_stats);
  const double serial_parse_ms = ms_between(parse_start);
  if (!serial_rib.ok()) {
    std::cerr << "serial MRT parse failed: " << serial_rib.error().message
              << "\n";
    return 1;
  }
  auto validate_start = std::chrono::steady_clock::now();
  const rpki::ValidationReport serial_report = validator.validate(repositories);
  const double serial_validate_ms = ms_between(validate_start);
  std::cerr << "setup serial: parse " << serial_parse_ms << " ms, validate "
            << serial_validate_ms << " ms\n";

  struct SetupRung {
    std::size_t threads;
    double parse_ms;
    double validate_ms;
    bool identical_rib;
    bool identical_report;
  };
  std::vector<SetupRung> setup_rungs;
  setup_rungs.push_back(
      {0, serial_parse_ms, serial_validate_ms, true, true});
  for (const std::size_t threads : ladder) {
    if (threads == 0) continue;
    exec::ThreadPool pool(threads);
    bgp::mrt::ParseStats parse_stats;
    parse_start = std::chrono::steady_clock::now();
    auto rib = bgp::mrt::read_table_dump(dump, &parse_stats, nullptr, &pool);
    const double parse_ms = ms_between(parse_start);
    validate_start = std::chrono::steady_clock::now();
    const rpki::ValidationReport report =
        validator.validate(repositories, &pool);
    const double validate_ms = ms_between(validate_start);
    const bool identical_rib = rib.ok() && rib.value() == serial_rib.value() &&
                               parse_stats == serial_parse_stats;
    const bool identical_report = report == serial_report;
    setup_rungs.push_back(
        {threads, parse_ms, validate_ms, identical_rib, identical_report});
    std::cerr << "setup threads=" << threads << ": parse " << parse_ms
              << " ms (" << (parse_ms > 0 ? serial_parse_ms / parse_ms : 0.0)
              << "x), validate " << validate_ms << " ms ("
              << (validate_ms > 0 ? serial_validate_ms / validate_ms : 0.0)
              << "x), identical="
              << (identical_rib && identical_report ? "yes" : "NO") << "\n";
  }

  // Pass 5: the scheduler X-ray ladder. Each rung interleaves several
  // adjacent off/on pairs — an uninstrumented run immediately followed
  // by one with SchedTelemetry wired through the pool — and reports the
  // pair with the LOWEST overhead. Adjacency keeps allocator and
  // page-cache drift out of the figure, and taking the best pair keeps
  // scheduler noise out of it: the recording cost is present in every
  // pair, so any single quiet pair upper-bounds it, while load spikes
  // on shared or single-core runners inflate individual pairs by far
  // more than the 3% budget (measured spread on a busy 1-core box:
  // ±15% between adjacent identical runs). The telemetry snapshot of
  // the last instrumented run supplies utilization / steal / stages.
  struct SchedRung {
    std::size_t threads;
    double off_ms;
    double on_ms;
    double overhead_pct;
    obs::SchedTelemetry::Snapshot snapshot;
    obs::SchedTelemetry::Snapshot::Aggregates agg;
  };
  constexpr int kSchedPairs = 5;
  std::vector<SchedRung> sched_rungs;
  std::string top_schedz_json;
  for (const std::size_t threads : ladder) {
    SchedRung rung;
    rung.threads = threads;
    rung.off_ms = rung.on_ms = 0.0;
    for (int pair = 0; pair < kSchedPairs; ++pair) {
      double off_ms;
      {
        obs::Registry off_registry;
        core::PipelineConfig off_config = pipeline_config;
        off_config.registry = &off_registry;
        off_config.verbosity = obs::LogLevel::kWarn;
        off_config.threads = threads;
        off_ms = run_once(*ecosystem, off_config).wall_ms;
      }
      obs::Registry on_registry;
      obs::SchedTelemetry pair_sched(&on_registry);
      core::PipelineConfig on_config = pipeline_config;
      on_config.registry = &on_registry;
      on_config.verbosity = obs::LogLevel::kWarn;
      on_config.threads = threads;
      on_config.sched = &pair_sched;
      const double on_ms = run_once(*ecosystem, on_config).wall_ms;
      const double pair_overhead = off_ms > 0 ? (on_ms - off_ms) / off_ms : 0;
      if (pair == 0 ||
          pair_overhead < (rung.on_ms - rung.off_ms) / rung.off_ms) {
        rung.off_ms = off_ms;
        rung.on_ms = on_ms;
      }
      if (pair == kSchedPairs - 1) {
        rung.snapshot = pair_sched.snapshot();
        if (threads == ladder.back()) {
          top_schedz_json = pair_sched.render_json();
        }
      }
    }
    rung.overhead_pct =
        rung.off_ms > 0 ? (rung.on_ms - rung.off_ms) / rung.off_ms * 100.0 : 0;
    rung.agg = rung.snapshot.aggregates();
    std::cerr << "sched threads=" << threads << ": off " << rung.off_ms
              << " ms, on " << rung.on_ms << " ms (" << rung.overhead_pct
              << "% overhead, best of " << kSchedPairs
              << " pairs), utilization " << rung.agg.utilization_pct
              << "%, steal ratio " << rung.agg.steal_ratio << " ("
              << rung.agg.steals << "/" << rung.agg.tasks
              << " tasks), idle tail " << rung.agg.idle_tail_ms << " ms\n";
    sched_rungs.push_back(std::move(rung));
  }

  if (schedz_path != nullptr && !top_schedz_json.empty()) {
    std::ofstream out(schedz_path);
    out << top_schedz_json << '\n';
    std::cerr << "sched: wrote /schedz JSON to " << schedz_path << "\n";
  }
  if (trace_path != nullptr) {
    // One extra instrumented run with tracer AND scheduler attached; kept
    // out of the overhead figures above because the tracer perturbs them.
    obs::Registry trace_registry;
    obs::EventTracer trace_tracer(/*capacity=*/1 << 16);
    obs::SchedTelemetry trace_sched(&trace_registry);
    core::PipelineConfig trace_config = pipeline_config;
    trace_config.registry = &trace_registry;
    trace_config.verbosity = obs::LogLevel::kWarn;
    trace_config.threads = ladder.back();
    trace_config.tracer = &trace_tracer;
    trace_config.sched = &trace_sched;
    run_once(*ecosystem, trace_config);
    std::ofstream out(trace_path);
    obs::export_combined_trace(&trace_tracer, &trace_sched, out);
    out << '\n';
    std::cerr << "sched: wrote combined Perfetto trace to " << trace_path
              << "\n";
  }

  // Pass 6: the million-domain rung. A separate ecosystem at the paper's
  // real N (default 1,000,000; --million / RIPKI_MILLION_DOMAINS rescale
  // it, CI runs it downscaled) swept once serially and once per parallel
  // ladder rung. Runs last so its allocations cannot perturb the smaller
  // passes' wall clocks. Peak RSS is sampled right after the first
  // serial sweep: at this rung the ecosystem plus one dataset dominate
  // the process high-water mark, so the figure tracks the compact core
  // layout, and check_regression.py gates it against the baseline.
  //
  // Each parallel rung's speedup is computed against an ADJACENT serial
  // re-run (pair_serial_ms), the same adjacency trick pass 5 uses: at
  // hundreds of MB per run, allocator and page-cache drift across the
  // process lifetime dwarfs the engine difference (measured ~20% slower
  // for a second identical 1M run in the same process), and an adjacent
  // pair keeps that drift out of the speedup. Identity is always checked
  // against the first serial dataset.
  struct MillionRun {
    std::size_t threads;
    double wall_ms;
    double pair_serial_ms;
    double speedup;
    bool identical;
  };
  std::vector<MillionRun> million_runs;
  std::uint64_t million_rss = 0;
  double million_serial_ms = 0.0;
  if (million_domains > 0) {
    web::EcosystemConfig million_config = config;
    million_config.domain_count = million_domains;
    std::cerr << "million rung: generating " << million_domains
              << "-domain ecosystem...\n";
    const auto million_eco = web::Ecosystem::generate(million_config);
    core::PipelineConfig million_pipeline_config = pipeline_config;
    million_pipeline_config.registry = nullptr;
    million_pipeline_config.verbosity = obs::LogLevel::kWarn;
    million_pipeline_config.threads = 0;
    TimedRun million_serial = run_once(*million_eco, million_pipeline_config);
    million_serial.pipeline.reset();  // keep only the dataset resident
    million_serial_ms = million_serial.wall_ms;
    million_rss = peak_rss_bytes();
    million_runs.push_back(
        {0, million_serial.wall_ms, million_serial.wall_ms, 1.0, true});
    std::cerr << "million rung serial: " << million_serial.wall_ms
              << " ms, peak RSS " << million_rss / (1024.0 * 1024.0)
              << " MiB\n";
    for (const std::size_t threads : ladder) {
      if (threads == 0) continue;
      double pair_serial_ms;
      {
        TimedRun pair_serial = run_once(*million_eco, million_pipeline_config);
        pair_serial_ms = pair_serial.wall_ms;
      }
      core::PipelineConfig rung_config = million_pipeline_config;
      rung_config.threads = threads;
      TimedRun run = run_once(*million_eco, rung_config);
      run.pipeline.reset();
      const bool identical = run.dataset == million_serial.dataset;
      million_runs.push_back(
          {threads, run.wall_ms, pair_serial_ms,
           run.wall_ms > 0 ? pair_serial_ms / run.wall_ms : 0.0, identical});
      std::cerr << "million rung threads=" << threads << ": " << run.wall_ms
                << " ms (" << million_runs.back().speedup
                << "x vs adjacent serial " << pair_serial_ms
                << " ms), identical=" << (identical ? "yes" : "NO") << "\n";
    }
  }

  // Pass 7: the incremental-pipeline rung. A fresh ecosystem, one full
  // init (the delta path's denominator world), then `delta_ticks` churn
  // ticks: each applied incrementally AND rebuilt from scratch, with the
  // two snapshots byte-compared across every /v1/* rendering. The apply
  // cost is the refresh latency the incremental subsystem is accountable
  // for; the full-rebuild cost is what it replaces.
  struct DeltaRun {
    delta::TickStats stats;
    double full_ms;
    bool identical;
  };
  std::vector<DeltaRun> delta_runs;
  double delta_init_ms = 0.0;
  double delta_churn_fraction = 0.0;
  if (delta_domains > 0) {
    web::EcosystemConfig delta_eco_config = config;
    delta_eco_config.domain_count = delta_domains;
    std::cerr << "delta rung: generating " << delta_domains
              << "-domain ecosystem...\n";
    const auto delta_eco = web::Ecosystem::generate(delta_eco_config);
    delta::DeltaConfig delta_config;
    delta_config.churn.seed = delta_eco_config.seed;
    delta_churn_fraction = delta_config.churn.domain_churn_fraction;
    delta::IncrementalPipeline incremental(*delta_eco, delta_config);
    {
      const auto start = std::chrono::steady_clock::now();
      incremental.init();
      delta_init_ms = ms_between(start);
    }
    std::cerr << "delta rung init (full measurement): " << delta_init_ms
              << " ms\n";
    delta::TickGenerator churn(delta_config.churn, incremental.universe());
    for (std::size_t t = 0; t < delta_ticks; ++t) {
      const delta::Tick tick = churn.next();
      const delta::TickStats stats = incremental.apply_tick(tick);
      double full_ms;
      std::shared_ptr<const serve::Snapshot> full;
      {
        const auto start = std::chrono::steady_clock::now();
        full = incremental.full_rebuild();
        full_ms = ms_between(start);
      }
      const auto report = incremental.check_against(*full);
      delta_runs.push_back({stats, full_ms, report.identical});
      std::cerr << "delta rung tick " << tick.number << ": apply "
                << stats.apply_ms << " ms (" << stats.dirty_rows
                << " rows re-swept), full rebuild " << full_ms
                << " ms, identical="
                << (report.identical ? "yes" : report.divergence.c_str())
                << "\n";
    }
  }

  obs::render_stage_report(registry, std::cerr);
  const double off_ms = rungs.front().wall_ms;
  const double overhead_pct = off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0;
  std::cerr << "tracer off: " << off_ms << " ms, tracer on: " << on_ms
            << " ms (" << overhead_pct << "% overhead, " << tracer.recorded()
            << " events, " << tracer.dropped() << " dropped)\n";
  const double profiler_overhead_pct =
      profiler_off_ms > 0
          ? (profiled_ms - profiler_off_ms) / profiler_off_ms * 100.0
          : 0;
  std::cerr << "profiler off: " << profiler_off_ms << " ms, profiler on: "
            << profiled_ms << " ms (" << profiler_overhead_pct
            << "% overhead at " << profiler.hz() << " Hz, "
            << profiler.samples() << " samples, " << profiler.dropped()
            << " dropped)\n";

  std::cout << "{\"metrics\":";
  core::export_metrics_json(registry, std::cout);
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                ",\"tracer_overhead\":{\"off_ms\":%.3f,\"on_ms\":%.3f,"
                "\"overhead_pct\":%.3f,\"events_recorded\":%llu,"
                "\"events_dropped\":%llu}",
                off_ms, on_ms, overhead_pct,
                static_cast<unsigned long long>(tracer.recorded()),
                static_cast<unsigned long long>(tracer.dropped()));
  std::cout << buffer;
  std::snprintf(buffer, sizeof buffer,
                ",\"profiler_overhead\":{\"off_ms\":%.3f,\"on_ms\":%.3f,"
                "\"overhead_pct\":%.3f,\"hz\":%u,\"samples\":%llu,"
                "\"dropped\":%llu}",
                profiler_off_ms, profiled_ms, profiler_overhead_pct,
                profiler.hz(),
                static_cast<unsigned long long>(profiler.samples()),
                static_cast<unsigned long long>(profiler.dropped()));
  std::cout << buffer;
  std::snprintf(buffer, sizeof buffer,
                ",\"parallel_speedup\":{\"domains\":%llu,\"serial_ms\":%.3f,"
                "\"runs\":[",
                static_cast<unsigned long long>(config.domain_count), off_ms);
  std::cout << buffer;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    const Rung& rung = rungs[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"threads\":%llu,\"wall_ms\":%.3f,\"speedup\":%.3f,"
                  "\"rib_prepare_ms\":%.3f,\"vrp_prepare_ms\":%.3f,"
                  "\"covering_cache_hit_rate\":%.4f,"
                  "\"validation_cache_hit_rate\":%.4f,"
                  "\"identical_to_serial\":%s,\"identical_rib\":%s,"
                  "\"identical_report\":%s}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(rung.threads), rung.wall_ms,
                  rung.speedup, rung.rib_prepare_ms, rung.vrp_prepare_ms,
                  rung.covering_rate, rung.validation_rate,
                  rung.identical ? "true" : "false",
                  rung.identical_rib ? "true" : "false",
                  rung.identical_report ? "true" : "false");
    std::cout << buffer;
  }
  std::snprintf(buffer, sizeof buffer,
                "]},\"setup_speedup\":{\"serial_parse_ms\":%.3f,"
                "\"serial_validate_ms\":%.3f,\"runs\":[",
                serial_parse_ms, serial_validate_ms);
  std::cout << buffer;
  for (std::size_t i = 0; i < setup_rungs.size(); ++i) {
    const SetupRung& rung = setup_rungs[i];
    const double parse_speedup =
        rung.parse_ms > 0 ? serial_parse_ms / rung.parse_ms : 0.0;
    const double validate_speedup =
        rung.validate_ms > 0 ? serial_validate_ms / rung.validate_ms : 0.0;
    const double combined = rung.parse_ms + rung.validate_ms;
    const double combined_speedup =
        combined > 0 ? (serial_parse_ms + serial_validate_ms) / combined : 0.0;
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"threads\":%llu,\"parse_ms\":%.3f,\"validate_ms\":%.3f,"
                  "\"parse_speedup\":%.3f,\"validate_speedup\":%.3f,"
                  "\"combined_speedup\":%.3f,\"identical_rib\":%s,"
                  "\"identical_report\":%s}",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(rung.threads), rung.parse_ms,
                  rung.validate_ms, parse_speedup, validate_speedup,
                  combined_speedup, rung.identical_rib ? "true" : "false",
                  rung.identical_report ? "true" : "false");
    std::cout << buffer;
  }
  std::cout << "]},\"scheduler\":{\"runs\":[";
  for (std::size_t i = 0; i < sched_rungs.size(); ++i) {
    const SchedRung& rung = sched_rungs[i];
    std::snprintf(buffer, sizeof buffer,
                  "%s{\"threads\":%llu,\"off_ms\":%.3f,\"on_ms\":%.3f,"
                  "\"overhead_pct\":%.3f,\"utilization_pct\":%.3f,"
                  "\"steal_ratio\":%.4f,\"tasks\":%llu,\"steals\":%llu,"
                  "\"idle_tail_ms\":%.3f,\"stage_ms\":{",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(rung.threads), rung.off_ms,
                  rung.on_ms, rung.overhead_pct, rung.agg.utilization_pct,
                  rung.agg.steal_ratio,
                  static_cast<unsigned long long>(rung.agg.tasks),
                  static_cast<unsigned long long>(rung.agg.steals),
                  rung.agg.idle_tail_ms);
    std::cout << buffer;
    for (std::size_t s = 0; s < obs::kSweepStageCount; ++s) {
      std::snprintf(buffer, sizeof buffer, "%s\"%s\":%.3f", s == 0 ? "" : ",",
                    obs::sweep_stage_name(static_cast<obs::SweepStage>(s)),
                    rung.agg.stage_ms[s]);
      std::cout << buffer;
    }
    std::cout << "},\"workers\":[";
    bool first_worker = true;
    for (const auto& lane : rung.snapshot.lanes) {
      if (lane.external && rung.snapshot.lanes.size() > 1) continue;
      std::snprintf(buffer, sizeof buffer,
                    "%s{\"lane\":%zu,\"tasks\":%llu,\"steals\":%llu,"
                    "\"run_ms\":%.3f,\"idle_ms\":%.3f}",
                    first_worker ? "" : ",", lane.lane,
                    static_cast<unsigned long long>(lane.tasks),
                    static_cast<unsigned long long>(lane.steals),
                    static_cast<double>(lane.run_ns) / 1e6,
                    static_cast<double>(lane.idle_ns) / 1e6);
      std::cout << buffer;
      first_worker = false;
    }
    std::cout << "]}";
  }
  std::cout << "]}";
  if (!million_runs.empty()) {
    std::snprintf(buffer, sizeof buffer,
                  ",\"million_rung\":{\"domains\":%llu,\"serial_ms\":%.3f,"
                  "\"peak_rss_bytes\":%llu,\"runs\":[",
                  static_cast<unsigned long long>(million_domains),
                  million_serial_ms,
                  static_cast<unsigned long long>(million_rss));
    std::cout << buffer;
    for (std::size_t i = 0; i < million_runs.size(); ++i) {
      const MillionRun& run = million_runs[i];
      std::snprintf(buffer, sizeof buffer,
                    "%s{\"threads\":%llu,\"wall_ms\":%.3f,"
                    "\"pair_serial_ms\":%.3f,\"speedup\":%.3f,"
                    "\"identical_to_serial\":%s}",
                    i == 0 ? "" : ",",
                    static_cast<unsigned long long>(run.threads), run.wall_ms,
                    run.pair_serial_ms, run.speedup,
                    run.identical ? "true" : "false");
      std::cout << buffer;
    }
    std::cout << "]}";
  }
  if (!delta_runs.empty()) {
    // The tick's phase laps, in apply_tick order.
    static constexpr std::array<const char*, 5> kPhases = {
        "dns", "bgp", "rpki", "resweep", "publish"};
    const auto phase_ms = [](const delta::TickStats& stats) {
      return std::array<double, 5>{stats.dns_ms, stats.bgp_ms, stats.rpki_ms,
                                   stats.resweep_ms, stats.publish_ms};
    };
    const auto phase_json = [](const std::array<double, 5>& ms) {
      std::string out = "{";
      for (std::size_t p = 0; p < ms.size(); ++p) {
        char field[64];
        std::snprintf(field, sizeof field, "%s\"%s\":%.3f",
                      p == 0 ? "" : ",", kPhases[p], ms[p]);
        out += field;
      }
      return out + "}";
    };
    const auto n = static_cast<double>(delta_runs.size());
    double apply_sum = 0.0, apply_max = 0.0, full_sum = 0.0;
    std::array<double, 5> phase_mean{};
    for (const DeltaRun& run : delta_runs) {
      apply_sum += run.stats.apply_ms;
      apply_max = std::max(apply_max, run.stats.apply_ms);
      full_sum += run.full_ms;
      const auto laps = phase_ms(run.stats);
      for (std::size_t p = 0; p < laps.size(); ++p) phase_mean[p] += laps[p] / n;
    }
    const double mean_apply = apply_sum / n;
    const double mean_full = full_sum / n;
    std::snprintf(buffer, sizeof buffer,
                  ",\"delta_rung\":{\"domains\":%llu,\"ticks\":%llu,"
                  "\"churn_fraction\":%.4f,\"init_full_ms\":%.3f,"
                  "\"mean_apply_ms\":%.3f,\"max_apply_ms\":%.3f,"
                  "\"mean_full_ms\":%.3f,\"mean_speedup\":%.3f,",
                  static_cast<unsigned long long>(delta_domains),
                  static_cast<unsigned long long>(delta_runs.size()),
                  delta_churn_fraction, delta_init_ms, mean_apply, apply_max,
                  mean_full, mean_apply > 0 ? mean_full / mean_apply : 0.0);
    std::cout << buffer << "\"mean_phase_ms\":" << phase_json(phase_mean)
              << ",\"runs\":[";
    for (std::size_t i = 0; i < delta_runs.size(); ++i) {
      const DeltaRun& run = delta_runs[i];
      std::snprintf(buffer, sizeof buffer,
                    "%s{\"tick\":%llu,\"events\":%zu,\"dirty_rows\":%zu,"
                    "\"changed_rows\":%zu,\"apply_ms\":%.3f,\"full_ms\":%.3f,",
                    i == 0 ? "" : ",",
                    static_cast<unsigned long long>(run.stats.tick),
                    run.stats.events, run.stats.dirty_rows,
                    run.stats.changed_rows, run.stats.apply_ms, run.full_ms);
      std::cout << buffer << "\"phase_ms\":" << phase_json(phase_ms(run.stats))
                << ",\"identical_to_full\":"
                << (run.identical ? "true" : "false") << "}";
    }
    std::cout << "]}";
  }
  std::cout << "}" << '\n';

  bool all_identical = true;
  for (const Rung& rung : rungs) {
    all_identical = all_identical && rung.identical && rung.identical_rib &&
                    rung.identical_report;
  }
  for (const SetupRung& rung : setup_rungs) {
    all_identical =
        all_identical && rung.identical_rib && rung.identical_report;
  }
  for (const MillionRun& run : million_runs) {
    all_identical = all_identical && run.identical;
  }
  for (const DeltaRun& run : delta_runs) {
    all_identical = all_identical && run.identical;
  }
  return all_identical ? 0 : 1;
}
