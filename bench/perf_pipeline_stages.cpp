// Per-stage timing of the measurement pipeline: the instrumentation
// overheads, the setup and scheduler thread ladders, and the
// million-domain rung.
//
// Runs the four-step pipeline over one ecosystem several times — with
// metrics only, with the event tracer attached, with the sampling
// profiler armed, and across a thread ladder (serial, 1, 2, max) — and
// emits one JSON object on stdout:
//
//   {"metrics": <registry JSON of the first serial run>,
//    "tracer_overhead": {"clock": "cpu", "off_ms": .., "on_ms": ..,
//                        "overhead_pct": .., "overhead_spread_pct": [.., ..],
//                        "events_recorded": .., "events_dropped": ..},
//    "profiler_overhead": {"clock": "cpu", "off_ms": .., "on_ms": ..,
//                          "overhead_pct": ..,
//                          "overhead_spread_pct": [.., ..],
//                          "hz": .., "samples": .., "dropped": ..},
//    "setup_speedup": {"serial_parse_ms": .., "serial_validate_ms": ..,
//                      "runs": [{"threads": .., "parse_ms": ..,
//                                "validate_ms": .., "parse_speedup": ..,
//                                "validate_speedup": ..,
//                                "combined_speedup": ..,
//                                "identical_rib": true,
//                                "identical_report": true}, ..]},
//    "scheduler": {"runs": [{"threads": .., "clock": "cpu",
//                            "off_ms": .., "on_ms": .., "overhead_pct": ..,
//                            "overhead_spread_pct": [.., ..],
//                            "utilization_pct": ..,
//                            "tasks": .., "idle_tail_ms": ..,
//                            "stage_ms": {"dns": .., "covering": ..,
//                                         "validation": .., "emit": ..},
//                            "workers": [{"lane": .., "tasks": ..,
//                                         "run_ms": .., "idle_ms": ..},
//                                        ..]}, ..]},
//    "million_rung": {"domains": .., "serial_ms": .., "peak_rss_bytes": ..,
//                     "runs": [{"threads": .., "wall_ms": ..,
//                               "pair_serial_ms": .., "speedup": ..,
//                               "identical_to_serial": true}, ..]},
//    "config": {"domains": ..},
//    "host": {"nproc": .., "cpus_allowed": .., "cpu_model": "..",
//             "kernel": "..", "build_type": "..", "compiler": ".."}}
//
// `config.domains` is the ecosystem every block but million_rung
// measures. `host` is perfbench's host fingerprint (bench/host.hpp):
// check_regression.py compares timings only between runs whose host
// blocks are equal. The sweep's thread scaling and the delta tick are
// timed by perfbench's `sweep` and `churn` workloads, which gate every
// change, so this bench does not time them again.
//
// Every overhead block (tracer, profiler, each scheduler rung) is measured
// one way, by measure_overhead(): adjacent off/on pairs with the order
// alternating, reported as the median pair with the pairs' min-max spread.
// Each run is timed in CPU time, not wall time ("clock": "cpu"): the
// process's user + system time from getrusage(RUSAGE_SELF) over the run,
// so the pool's workers and the profiler's signal handler count, and time
// the host spends on other tenants does not. off_ms and on_ms are those
// CPU milliseconds. check_regression.py gates the scheduler rungs' median
// (<3%) and prints the spread beside it. `--schedz FILE` dumps the top
// rung's /schedz JSON and `--trace FILE` the Perfetto trace (spans and
// per-worker tracks on one timeline) of one extra instrumented run,
// excluded from the overhead figures.
//
// Every pooled setup artifact (RIB, parse stats, validation report) is
// compared byte-for-byte against the serial artifact, and every parallel
// million-rung dataset record-for-record (counters included) against its
// serial one; all "identical_*" fields must be true — sharding is an
// implementation detail, never an output change. The exit code reflects
// ONLY those identity checks: speedup numbers are reported for the
// trajectory, not asserted, because CI runners may expose a single core.
//
// The human-readable stage table goes to stderr.
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
//                                    [--schedz FILE] [--trace FILE]
//
// --threads caps the ladder's top rung (default: hardware threads).
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bgp/mrt.hpp"
#include "core/export.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/profiler.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "host.hpp"
#include "rpki/validator.hpp"

namespace {

/// The process's user + system CPU time so far, in ms: every thread's,
/// the exited ones' included.
double process_cpu_ms() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  const auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(usage.ru_utime) + ms(usage.ru_stime);
}

struct TimedRun {
  double wall_ms = 0;
  double cpu_ms = 0;  // the process's, over the run
  ripki::core::Dataset dataset;
};

/// One pipeline run, timed from construction to the returned dataset. The
/// pipeline is destroyed after the clocks stop, so only the dataset stays
/// resident.
TimedRun run_once(const ripki::web::Ecosystem& ecosystem,
                  ripki::core::PipelineConfig config) {
  TimedRun out;
  const auto start = std::chrono::steady_clock::now();
  const double cpu_start = process_cpu_ms();
  ripki::core::MeasurementPipeline pipeline(ecosystem, config);
  out.dataset = pipeline.run();
  out.cpu_ms = process_cpu_ms() - cpu_start;
  out.wall_ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - start)
                    .count();
  return out;
}

/// The cost of one instrumentation, from adjacent pairs of runs without
/// (off) and with it (on).
struct Overhead {
  double off_ms = 0;
  double on_ms = 0;
  double overhead_pct = 0;  // the median pair's (on - off) / off
  double min_pct = 0;       // the lowest pair's
  double max_pct = 0;       // the highest pair's
};

constexpr int kOverheadPairs = 5;

/// Runs kOverheadPairs adjacent pairs of `off()` and `on()`, each returning
/// one run's CPU time in ms, and reports the pair with the median
/// overhead plus the lowest and highest pair's. Adjacency keeps drift over
/// the process lifetime (allocator, page cache) out of each pair, and
/// alternating which side runs first keeps either side from always running
/// second. A single pair, or the best of several, reads the host's noise;
/// the median pair moves with neither one quiet nor one loaded pair.
template <typename Off, typename On>
Overhead measure_overhead(Off&& off, On&& on) {
  struct Pair {
    double off_ms;
    double on_ms;
    double pct() const {
      return off_ms > 0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
    }
  };
  std::vector<Pair> pairs;
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    if (pair % 2 == 0) {
      const double off_ms = off();
      pairs.push_back({off_ms, on()});
    } else {
      const double on_ms = on();
      pairs.push_back({off(), on_ms});
    }
  }
  std::sort(pairs.begin(), pairs.end(),
            [](const Pair& a, const Pair& b) { return a.pct() < b.pct(); });
  const Pair& median = pairs[pairs.size() / 2];
  return {median.off_ms, median.on_ms, median.pct(), pairs.front().pct(),
          pairs.back().pct()};
}

double ms_between(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// `"clock":"cpu","off_ms":..,"on_ms":..,"overhead_pct":..,
/// "overhead_spread_pct":[..,..]`
std::string overhead_json(const Overhead& overhead) {
  char buffer[208];
  std::snprintf(buffer, sizeof buffer,
                "\"clock\":\"cpu\",\"off_ms\":%.3f,\"on_ms\":%.3f,"
                "\"overhead_pct\":%.3f,"
                "\"overhead_spread_pct\":[%.3f,%.3f]",
                overhead.off_ms, overhead.on_ms, overhead.overhead_pct,
                overhead.min_pct, overhead.max_pct);
  return buffer;
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

  // Pass 1: serial, metrics registry only — the per-stage baseline. It is
  // also the process's first run, which builds the ecosystem's lazy zone
  // view, so no overhead pair below pays for that.
  obs::Registry registry;
  pipeline_config.registry = &registry;
  pipeline_config.verbosity = obs::LogLevel::kInfo;
  run_once(*ecosystem, pipeline_config);

  // An uninstrumented serial run: the off side of the tracer and profiler
  // pairs.
  const auto serial_off = [&] {
    obs::Registry off_registry;
    core::PipelineConfig off_config = pipeline_config;
    off_config.registry = &off_registry;
    off_config.verbosity = obs::LogLevel::kWarn;
    return run_once(*ecosystem, off_config).cpu_ms;
  };

  // Pass 2: the same serial run with the event tracer attached — the
  // instrumentation overhead series. Each on run records into a tracer of
  // its own; the last one's counts are reported.
  std::uint64_t events_recorded = 0;
  std::uint64_t events_dropped = 0;
  const Overhead tracer_overhead = measure_overhead(serial_off, [&] {
    obs::Registry traced_registry;
    obs::EventTracer tracer(/*capacity=*/1 << 16);
    traced_registry.set_tracer(&tracer);
    core::PipelineConfig traced_config = pipeline_config;
    traced_config.registry = &traced_registry;
    traced_config.verbosity = obs::LogLevel::kWarn;
    const double on_ms = run_once(*ecosystem, traced_config).cpu_ms;
    events_recorded = tracer.recorded();
    events_dropped = tracer.dropped();
    return on_ms;
  });

  // Pass 2b: the same serial run with the 100 Hz sampling profiler armed —
  // the always-on profiling overhead series (acceptance: <5%). The samples
  // reported are the last profiled run's.
  obs::SamplingProfiler profiler;
  bool profiler_armed = true;
  const Overhead profiler_overhead = measure_overhead(serial_off, [&] {
    obs::Registry profiled_registry;
    core::PipelineConfig profiled_config = pipeline_config;
    profiled_config.registry = &profiled_registry;
    profiled_config.verbosity = obs::LogLevel::kWarn;
    profiler.clear();
    profiler_armed = profiler_armed && profiler.start();
    const double on_ms = run_once(*ecosystem, profiled_config).cpu_ms;
    profiler.stop();
    return on_ms;
  });
  if (!profiler_armed) {
    std::cerr << "perf_pipeline_stages: cannot arm SIGPROF profiler\n";
    return 1;
  }

  // The thread ladder every later pass walks: serial, 1, 2 and max.
  std::vector<std::size_t> ladder{0, 1, 2, max_threads};
  std::sort(ladder.begin(), ladder.end());
  ladder.erase(std::unique(ladder.begin(), ladder.end()), ladder.end());

  // Pass 3: the setup-stage ladder. The MRT parse and the repository
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

  // Pass 4: the scheduler X-ray ladder. Each rung measures the overhead of
  // SchedTelemetry wired through the pool with measure_overhead(); the
  // telemetry snapshot of the rung's last instrumented run supplies
  // utilization / tasks / stages.
  struct SchedRung {
    std::size_t threads;
    Overhead overhead;
    obs::SchedTelemetry::Snapshot snapshot;
    obs::SchedTelemetry::Snapshot::Aggregates agg;
  };
  std::vector<SchedRung> sched_rungs;
  std::string top_schedz_json;
  for (const std::size_t threads : ladder) {
    SchedRung rung;
    rung.threads = threads;
    core::PipelineConfig rung_config = pipeline_config;
    rung_config.verbosity = obs::LogLevel::kWarn;
    rung_config.threads = threads;
    rung.overhead = measure_overhead(
        [&] {
          obs::Registry off_registry;
          core::PipelineConfig off_config = rung_config;
          off_config.registry = &off_registry;
          return run_once(*ecosystem, off_config).cpu_ms;
        },
        [&] {
          obs::Registry on_registry;
          obs::SchedTelemetry sched(&on_registry);
          core::PipelineConfig on_config = rung_config;
          on_config.registry = &on_registry;
          on_config.sched = &sched;
          const double on_ms = run_once(*ecosystem, on_config).cpu_ms;
          rung.snapshot = sched.snapshot();
          if (threads == ladder.back()) top_schedz_json = sched.render_json();
          return on_ms;
        });
    rung.agg = rung.snapshot.aggregates();
    std::cerr << "sched threads=" << threads << ": off "
              << rung.overhead.off_ms << " cpu ms, on " << rung.overhead.on_ms
              << " cpu ms (" << rung.overhead.overhead_pct
              << "% overhead, median of " << kOverheadPairs
              << " pairs, spread " << rung.overhead.min_pct << ".."
              << rung.overhead.max_pct << "%), utilization "
              << rung.agg.utilization_pct << "%, " << rung.agg.tasks
              << " tasks, idle tail " << rung.agg.idle_tail_ms << " ms\n";
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
    // The scheduler reaches the tracer through the registry, so spans and
    // the workers' run and idle intervals share one timeline.
    obs::Registry trace_registry;
    obs::EventTracer trace_tracer(/*capacity=*/1 << 16);
    trace_registry.set_tracer(&trace_tracer);
    obs::SchedTelemetry trace_sched(&trace_registry);
    core::PipelineConfig trace_config = pipeline_config;
    trace_config.registry = &trace_registry;
    trace_config.verbosity = obs::LogLevel::kWarn;
    trace_config.threads = ladder.back();
    trace_config.sched = &trace_sched;
    run_once(*ecosystem, trace_config);
    std::ofstream out(trace_path);
    obs::export_trace(trace_tracer, out);
    std::cerr << "sched: wrote Perfetto trace to " << trace_path << " ("
              << trace_tracer.recorded() << " events, "
              << trace_tracer.dropped() << " dropped)\n";
  }

  // Pass 5: the million-domain rung. A separate ecosystem at the paper's
  // real N (default 1,000,000; --million / RIPKI_MILLION_DOMAINS rescale
  // it, CI runs it downscaled) swept once serially and once per parallel
  // ladder rung. Runs last so its allocations cannot perturb the smaller
  // passes' wall clocks. Peak RSS is sampled right after the first
  // serial sweep: at this rung the ecosystem plus one dataset dominate
  // the process high-water mark, so the figure tracks the compact core
  // layout, and check_regression.py gates it against the baseline.
  //
  // Each parallel rung's speedup is computed against an ADJACENT serial
  // re-run (pair_serial_ms), the same adjacency trick pass 4 uses: at
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
    const TimedRun million_serial =
        run_once(*million_eco, million_pipeline_config);
    million_serial_ms = million_serial.wall_ms;
    million_rss = peak_rss_bytes();
    million_runs.push_back(
        {0, million_serial.wall_ms, million_serial.wall_ms, 1.0, true});
    std::cerr << "million rung serial: " << million_serial.wall_ms
              << " ms, peak RSS " << million_rss / (1024.0 * 1024.0)
              << " MiB\n";
    for (const std::size_t threads : ladder) {
      if (threads == 0) continue;
      const double pair_serial_ms =
          run_once(*million_eco, million_pipeline_config).wall_ms;
      core::PipelineConfig rung_config = million_pipeline_config;
      rung_config.threads = threads;
      const TimedRun run = run_once(*million_eco, rung_config);
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

  obs::render_stage_report(registry, std::cerr);
  std::cerr << "tracer off: " << tracer_overhead.off_ms
            << " cpu ms, tracer on: " << tracer_overhead.on_ms << " cpu ms ("
            << tracer_overhead.overhead_pct
            << "% overhead, spread " << tracer_overhead.min_pct << ".."
            << tracer_overhead.max_pct << "%, " << events_recorded
            << " events, " << events_dropped << " dropped)\n";
  std::cerr << "profiler off: " << profiler_overhead.off_ms
            << " cpu ms, profiler on: " << profiler_overhead.on_ms
            << " cpu ms ("
            << profiler_overhead.overhead_pct << "% overhead, spread "
            << profiler_overhead.min_pct << ".." << profiler_overhead.max_pct
            << "% at " << profiler.hz() << " Hz, " << profiler.samples()
            << " samples, " << profiler.dropped() << " dropped)\n";

  std::cout << "{\"metrics\":";
  core::export_metrics_json(registry, std::cout);
  char buffer[512];
  std::snprintf(buffer, sizeof buffer,
                ",\"tracer_overhead\":{%s,\"events_recorded\":%llu,"
                "\"events_dropped\":%llu}",
                overhead_json(tracer_overhead).c_str(),
                static_cast<unsigned long long>(events_recorded),
                static_cast<unsigned long long>(events_dropped));
  std::cout << buffer;
  std::snprintf(buffer, sizeof buffer,
                ",\"profiler_overhead\":{%s,\"hz\":%u,\"samples\":%llu,"
                "\"dropped\":%llu}",
                overhead_json(profiler_overhead).c_str(), profiler.hz(),
                static_cast<unsigned long long>(profiler.samples()),
                static_cast<unsigned long long>(profiler.dropped()));
  std::cout << buffer;
  std::snprintf(buffer, sizeof buffer,
                ",\"setup_speedup\":{\"serial_parse_ms\":%.3f,"
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
                  "%s{\"threads\":%llu,%s,\"utilization_pct\":%.3f,"
                  "\"tasks\":%llu,\"idle_tail_ms\":%.3f,\"stage_ms\":{",
                  i == 0 ? "" : ",",
                  static_cast<unsigned long long>(rung.threads),
                  overhead_json(rung.overhead).c_str(), rung.agg.utilization_pct,
                  static_cast<unsigned long long>(rung.agg.tasks),
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
                    "%s{\"lane\":%zu,\"tasks\":%llu,"
                    "\"run_ms\":%.3f,\"idle_ms\":%.3f}",
                    first_worker ? "" : ",", lane.lane,
                    static_cast<unsigned long long>(lane.tasks),
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
  std::snprintf(buffer, sizeof buffer, ",\"config\":{\"domains\":%llu}",
                static_cast<unsigned long long>(config.domain_count));
  std::cout << buffer << ",\"host\":" << bench::host_json() << "}\n";

  bool all_identical = true;
  for (const SetupRung& rung : setup_rungs) {
    all_identical =
        all_identical && rung.identical_rib && rung.identical_report;
  }
  for (const MillionRun& run : million_runs) {
    all_identical = all_identical && run.identical;
  }
  return all_identical ? 0 : 1;
}
