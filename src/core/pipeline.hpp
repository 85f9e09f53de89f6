// The paper's four-step measurement pipeline (Figure 2's toolchain):
//
//   (1) select domains      — the ecosystem's Alexa-style ranking
//   (2) domains -> IPs      — A/AAAA/CNAME via the DNS substrate, both
//                             www.<d> and <d>; IANA special-purpose
//                             addresses discarded
//   (3) IPs -> prefix/ASN   — all covering prefixes from a RIS-style MRT
//                             table dump; origin = right-most ASN of the
//                             AS path; AS_SET entries excluded (RFC 6472)
//   (4) RPKI validation     — ROAs of the five trust anchors validated
//                             cryptographically, then every prefix-AS pair
//                             classified per RFC 6811
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "bgp/mrt.hpp"
#include "core/dataset.hpp"
#include "dns/resolver.hpp"
#include "net/ip.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "rpki/validator.hpp"
#include "rtr/client.hpp"
#include "web/ecosystem.hpp"

namespace ripki::obs {
class HealthRegistry;
class SchedTelemetry;
}

namespace ripki::exec {
class ThreadPool;
}

namespace ripki::core {

struct PipelineConfig {
  web::Vantage vantage = web::Vantage::kBerlin;

  /// When true, VRPs reach origin validation through a full RTR protocol
  /// session (cache server + router client) instead of being indexed
  /// directly — the router-deployment code path.
  bool use_rtr = false;

  /// When true, the five repositories are mirrored over RRDP (RFC 8182
  /// notification/snapshot documents) and trust is bootstrapped from the
  /// RIR TALs (RFC 7730) before validation — the full relying-party
  /// collection path instead of in-process repository access.
  bool use_rrdp = false;

  /// Validation instant; defaults to the ecosystem's `now`.
  rpki::Timestamp now = 0;

  /// Optionally restrict to the first N domains (0 = all).
  std::size_t max_domains = 0;

  /// Worker threads for the setup stages and the stage 1–4 domain sweep.
  /// 0 (the default) runs everything serially on the calling thread. With
  /// N >= 1, one exec::ThreadPool of N workers drives the MRT parse
  /// (record-sliced), the repository validation (publication points
  /// sharded), and the rank-axis sweep (each worker owning its own
  /// resolver and route memo over shared read-only state: zone view,
  /// frozen RIB, VRP index); sweep fragments merge in shard order while
  /// later shards still run, so RIB, validation report, and dataset are
  /// identical to the serial run for every thread count.
  ///
  /// Values above the host's hardware concurrency are clamped (with a
  /// logged warning): oversubscribed workers only time-slice each other
  /// — the PR 7 scheduler X-ray measured 0.93–0.97x "speedups" from
  /// exactly this.
  std::size_t threads = 0;

  /// Observability. When `registry` is set, every stage records trace
  /// spans and counters into it (borrowed; must outlive the pipeline) and
  /// the stage-timing breakdown is logged at the end of run(); a tracer
  /// installed with Registry::set_tracer also gets one event per span.
  /// When null, instrumentation is inert — no clock reads, no atomics.
  obs::Registry* registry = nullptr;

  /// Per-subsystem health (borrowed, optional). Each stage reports its
  /// outcome after run(): `bgp` (RIB non-empty), `rpki` (VRPs produced),
  /// `dns` (resolutions succeeded), `pipeline` (run completed).
  obs::HealthRegistry* health = nullptr;

  /// Scheduler telemetry (borrowed, optional). The sweep's thread pool
  /// records per-worker tallies into it, and the four sweep stages charge
  /// their wall time to the worker's lane (serial runs use the external
  /// lane). Must outlive run().
  obs::SchedTelemetry* sched = nullptr;

  /// Minimum severity of the pipeline's own log output (through the
  /// global obs::Logger). Default silences everything below warnings;
  /// kInfo adds per-stage progress lines and the timing table.
  obs::LogLevel verbosity = obs::LogLevel::kWarn;
};

/// The row list [0, count): a sweep of every row.
std::vector<std::uint32_t> every_row(std::size_t count);

class MeasurementPipeline {
 public:
  MeasurementPipeline(const web::Ecosystem& ecosystem, PipelineConfig config);

  /// Runs all four steps and returns the annotated dataset: the set-up
  /// stages build the world (MRT-loaded frozen RIB, validated VRP index,
  /// vantage zone view), then sweep() measures it.
  Dataset run();

  /// The world one sweep measures. Everything is borrowed and must stay
  /// unchanged while the sweep runs.
  struct SweepWorld {
    const dns::ZoneSource* zones = nullptr;
    const bgp::Rib* rib = nullptr;  // frozen
    const rpki::VrpIndex* vrps = nullptr;
  };

  /// What a sweep measures per row beyond the table, in row-list order:
  /// the AS_SET entries excluded and the kept addresses (www first).
  struct RowExtras {
    std::vector<std::uint32_t> as_set_entries;
    std::vector<std::vector<net::IpAddress>> kept_addresses;
  };

  /// Stages 2–4 over `world` for the ascending row ids `rows`, returned
  /// in list order with their counters (and, when `extras` is set, their
  /// RowExtras): the one place rows are walked through
  /// core::MeasurementKernels. Without a pool one shard runs on the
  /// calling thread; with one, the same shard body runs on its workers
  /// (identical output either way). run() sweeps every row; the delta
  /// pipeline every row at init() and in its oracle, and a tick's dirty
  /// rows. A pooled sweep appends each fragment as soon as it and every
  /// earlier one are done, and the returned table holds no spare pair
  /// capacity. cache_stats() afterwards holds this sweep's traffic.
  Dataset sweep(const SweepWorld& world, std::span<const std::uint32_t> rows,
                exec::ThreadPool* pool = nullptr, RowExtras* extras = nullptr);

  /// Traffic of the kernels' route memos (one per worker; one slot per
  /// node of the RIB image, filled with that node's validated covering
  /// pairs on first use). The names keep the two caches the memo
  /// replaced:
  ///  - covering hits: lookups that found their slot filled;
  ///  - covering misses: lookups that filled their slot;
  ///  - validation misses: pairs validated while filling a slot;
  ///  - validation hits: pairs taken from a filled slot.
  struct CacheTraffic {
    std::uint64_t covering_hits = 0;
    std::uint64_t covering_misses = 0;
    std::uint64_t validation_hits = 0;
    std::uint64_t validation_misses = 0;

    /// Hit fraction in [0, 1]; 0 when the cache saw no traffic.
    static double rate(std::uint64_t hits, std::uint64_t misses) {
      const std::uint64_t total = hits + misses;
      return total == 0 ? 0.0
                        : static_cast<double>(hits) / static_cast<double>(total);
    }
    double covering_hit_rate() const {
      return rate(covering_hits, covering_misses);
    }
    double validation_hit_rate() const {
      return rate(validation_hits, validation_misses);
    }
  };

  /// Route-memo traffic of the last sweep: aggregate totals plus one
  /// per-worker entry (index = pool worker; a serial run has exactly one),
  /// so imbalanced memo behavior across workers stays visible. run()
  /// also publishes the totals to the registry as
  /// `ripki.bgp.covering_cache_*` / `ripki.rpki.validation_cache_*`.
  struct CacheStats : CacheTraffic {
    std::vector<CacheTraffic> workers;
  };

  /// Wall-clock timings and throughput of the two setup stages of the
  /// last run(): stage 3 MRT parse and stage 4 repository validation.
  /// Throughput is computed over the parse/validate call itself (RRDP
  /// mirroring and RTR transport excluded), so serial-vs-pooled runs are
  /// directly comparable. Measured whether or not a registry is set.
  struct SetupStats {
    double rib_prepare_ms = 0.0;
    double vrp_prepare_ms = 0.0;
    double mrt_records_per_sec = 0.0;
    double roas_per_sec = 0.0;
    /// Always 0: the warm stage it timed is gone, because each worker's
    /// route memo validates a pair when a lookup first needs it. Kept
    /// for readers of the field.
    double cache_warm_ms = 0.0;
  };

  /// Worker count the sweep actually ran with after clamping to hardware
  /// concurrency (0 = serial). Valid after run().
  std::size_t effective_threads() const { return effective_threads_; }

  /// Artifacts (valid after run()):
  const rpki::ValidationReport& validation_report() const { return report_; }
  const rpki::VrpIndex& vrp_index() const { return vrp_index_; }
  const bgp::Rib& rib() const { return rib_; }
  const bgp::mrt::ParseStats& mrt_stats() const { return mrt_stats_; }
  const CacheStats& cache_stats() const { return cache_stats_; }
  const SetupStats& setup_stats() const { return setup_stats_; }

 private:
  void prepare_rib(exec::ThreadPool* pool);
  void prepare_vrps(exec::ThreadPool* pool);
  /// Publishes cache totals and the thread-count/hit-rate gauges.
  void publish_sweep_metrics() const;
  /// Emits through the global logger when `config_.verbosity` admits it.
  void log(obs::LogLevel level, std::string_view message,
           std::vector<obs::LogField> fields = {}) const;
  /// Reports a subsystem outcome into `config_.health` (no-op when null).
  void set_health(std::string_view subsystem, bool healthy,
                  std::string_view detail) const;

  const web::Ecosystem& ecosystem_;
  PipelineConfig config_;
  std::size_t effective_threads_ = 0;

  bgp::Rib rib_;
  bgp::mrt::ParseStats mrt_stats_;
  rpki::ValidationReport report_;
  rpki::VrpIndex vrp_index_;
  CacheStats cache_stats_;
  SetupStats setup_stats_;
};

}  // namespace ripki::core
