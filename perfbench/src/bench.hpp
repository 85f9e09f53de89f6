// Shared vocabulary of the perfbench binary: the fixed workload config,
// the result every workload fills, timing/percentile helpers, resource
// probes (getrusage, VmHWM), CPU pinning, and the span tracer.
//
// The binary reaches libripki only through its public headers; every
// per-layer number is measured from outside, by timing calls into the
// public functions of web, dns, bgp, rpki, exec, core, delta and serve.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Deliberate corruptions of an oracle expectation, used by the self-test
/// to prove that a wrong answer is counted as a failure, not absorbed.
enum class Corrupt { kNone, kBody, kRow, kGeneration };

/// The fixed workload config. Every field is echoed into the result's
/// config block, and results whose config differs are never compared.
struct Config {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  Corrupt corrupt = Corrupt::kNone;

  std::uint64_t domains = 100'000;
  std::uint64_t rank_space = 1'000'000;
  /// Repetitions of the workload's set-up; setup_s is their median.
  int setup_reps = 3;

  /// sweep: MeasurementPipeline threads of the timed runs.
  std::size_t threads = 4;

  /// churn: timed ticks per second of `seconds`, at least `min_ticks`.
  /// The count, not the clock, ends the loop, so a slow and a fast host
  /// time the same ticks over the same pipeline state.
  double tick_rate = 7.0;
  int min_ticks = 100;
  /// churn: untimed ticks applied before the timed ones.
  int warmup_ticks = 0;
  /// churn: offsets the churn seed; concurrent processes over the same
  /// world each take their own lane.
  std::uint64_t lane = 0;
  double churn_fraction = 0.01;

  /// serve_*: reactor shards, generator connections, publish period.
  std::uint32_t shards = 2;
  std::size_t connections = 4;
  double publish_ms = 500.0;
  /// Nominal open-loop rate (req/s) and p99 latency limit (us).
  double rate = 20'000.0;
  double limit_us = 1'000.0;
  /// Ladder rates above the nominal one, as multiples of `rate`,
  /// ascending. The nominal phase is the ladder's first rung.
  std::vector<double> ladder = {1.25, 1.5, 1.75, 2.0};
  /// Share of `seconds` spent at the nominal rate; the rest is the ladder.
  double nominal_share = 0.5;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// False when any oracle check failed or could not run.
  bool correct = true;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  /// Per-workload metric names (sweep_domains_per_s, tick_p90_ms,
  /// serve_p99_us, ...) and sample counts, printed in the full result.
  std::vector<Metric> detail;
  /// Every timed operation, in ms, when the caller pools them across
  /// processes (churn's ticks); empty otherwise.
  std::vector<double> samples_ms;
  /// Wall and user+sys CPU seconds of the measured phase.
  double wall_s = 0.0;
  double cpu_s = 0.0;
  /// CPU placement actually used ("unpinned" when pinning was skipped).
  std::string cpu_map = "unpinned";
  /// First oracle divergence, when any.
  std::string divergence;

  /// Counts `count` failed operations; keeps the first reason.
  void fail(std::uint64_t count, std::string_view why);
  void e2e(std::string name, double value, std::string unit) {
    end_to_end.push_back({std::move(name), value, std::move(unit)});
  }
  void layer(std::string name, double value, std::string unit) {
    per_layer.push_back({std::move(name), value, std::move(unit)});
  }
  void info(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
};

// --- timing -----------------------------------------------------------------

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// Linear-interpolated quantile q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}
double mean(const std::vector<double>& values);

/// User + system CPU seconds of the whole process so far.
double cpu_seconds();
/// Peak resident set (VmHWM) in MiB.
double peak_rss_mib();

/// Median of `reps` repetitions of `fn`, in seconds. Each repetition
/// replaces the state the previous one built.
template <typename Fn>
double median_setup_s(int reps, Fn&& fn) {
  std::vector<double> seconds;
  for (int i = 0; i < reps; ++i) {
    const auto start = Clock::now();
    fn();
    seconds.push_back(ms_between(start, Clock::now()) / 1000.0);
  }
  return median(std::move(seconds));
}

/// JSON string literal (quoted, escaped).
std::string json_string(std::string_view text);

// --- CPU placement ----------------------------------------------------------

/// The CPUs the process was allowed at start-up, ascending. Call once
/// before any thread is pinned.
const std::vector<int>& process_cpus();
/// Pins the calling thread to the given slots of process_cpus() (slot i =
/// i-th allowed CPU). Returns false, changing nothing, when fewer than
/// four CPUs are allowed or the call fails. Threads created afterwards
/// inherit the mask.
bool pin_current_thread(const std::vector<int>& slots);
/// Restores the calling thread's affinity to every allowed CPU.
void unpin_current_thread();

/// {"nproc":..,"cpu_model":..,"kernel":..,"build_type":..,"compiler":..}
std::string host_json();

// --- tracing ----------------------------------------------------------------

/// In-memory span recorder for one thread. A span has a name, start, end,
/// parent span and a correlation id shared by every span of one domain,
/// tick or request. A disabled tracer records nothing (one branch per
/// span), so the traced and untraced runs execute the same code.
class Tracer {
 public:
  struct Span {
    const char* name = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint64_t id = 0;
  };

  /// Per-name aggregate derived from the spans.
  struct Summary {
    std::uint64_t count = 0;
    double busy_ms = 0.0;
    /// Duration minus the part of it covered by child spans.
    double self_ms = 0.0;
    std::vector<double> durations_us;
  };

  explicit Tracer(bool enabled = false) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  /// Toggle only between spans, never while a Scope is open.
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// RAII span: opens on construction, closes on destruction or end().
  class Scope {
   public:
    Scope(Tracer& tracer, const char* name, std::uint64_t id);
    ~Scope() { end(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void end();

   private:
    Tracer& tracer_;
    std::int32_t index_ = -1;
  };

  /// Records a finished root span with explicit bounds, e.g. a request
  /// timed from its scheduled send time.
  void record(const char* name, Clock::time_point start, Clock::time_point end,
              std::uint64_t id);

  /// Appends `other`'s spans, re-parented — merges per-thread tracers.
  void absorb(const Tracer& other);

  std::size_t size() const { return spans_.size(); }

  Summary summarize(std::string_view name) const;

  /// Writes every span as one JSON object per line. False on I/O failure.
  bool write(const std::string& path) const;

 private:
  static std::int64_t ns(Clock::time_point t) {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t.time_since_epoch())
        .count();
  }

  bool enabled_ = false;
  std::vector<Span> spans_;
  std::int32_t open_ = -1;
};

// --- workloads --------------------------------------------------------------

Result run_sweep(const Config& config, Tracer& tracer);
Result run_churn(const Config& config, Tracer& tracer);
/// serve_hot and serve_churn (config.workload picks the traffic mix).
Result run_serve(const Config& config, Tracer& tracer);

}  // namespace perfbench
