// Scheduler X-ray: low-overhead observability for exec::ThreadPool and
// the parallel measurement sweep.
//
// Where the metrics registry aggregates (how many tasks ran) and the
// event tracer follows intervals (which code path ran when),
// SchedTelemetry answers the scheduling questions between the two: how
// much of a run each worker spent executing tasks and parked on the wake
// condvar, and, while it was executing, which of the paper's sweep stages
// (DNS resolution, BGP covering lookup, RPKI validation, record emit) the
// cycles went to.
//
// Design:
//  - One Lane per pool worker plus one "external" lane for the calling
//    thread (the serial sweep path). A lane is owned by exactly one
//    thread at a time; every hot-path write lands in the owner's own
//    lane (cacheline-aligned, separately allocated), so recording never
//    touches a shared cacheline. The per-lane mutex is uncontended in
//    steady state — the exporter is the only other party that ever takes
//    it.
//  - A lane keeps tallies only: tasks, run/idle time, per-stage time and
//    the end of its latest task. The intervals themselves (task runs,
//    idle parks) go to the one timeline, the EventTracer of the registry
//    this telemetry was built with, on the worker's own track
//    ("worker-N" / "external"). With no such tracer the lane records its
//    tallies and nothing else.
//  - Stage attribution accumulates elapsed nanoseconds per SweepStage in
//    the lane. The recorder is the pipeline's own stage span: an obs::Span
//    carrying a SweepStage adds its one interval (two clock reads) to
//    the calling thread's lane, so a stage is timed once for the
//    histogram, the event tracer and the lane alike.
//  - Registry integration (optional): a task-size histogram,
//    `ripki.exec.task_run_us`.
//
// Exports: render_json() backs the /schedz endpoint (utilization, idle
// tail, per-worker stage breakdown); the per-worker timeline is the
// tracer's (obs::export_trace, trace.hpp).
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace ripki::obs {

class Registry;
class Histogram;
class EventTracer;

/// The paper's four sweep stages, as wall-time attribution buckets.
enum class SweepStage : std::uint8_t {
  kDns = 0,        // stage 2: A/AAAA/CNAME resolution + DNSSEC probe
  kCovering = 1,   // stage 3: covering-prefix + origin-AS lookup
  kValidation = 2, // stage 4: RFC 6811 origin validation
  kEmit = 3,       // record assembly / counter bookkeeping
};
inline constexpr std::size_t kSweepStageCount = 4;

/// Stable lowercase name ("dns", "covering", "validation", "emit").
const char* sweep_stage_name(SweepStage stage);

class SchedTelemetry {
 public:
  using TimePoint = std::chrono::steady_clock::time_point;

  /// When `registry` is set, the task-size histogram
  /// (`ripki.exec.task_run_us`) is published into it, and the lanes'
  /// intervals are recorded into its tracer (borrowed; must outlive this
  /// object).
  explicit SchedTelemetry(Registry* registry = nullptr);
  ~SchedTelemetry();

  SchedTelemetry(const SchedTelemetry&) = delete;
  SchedTelemetry& operator=(const SchedTelemetry&) = delete;

  /// Starts a run window: sizes the lanes to `workers` + 1 (the extra
  /// lane is the external/serial lane), clears every tally, and stamps
  /// the window begin. Must not race with attached recorders —
  /// exec::ThreadPool calls it from its constructor, before any worker
  /// starts; call it manually only for pool-less (serial) runs.
  void begin_run(std::size_t workers);

  /// Lanes of the current window (workers + 1); 0 before any begin_run.
  std::size_t lanes() const;
  /// The calling-thread lane (last index) for serial/external recording.
  std::size_t external_lane() const;

  /// Binds the calling thread to `lane`, and names the thread's track in
  /// the tracer ("worker-N", or "external" for the last lane) — so set
  /// the registry's tracer before the pool starts. Hot-path recorders
  /// are no-ops on threads with no bound lane. One thread per lane at a
  /// time.
  void attach_lane(std::size_t lane);
  void detach_lane();
  /// Whether the calling thread holds a lane of *this* telemetry.
  bool attached() const;

  /// The tracer of the registry this telemetry was built with, or null.
  EventTracer* tracer() const;

  // --- hot-path recorders (no-ops when the thread has no lane) ---------

  /// One task execution. Traces it ("run") and observes the task-size
  /// histogram.
  void on_task_run(TimePoint begin, TimePoint end);
  /// One condvar park, wait entry to wake. Traces it ("idle").
  void on_idle(TimePoint begin, TimePoint end);
  /// Adds `ns` to `stage` on the lane (normally from a stage obs::Span,
  /// which records its own event).
  void on_stage(SweepStage stage, std::uint64_t ns);

  // --- read side --------------------------------------------------------

  struct LaneSnapshot {
    std::size_t lane = 0;
    bool external = false;       // the calling-thread lane
    std::uint64_t tasks = 0;     // task-run intervals recorded
    std::uint64_t run_ns = 0;    // total task execution time
    std::uint64_t idle_ns = 0;   // total condvar-parked time
    std::array<std::uint64_t, kSweepStageCount> stage_ns{};
    /// End of the latest task in microseconds since the telemetry's
    /// construction, 0 if none.
    std::uint64_t last_run_end_us = 0;
  };

  struct Snapshot {
    std::uint64_t window_begin_us = 0;  // begin_run stamp
    std::uint64_t window_end_us = 0;    // snapshot stamp
    std::vector<LaneSnapshot> lanes;

    double window_ms() const {
      return static_cast<double>(window_end_us - window_begin_us) / 1000.0;
    }

    /// Whole-window rollup shared by render_json() and the bench's
    /// scheduler block. Counters aggregate over the worker lanes only —
    /// unless the external lane is the whole story (serial run) — while
    /// stage attribution always sums every lane.
    struct Aggregates {
      std::size_t workers = 0;  // lanes counted into the rollup
      std::uint64_t tasks = 0;
      std::uint64_t run_ns = 0;
      double utilization_pct = 0.0;  // run time / (window × workers)
      double idle_tail_ms = 0.0;     // max lane gap from last run to window end
      std::array<double, kSweepStageCount> stage_ms{};
    };
    Aggregates aggregates() const;
  };

  Snapshot snapshot() const;

  /// /schedz JSON: {"schedz": {"workers":.., "window_ms":..,
  ///   "utilization_pct":.., "idle_tail_ms":.., "tasks":..,
  ///   "stage_ms": {"dns":.., ...},
  ///   "lanes":[{"lane":..,"external":..,"utilization_pct":..,
  ///             "run_ms":..,"idle_ms":..,"idle_tail_ms":..,"tasks":..,
  ///             "stage_ms":{..}}, ..]}}
  /// Aggregate utilization averages the worker lanes (external lane
  /// excluded unless it is the only lane); idle_tail is the largest
  /// per-worker gap between its last completed task and the window end.
  std::string render_json() const;

 private:
  struct Lane;

  Lane* current_lane() const;
  /// Microseconds since the telemetry's construction (0 before it).
  std::uint64_t us_at(TimePoint at) const;
  /// Records [begin, end) into the tracer, when there is one.
  void trace(const char* name, TimePoint begin, TimePoint end) const;

  const TimePoint epoch_;
  Registry* const registry_;

  mutable std::mutex lanes_mutex_;  // guards the lanes vector itself
  std::vector<std::unique_ptr<Lane>> lanes_;
  std::atomic<std::uint64_t> window_begin_us_{0};

  Histogram* task_run_ = nullptr;  // ripki.exec.task_run_us
};

/// Binds the calling thread to a telemetry lane for the scope's lifetime
/// (the serial sweep uses the external lane). Inert when `sched` is null.
class LaneScope {
 public:
  LaneScope(SchedTelemetry* sched, std::size_t lane) : sched_(sched) {
    if (sched_ != nullptr) sched_->attach_lane(lane);
  }
  ~LaneScope() {
    if (sched_ != nullptr) sched_->detach_lane();
  }

  LaneScope(const LaneScope&) = delete;
  LaneScope& operator=(const LaneScope&) = delete;

 private:
  SchedTelemetry* sched_;
};

}  // namespace ripki::obs
