#include "obs/sched.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ripki::obs {

namespace {

std::string fmt_ms(double ms) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.3f", ms);
  return buf;
}

std::uint64_t ns_between(SchedTelemetry::TimePoint begin,
                         SchedTelemetry::TimePoint end) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - begin)
          .count());
}

// Identity of the calling thread's lane. The owner pointer disambiguates
// telemetry instances (a worker of pool A must not write into pool B's
// telemetry when both exist in one process).
thread_local SchedTelemetry* t_owner = nullptr;
thread_local void* t_lane = nullptr;

}  // namespace

const char* sweep_stage_name(SweepStage stage) {
  switch (stage) {
    case SweepStage::kDns: return "dns";
    case SweepStage::kCovering: return "covering";
    case SweepStage::kValidation: return "validation";
    case SweepStage::kEmit: return "emit";
  }
  return "?";
}

/// One worker's (or the external thread's) private tallies. Separately
/// heap-allocated and cacheline-aligned so two lanes never share a line;
/// the mutex is only ever contended by the exporter.
struct alignas(64) SchedTelemetry::Lane {
  mutable std::mutex mutex;
  std::uint64_t tasks = 0;
  std::uint64_t run_ns = 0;
  std::uint64_t idle_ns = 0;
  std::array<std::uint64_t, kSweepStageCount> stage_ns{};
  std::uint64_t last_run_end_us = 0;
};

SchedTelemetry::SchedTelemetry(Registry* registry)
    : epoch_(std::chrono::steady_clock::now()), registry_(registry) {
  if (registry != nullptr) {
    task_run_ = &registry->histogram("ripki.exec.task_run_us");
    registry->describe("ripki.exec.task_run_us",
                       "Execution time of individual pool tasks (µs)");
  }
}

SchedTelemetry::~SchedTelemetry() = default;

void SchedTelemetry::begin_run(std::size_t workers) {
  std::lock_guard lock(lanes_mutex_);
  lanes_.clear();
  lanes_.reserve(workers + 1);
  for (std::size_t i = 0; i < workers + 1; ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  window_begin_us_.store(us_at(std::chrono::steady_clock::now()),
                         std::memory_order_relaxed);
}

std::size_t SchedTelemetry::lanes() const {
  std::lock_guard lock(lanes_mutex_);
  return lanes_.size();
}

std::size_t SchedTelemetry::external_lane() const {
  std::lock_guard lock(lanes_mutex_);
  return lanes_.empty() ? 0 : lanes_.size() - 1;
}

void SchedTelemetry::attach_lane(std::size_t lane) {
  std::lock_guard lock(lanes_mutex_);
  if (lane >= lanes_.size()) return;  // stale attach after a begin_run shrink
  t_owner = this;
  t_lane = lanes_[lane].get();
  if (EventTracer* timeline = tracer()) {
    timeline->name_track(lane + 1 == lanes_.size()
                             ? std::string("external")
                             : "worker-" + std::to_string(lane));
  }
}

void SchedTelemetry::detach_lane() {
  if (t_owner != this) return;
  t_owner = nullptr;
  t_lane = nullptr;
}

bool SchedTelemetry::attached() const { return t_owner == this; }

SchedTelemetry::Lane* SchedTelemetry::current_lane() const {
  return t_owner == this ? static_cast<Lane*>(t_lane) : nullptr;
}

EventTracer* SchedTelemetry::tracer() const {
  return registry_ != nullptr ? registry_->tracer() : nullptr;
}

std::uint64_t SchedTelemetry::us_at(TimePoint at) const {
  if (at < epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(at - epoch_)
          .count());
}

void SchedTelemetry::trace(const char* name, TimePoint begin,
                           TimePoint end) const {
  if (EventTracer* timeline = tracer()) timeline->record(name, begin, end);
}

void SchedTelemetry::on_task_run(TimePoint begin, TimePoint end) {
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  const std::uint64_t ns = ns_between(begin, end);
  {
    std::lock_guard lock(lane->mutex);
    ++lane->tasks;
    lane->run_ns += ns;
    lane->last_run_end_us = us_at(end);
  }
  trace("run", begin, end);
  if (task_run_ != nullptr) {
    task_run_->observe(static_cast<double>(ns) / 1000.0);
  }
}

void SchedTelemetry::on_idle(TimePoint begin, TimePoint end) {
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  {
    std::lock_guard lock(lane->mutex);
    lane->idle_ns += ns_between(begin, end);
  }
  trace("idle", begin, end);
}

void SchedTelemetry::on_stage(SweepStage stage, std::uint64_t ns) {
  Lane* lane = current_lane();
  if (lane == nullptr) return;
  std::lock_guard lock(lane->mutex);
  lane->stage_ns[static_cast<std::size_t>(stage)] += ns;
}

SchedTelemetry::Snapshot SchedTelemetry::snapshot() const {
  Snapshot out;
  out.window_begin_us = window_begin_us_.load(std::memory_order_relaxed);
  out.window_end_us =
      std::max(us_at(std::chrono::steady_clock::now()), out.window_begin_us);
  std::lock_guard lanes_lock(lanes_mutex_);
  out.lanes.reserve(lanes_.size());
  for (std::size_t i = 0; i < lanes_.size(); ++i) {
    const Lane& lane = *lanes_[i];
    std::lock_guard lock(lane.mutex);
    LaneSnapshot snap;
    snap.lane = i;
    snap.external = i + 1 == lanes_.size();
    snap.tasks = lane.tasks;
    snap.run_ns = lane.run_ns;
    snap.idle_ns = lane.idle_ns;
    snap.stage_ns = lane.stage_ns;
    snap.last_run_end_us = lane.last_run_end_us;
    out.lanes.push_back(snap);
  }
  return out;
}

SchedTelemetry::Snapshot::Aggregates SchedTelemetry::Snapshot::aggregates()
    const {
  Aggregates out;
  const double window_ms_clamped = std::max(window_ms(), 1e-6);
  // Aggregates over the worker lanes; the external lane only joins when
  // it is the whole story (a serial run has no workers).
  const bool workers_only = lanes.size() > 1;
  for (const LaneSnapshot& lane : lanes) {
    const bool worker = !lane.external || !workers_only;
    // Stage attribution sums over every lane: the serial path charges the
    // external lane, the parallel path the worker lanes.
    for (std::size_t s = 0; s < kSweepStageCount; ++s) {
      out.stage_ms[s] += static_cast<double>(lane.stage_ns[s]) / 1e6;
    }
    if (!worker) continue;
    ++out.workers;
    out.tasks += lane.tasks;
    out.run_ns += lane.run_ns;
    const std::uint64_t tail_from =
        lane.last_run_end_us != 0 ? lane.last_run_end_us : window_begin_us;
    out.idle_tail_ms =
        std::max(out.idle_tail_ms,
                 static_cast<double>(window_end_us - tail_from) / 1000.0);
  }
  if (out.workers > 0) {
    out.utilization_pct =
        static_cast<double>(out.run_ns) / 1e6 /
        (window_ms_clamped * static_cast<double>(out.workers)) * 100.0;
  }
  return out;
}

std::string SchedTelemetry::render_json() const {
  const Snapshot snap = snapshot();
  const double window_ms = std::max(snap.window_ms(), 1e-6);
  const Snapshot::Aggregates agg = snap.aggregates();

  std::ostringstream os;
  os << "{\"schedz\":{\"workers\":"
     << (snap.lanes.size() > 1 ? snap.lanes.size() - 1 : 0)
     << ",\"window_ms\":" << fmt_ms(window_ms)
     << ",\"utilization_pct\":" << fmt_ms(agg.utilization_pct)
     << ",\"idle_tail_ms\":" << fmt_ms(agg.idle_tail_ms)
     << ",\"tasks\":" << agg.tasks << ",\"stage_ms\":{";
  for (std::size_t s = 0; s < kSweepStageCount; ++s) {
    if (s > 0) os << ',';
    os << '"' << sweep_stage_name(static_cast<SweepStage>(s))
       << "\":" << fmt_ms(agg.stage_ms[s]);
  }
  os << "},\"lanes\":[";
  for (std::size_t i = 0; i < snap.lanes.size(); ++i) {
    const LaneSnapshot& lane = snap.lanes[i];
    if (i > 0) os << ',';
    const double lane_tail =
        static_cast<double>(snap.window_end_us -
                            (lane.last_run_end_us != 0
                                 ? lane.last_run_end_us
                                 : snap.window_begin_us)) /
        1000.0;
    os << "{\"lane\":" << lane.lane
       << ",\"external\":" << (lane.external ? "true" : "false")
       << ",\"utilization_pct\":"
       << fmt_ms(static_cast<double>(lane.run_ns) / 1e6 / window_ms * 100.0)
       << ",\"run_ms\":" << fmt_ms(static_cast<double>(lane.run_ns) / 1e6)
       << ",\"idle_ms\":" << fmt_ms(static_cast<double>(lane.idle_ns) / 1e6)
       << ",\"idle_tail_ms\":" << fmt_ms(lane_tail)
       << ",\"tasks\":" << lane.tasks << ",\"stage_ms\":{";
    for (std::size_t s = 0; s < kSweepStageCount; ++s) {
      if (s > 0) os << ',';
      os << '"' << sweep_stage_name(static_cast<SweepStage>(s)) << "\":"
         << fmt_ms(static_cast<double>(lane.stage_ns[s]) / 1e6);
    }
    os << "}}";
  }
  os << "]}}";
  return os.str();
}

}  // namespace ripki::obs
