// Trace spans: RAII scoped timers with parent/child nesting, and the one
// stage timer of the measurement sweep.
//
// A span opened while another span is live on the same thread becomes its
// child; the full dotted path ("pipeline.run.stage3.rib_prepare.mrt.parse")
// names a duration histogram `ripki.trace.<path>` in the registry, so
// repeated spans (one per domain, say) aggregate into count/total/
// percentiles instead of an unbounded event list.
//
// When the registry carries an EventTracer (Registry::set_tracer), a span
// additionally records one complete event, under its path, into the
// timeline ring when it stops; without one, the only extra cost is a
// relaxed pointer load per span.
//
// A stage span also carries a SchedTelemetry and a SweepStage: when the
// calling thread holds one of that telemetry's lanes, the same interval —
// the span's own two clock reads — is added to the stage's tally on that
// lane. A lane-only stage span (null registry) has no path: its one event
// goes, under the stage's name, to the tracer of the registry the
// telemetry was built with.
//
// A span with a null registry and no held lane is inert: no clock read,
// no allocation, no thread-local traffic — instrumented code paths cost
// nothing when observability is off.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "obs/metrics.hpp"

namespace ripki::obs {

class SchedTelemetry;
enum class SweepStage : std::uint8_t;

/// Metric-name prefix for span duration histograms.
inline constexpr std::string_view kTracePrefix = "ripki.trace.";

class Span {
 public:
  Span(Registry* registry, std::string_view name);
  /// A stage span: as above, and charges `stage` on the calling thread's
  /// lane when it holds a lane of `sched` (null `sched`: no lane).
  Span(Registry* registry, std::string_view name, SchedTelemetry* sched,
       SweepStage stage);
  /// A lane-only stage span: charges `stage` on the calling thread's lane
  /// of `sched` and records its event through the telemetry's registry.
  Span(SchedTelemetry* sched, SweepStage stage);
  ~Span() { stop(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Records the duration now instead of at scope exit; idempotent.
  void stop();

  /// Running and recording into a registry (a lane-only span never is).
  bool active() const { return registry_ != nullptr && !stopped_; }
  std::uint64_t elapsed_ns() const;
  /// Dotted path including every ancestor ("" for an inert span).
  const std::string& path() const { return path_; }

  /// The innermost live span on this thread, or nullptr.
  static const Span* current();

 private:
  Registry* registry_ = nullptr;
  SchedTelemetry* sched_ = nullptr;  // set only when a lane was held at open
  SweepStage stage_{};
  Span* parent_ = nullptr;
  std::string path_;
  std::chrono::steady_clock::time_point start_{};
  bool stopped_ = true;
};

/// Records `ns` under the current span's path extended with `name` — for
/// durations accumulated manually (e.g. trie-insert time summed across a
/// parse loop) where a scoped timer per item would be too intrusive.
void record_duration_ns(Registry* registry, std::string_view name,
                        std::uint64_t ns);

/// Renders every `ripki.trace.*` histogram as an aligned table — span
/// path, call count, total/mean milliseconds, p50/p90/p99 microseconds —
/// the stage-timing breakdown printed after a pipeline run. The snapshot
/// overload also accepts delta_snapshots() output for per-interval views.
void render_stage_report(const std::vector<MetricSnapshot>& metrics,
                         std::ostream& os);
void render_stage_report(const Registry& registry, std::ostream& os);
std::string stage_report(const Registry& registry);
std::string stage_report(const std::vector<MetricSnapshot>& metrics);

}  // namespace ripki::obs
