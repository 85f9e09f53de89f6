// Event tracer: the one timeline. A bounded, sampled ring buffer of
// complete (name, begin, end) intervals, written out as Chrome trace-event
// JSON (loadable in Perfetto or chrome://tracing) by obs::export_trace.
//
// Where span *histograms* (span.hpp) aggregate repeated spans into
// percentiles, the tracer keeps an event-level timeline: which interval
// ran when, on which thread, for how long. Every interval is recorded
// once, when it ends, as one event — so a wrapped ring can drop whole
// events but never half of one. The buffer is a fixed-capacity ring: when
// it wraps, the oldest events are overwritten (and counted as dropped), so
// a long-running daemon always holds the most recent window of activity.
// Sampling (`sample_every`) keeps one of every N records.
//
// Two sources record here, both through a registry (Registry::set_tracer):
// obs::Span, under its dotted path, and obs::SchedTelemetry, whose pool
// intervals ("run", "idle", "steal", "steal-fail") and lane-only stage
// spans land on the worker's own track, named after its lane ("worker-N",
// "external"). A registry without a tracer costs spans one relaxed pointer
// load; a null registry still costs nothing at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace ripki::obs {

/// One recorded interval (a Chrome "X" complete event).
struct TraceEvent {
  std::uint64_t ts_us = 0;   // begin, microseconds since the tracer's epoch
  std::uint64_t dur_us = 0;  // end on the same clock, minus ts_us
  std::uint32_t tid = 0;     // dense per-thread track id (0, 1, ...)
  std::string name;          // dotted span path, or a scheduler interval
};

class EventTracer {
 public:
  /// `capacity` bounds the ring in events; `sample_every` records one of
  /// every N intervals (1 = all).
  explicit EventTracer(std::size_t capacity = 1 << 16,
                       std::uint32_t sample_every = 1);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Records [begin, end) on the calling thread's track unless sampled
  /// out.
  void record(std::string_view name,
              std::chrono::steady_clock::time_point begin,
              std::chrono::steady_clock::time_point end);

  /// Puts the calling thread's later records on the track called `name`:
  /// the one that already carries the name, else the thread's own track
  /// if it has no name yet, else a new one. A track belongs to threads,
  /// not to thread ids, so a thread that reuses a dead thread's id starts
  /// on a fresh track; successive pools' "worker-0"s share one.
  void name_track(std::string_view name);

  /// Buffered events, oldest first (in record order).
  std::vector<TraceEvent> snapshot() const;
  /// Track names indexed by track id; "" for a track never named. Tracks
  /// are never forgotten, so names read after snapshot() cover every tid
  /// in it.
  std::vector<std::string> track_names() const;

  std::uint64_t recorded() const;     // events currently buffered or wrapped
  std::uint64_t dropped() const;      // events overwritten by ring wrap
  std::uint64_t sampled_out() const;  // intervals skipped by sampling
  std::uint32_t sample_every() const { return sample_every_; }
  std::size_t capacity() const { return capacity_; }

  /// Empties the ring and resets drop/sample counters (tracks and the time
  /// epoch persist, so ts stays monotonic across clears).
  void clear();

 private:
  std::uint32_t track_id_locked();
  std::uint64_t now_us(std::chrono::steady_clock::time_point at) const;

  const std::size_t capacity_;
  const std::uint32_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;
  const std::uint64_t serial_;  // process-unique: keys the thread bindings

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  // ring_[.. size_), head_ = next write slot
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::vector<std::string> track_names_;  // indexed by track id
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::atomic<std::uint64_t> sequence_{0};     // sampling decision counter
  std::atomic<std::uint64_t> sampled_out_{0};
};

/// The Chrome trace writer: one process ("ripki", pid 1) on the tracer's
/// one epoch, one named track per thread ("worker-N" / "external" for
/// threads that held a scheduler lane, "track-N" otherwise) and one "X"
/// complete event per buffered interval.
void export_trace(const EventTracer& tracer, std::ostream& os);
std::string trace_json(const EventTracer& tracer);

}  // namespace ripki::obs
