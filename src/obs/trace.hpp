// Event tracer: a bounded, sampled ring buffer of span begin/end events,
// written out as Chrome trace-event JSON (loadable in Perfetto or
// chrome://tracing) by obs::export_combined_trace (sched.hpp).
//
// Where span *histograms* (span.hpp) aggregate repeated spans into
// percentiles, the tracer keeps an event-level timeline: which span ran
// when, on which thread, for how long. The buffer is a fixed-capacity
// ring — when it wraps, the oldest events are overwritten (and counted as
// dropped), so a long-running daemon always holds the most recent window
// of activity. Sampling (`sample_every`) decides per span whether both
// its begin and end events are recorded, keeping recorded pairs balanced.
//
// Hooked into obs::Span through Registry::set_tracer: a registry without
// a tracer costs spans one relaxed pointer load; a null registry still
// costs nothing at all.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace ripki::obs {

struct TraceEvent {
  enum class Phase : std::uint8_t { kBegin, kEnd };

  std::uint64_t ts_us = 0;  // microseconds since the tracer's epoch
  std::uint32_t tid = 0;    // dense per-thread track id (0, 1, ...)
  Phase phase = Phase::kBegin;
  std::string name;         // dotted span path
};

class EventTracer {
 public:
  /// `capacity` bounds the ring in events (a begin/end pair is two);
  /// `sample_every` records one of every N spans (1 = all).
  explicit EventTracer(std::size_t capacity = 1 << 16,
                       std::uint32_t sample_every = 1);

  EventTracer(const EventTracer&) = delete;
  EventTracer& operator=(const EventTracer&) = delete;

  /// Records a begin event unless the span is sampled out. Returns whether
  /// it was recorded — the caller must emit the matching end() exactly
  /// when this returned true.
  bool begin(std::string_view name, std::chrono::steady_clock::time_point at);
  void end(std::string_view name, std::chrono::steady_clock::time_point at);

  /// Buffered events, oldest first (chronological).
  std::vector<TraceEvent> snapshot() const;

  std::uint64_t recorded() const;     // events currently buffered or wrapped
  std::uint64_t dropped() const;      // events overwritten by ring wrap
  std::uint64_t sampled_out() const;  // spans skipped by sampling
  std::uint32_t sample_every() const { return sample_every_; }
  std::size_t capacity() const { return capacity_; }
  /// The tracer's time zero (construction), for aligning its timestamps
  /// with other steady_clock-based sources (e.g. SchedTelemetry).
  std::chrono::steady_clock::time_point epoch() const { return epoch_; }

  /// Empties the ring and resets drop/sample counters (thread ids and the
  /// time epoch persist, so ts stays monotonic across clears).
  void clear();

 private:
  void push(TraceEvent event);
  std::uint32_t track_id_locked();
  std::uint64_t now_us(std::chrono::steady_clock::time_point at) const;

  const std::size_t capacity_;
  const std::uint32_t sample_every_;
  const std::chrono::steady_clock::time_point epoch_;

  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;  // ring_[.. size_), head_ = next write slot
  std::size_t head_ = 0;
  std::size_t size_ = 0;
  std::map<std::thread::id, std::uint32_t> track_ids_;
  std::uint64_t dropped_ = 0;
  std::uint64_t recorded_ = 0;
  std::atomic<std::uint64_t> sequence_{0};     // sampling decision counter
  std::atomic<std::uint64_t> sampled_out_{0};
};

/// Filters `events` (chronological) down to balanced begin/end pairs: per
/// thread, an end without a live begin (its begin lost to ring wrap) and a
/// begin without an end (still open) are both removed, so the trace writer
/// always emits balanced pairs.
std::vector<TraceEvent> balance_events(const std::vector<TraceEvent>& events);

}  // namespace ripki::obs
