#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

#include "util/strings.hpp"

namespace ripki::obs {

namespace {

std::atomic<std::uint64_t> g_next_tracer_serial{1};

/// The calling thread's track in each tracer it has recorded into. It
/// lives and dies with the thread, so an OS thread id reused by a later
/// thread never inherits a track.
struct TrackBinding {
  std::uint64_t tracer = 0;  // EventTracer::serial_
  std::uint32_t track = 0;
};
thread_local std::vector<TrackBinding> t_tracks;

TrackBinding* binding_for(std::uint64_t tracer) {
  for (TrackBinding& binding : t_tracks) {
    if (binding.tracer == tracer) return &binding;
  }
  return nullptr;
}

}  // namespace

EventTracer::EventTracer(std::size_t capacity, std::uint32_t sample_every)
    : capacity_(capacity == 0 ? 1 : capacity),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      epoch_(std::chrono::steady_clock::now()),
      serial_(g_next_tracer_serial.fetch_add(1, std::memory_order_relaxed)) {
  ring_.reserve(capacity_);
}

std::uint64_t EventTracer::now_us(
    std::chrono::steady_clock::time_point at) const {
  if (at < epoch_) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(at - epoch_)
          .count());
}

std::uint32_t EventTracer::track_id_locked() {
  if (const TrackBinding* binding = binding_for(serial_)) {
    return binding->track;
  }
  const auto track = static_cast<std::uint32_t>(track_names_.size());
  track_names_.emplace_back();
  t_tracks.push_back({serial_, track});
  return track;
}

void EventTracer::record(std::string_view name,
                         std::chrono::steady_clock::time_point begin,
                         std::chrono::steady_clock::time_point end) {
  const std::uint64_t seq =
      sequence_.fetch_add(1, std::memory_order_relaxed);
  if (sample_every_ > 1 && seq % sample_every_ != 0) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  // Both ends truncate on one clock, so a child's event ends no later than
  // its parent's.
  TraceEvent event;
  event.ts_us = now_us(begin);
  event.dur_us = now_us(end) - event.ts_us;
  event.name = std::string(name);
  std::lock_guard lock(mutex_);
  event.tid = track_id_locked();
  ++recorded_;
  if (size_ < capacity_) {
    ring_.push_back(std::move(event));
    ++size_;
    head_ = size_ % capacity_;
    return;
  }
  // Ring full: overwrite the oldest event and count it as dropped.
  ring_[head_] = std::move(event);
  head_ = (head_ + 1) % capacity_;
  ++dropped_;
}

void EventTracer::name_track(std::string_view name) {
  std::lock_guard lock(mutex_);
  auto track = static_cast<std::uint32_t>(
      std::find(track_names_.begin(), track_names_.end(), name) -
      track_names_.begin());
  TrackBinding* binding = binding_for(serial_);
  if (track == track_names_.size()) {
    // No track carries the name yet: take the thread's own unnamed track,
    // or open a new one.
    if (binding != nullptr && track_names_[binding->track].empty()) {
      track = binding->track;
    } else {
      track_names_.emplace_back();
    }
    track_names_[track] = std::string(name);
  }
  if (binding != nullptr) {
    binding->track = track;
  } else {
    t_tracks.push_back({serial_, track});
  }
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % size_]);
  }
  return out;
}

std::vector<std::string> EventTracer::track_names() const {
  std::lock_guard lock(mutex_);
  return track_names_;
}

std::uint64_t EventTracer::recorded() const {
  std::lock_guard lock(mutex_);
  return recorded_;
}

std::uint64_t EventTracer::dropped() const {
  std::lock_guard lock(mutex_);
  return dropped_;
}

std::uint64_t EventTracer::sampled_out() const {
  return sampled_out_.load(std::memory_order_relaxed);
}

void EventTracer::clear() {
  std::lock_guard lock(mutex_);
  ring_.clear();
  head_ = 0;
  size_ = 0;
  dropped_ = 0;
  recorded_ = 0;
  sampled_out_.store(0, std::memory_order_relaxed);
}

void export_trace(const EventTracer& tracer, std::ostream& os) {
  const std::vector<TraceEvent> events = tracer.snapshot();
  const std::vector<std::string> tracks = tracer.track_names();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
     << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
        "\"args\":{\"name\":\"ripki\"}}";
  for (std::size_t tid = 0; tid < tracks.size(); ++tid) {
    os << ",{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
       << ",\"args\":{\"name\":\""
       << (tracks[tid].empty() ? "track-" + std::to_string(tid)
                               : util::json_escape(tracks[tid]))
       << "\"}}";
  }
  for (const TraceEvent& event : events) {
    os << ",{\"name\":\"" << util::json_escape(event.name)
       << "\",\"cat\":\"ripki\",\"ph\":\"X\",\"ts\":" << event.ts_us
       << ",\"dur\":" << event.dur_us << ",\"pid\":1,\"tid\":" << event.tid
       << '}';
  }
  os << "]}\n";
}

std::string trace_json(const EventTracer& tracer) {
  std::ostringstream os;
  export_trace(tracer, os);
  return os.str();
}

}  // namespace ripki::obs
