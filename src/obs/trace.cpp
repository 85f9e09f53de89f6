#include "obs/trace.hpp"

namespace ripki::obs {

EventTracer::EventTracer(std::size_t capacity, std::uint32_t sample_every)
    : capacity_(capacity == 0 ? 1 : capacity),
      sample_every_(sample_every == 0 ? 1 : sample_every),
      epoch_(std::chrono::steady_clock::now()) {
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
  const auto id = std::this_thread::get_id();
  const auto it = track_ids_.find(id);
  if (it != track_ids_.end()) return it->second;
  const auto track = static_cast<std::uint32_t>(track_ids_.size());
  track_ids_.emplace(id, track);
  return track;
}

void EventTracer::push(TraceEvent event) {
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

bool EventTracer::begin(std::string_view name,
                        std::chrono::steady_clock::time_point at) {
  const std::uint64_t seq =
      sequence_.fetch_add(1, std::memory_order_relaxed);
  if (sample_every_ > 1 && seq % sample_every_ != 0) {
    sampled_out_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  TraceEvent event;
  event.ts_us = now_us(at);
  event.phase = TraceEvent::Phase::kBegin;
  event.name = std::string(name);
  push(std::move(event));
  return true;
}

void EventTracer::end(std::string_view name,
                      std::chrono::steady_clock::time_point at) {
  TraceEvent event;
  event.ts_us = now_us(at);
  event.phase = TraceEvent::Phase::kEnd;
  event.name = std::string(name);
  push(std::move(event));
}

std::vector<TraceEvent> EventTracer::snapshot() const {
  std::lock_guard lock(mutex_);
  std::vector<TraceEvent> out;
  out.reserve(size_);
  if (size_ < capacity_) {
    out = ring_;
    return out;
  }
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(head_ + i) % capacity_]);
  }
  return out;
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

std::vector<TraceEvent> balance_events(const std::vector<TraceEvent>& events) {
  // Ring wrap drops a chronological prefix, so per thread the surviving
  // stream can open with orphan ends and close with unfinished begins.
  // Walk with a per-thread stack: an end pairs with the innermost live
  // begin; anything unpaired is excluded.
  std::vector<bool> keep(events.size(), false);
  std::map<std::uint32_t, std::vector<std::size_t>> open;  // tid -> begin idx
  for (std::size_t i = 0; i < events.size(); ++i) {
    const TraceEvent& event = events[i];
    auto& stack = open[event.tid];
    if (event.phase == TraceEvent::Phase::kBegin) {
      stack.push_back(i);
      continue;
    }
    if (stack.empty()) continue;  // begin lost to wrap
    keep[stack.back()] = true;
    keep[i] = true;
    stack.pop_back();
  }
  std::vector<TraceEvent> out;
  for (std::size_t i = 0; i < events.size(); ++i) {
    if (keep[i]) out.push_back(events[i]);
  }
  return out;
}

}  // namespace ripki::obs
