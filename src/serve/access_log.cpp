#include "serve/access_log.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/strings.hpp"

namespace ripki::serve {

namespace {

/// Quotes a value for the key=value access-log text format when it is
/// empty or contains spaces/quotes; bare otherwise.
std::string text_value(std::string_view value) {
  if (!value.empty() &&
      value.find_first_of(" \t\"\n") == std::string_view::npos) {
    return std::string(value);
  }
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (c == '\n') { out += "\\n"; continue; }
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

}  // namespace

// --- AccessLog -------------------------------------------------------------

AccessLog::AccessLog(std::size_t capacity)
    : capacity_(std::max<std::size_t>(1, capacity)) {}

void AccessLog::record(Entry entry) {
  std::lock_guard lock(mutex_);
  entry.seq = ++total_;
  ring_.push_back(std::move(entry));
  if (ring_.size() > capacity_) ring_.pop_front();
}

std::vector<AccessLog::Entry> AccessLog::entries() const {
  std::lock_guard lock(mutex_);
  return {ring_.begin(), ring_.end()};
}

std::uint64_t AccessLog::total() const {
  std::lock_guard lock(mutex_);
  return total_;
}

std::string AccessLog::render_text() const {
  std::ostringstream os;
  for (const Entry& e : entries()) {
    os << "seq=" << e.seq << " request_id=" << text_value(e.request_id)
       << " client=" << text_value(e.client)
       << " method=" << text_value(e.method)
       << " target=" << text_value(e.target)
       << " endpoint=" << text_value(e.endpoint) << " status=" << e.status
       << " duration_us=" << e.duration_us << '\n';
  }
  return os.str();
}

// --- SlowRequestRecorder ---------------------------------------------------

SlowRequestRecorder::SlowRequestRecorder(std::size_t per_endpoint)
    : per_endpoint_(std::max<std::size_t>(1, per_endpoint)) {}

void SlowRequestRecorder::refresh_floor_locked() {
  // The floor is only meaningful once every known ring is full; while any
  // ring has room, anything can be admitted and the fast path must stay
  // open.
  std::uint64_t floor = UINT64_MAX;
  for (const auto& [endpoint, ring] : rings_) {
    if (ring.size() < per_endpoint_) {
      floor = 0;
      break;
    }
    floor = std::min(floor, ring.back().duration_us);
  }
  floor_us_.store(rings_.empty() ? 0 : floor, std::memory_order_relaxed);
}

void SlowRequestRecorder::offer(Entry entry) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  // Fast path: a request no slower than the floor cannot displace anyone.
  const std::uint64_t floor = floor_us_.load(std::memory_order_relaxed);
  if (floor != 0 && entry.duration_us <= floor) return;

  std::lock_guard lock(mutex_);
  std::vector<Entry>& ring = rings_[entry.endpoint];
  if (ring.size() >= per_endpoint_ &&
      entry.duration_us <= ring.back().duration_us) {
    // Raced past the stale floor; this ring's own floor says no.
    return;
  }
  // Insert keeping the ring sorted slowest-first; ties keep the earlier
  // entry ahead (stable for repeated identical durations).
  const auto at = std::upper_bound(
      ring.begin(), ring.end(), entry.duration_us,
      [](std::uint64_t d, const Entry& e) { return d > e.duration_us; });
  ring.insert(at, std::move(entry));
  if (ring.size() > per_endpoint_) ring.pop_back();
  admitted_.fetch_add(1, std::memory_order_relaxed);
  refresh_floor_locked();
}

std::vector<SlowRequestRecorder::Entry> SlowRequestRecorder::worst(
    std::string_view endpoint) const {
  std::lock_guard lock(mutex_);
  const auto it = rings_.find(endpoint);
  return it == rings_.end() ? std::vector<Entry>{} : it->second;
}

std::vector<std::string> SlowRequestRecorder::endpoints() const {
  std::lock_guard lock(mutex_);
  std::vector<std::string> out;
  out.reserve(rings_.size());
  for (const auto& [endpoint, ring] : rings_) out.push_back(endpoint);
  return out;
}

std::string SlowRequestRecorder::render_json() const {
  std::lock_guard lock(mutex_);
  std::ostringstream os;
  os << "{\"slowz\":{\"per_endpoint\":" << per_endpoint_
     << ",\"offered\":" << offered_.load(std::memory_order_relaxed)
     << ",\"admitted\":" << admitted_.load(std::memory_order_relaxed)
     << ",\"floor_us\":" << floor_us_.load(std::memory_order_relaxed)
     << ",\"endpoints\":[";
  bool first_endpoint = true;
  for (const auto& [endpoint, ring] : rings_) {
    if (!first_endpoint) os << ',';
    first_endpoint = false;
    os << "{\"endpoint\":\"" << util::json_escape(endpoint) << "\",\"requests\":[";
    bool first_entry = true;
    for (const Entry& e : ring) {
      if (!first_entry) os << ',';
      first_entry = false;
      os << "{\"request_id\":\"" << util::json_escape(e.request_id)
         << "\",\"client\":\"" << util::json_escape(e.client) << "\",\"method\":\""
         << util::json_escape(e.method) << "\",\"target\":\""
         << util::json_escape(e.target) << "\",\"status\":" << e.status
         << ",\"duration_us\":" << e.duration_us
         << ",\"spans_dropped\":" << e.spans_dropped << ",\"spans\":[";
      bool first_span = true;
      for (const auto& span : e.spans) {
        if (!first_span) os << ',';
        first_span = false;
        os << "{\"path\":\"" << util::json_escape(span.path)
           << "\",\"start_us\":" << span.start_us
           << ",\"duration_us\":" << span.duration_us << '}';
      }
      os << "]}";
    }
    os << "]}";
  }
  os << "]}}\n";
  return os.str();
}

}  // namespace ripki::serve
