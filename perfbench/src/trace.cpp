#include <fstream>

#include "bench.hpp"

namespace perfbench {

Tracer::Scope::Scope(Tracer& tracer, const char* name, std::uint64_t id)
    : tracer_(tracer) {
  if (!tracer.enabled_) return;
  index_ = static_cast<std::int32_t>(tracer.spans_.size());
  tracer.spans_.push_back(Span{name, ns(Clock::now()), 0, tracer.open_, id});
  tracer.open_ = index_;
}

void Tracer::Scope::end() {
  if (index_ < 0) return;
  Span& span = tracer_.spans_[static_cast<std::size_t>(index_)];
  span.end_ns = ns(Clock::now());
  tracer_.open_ = span.parent;
  index_ = -1;
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end, std::uint64_t id) {
  if (!enabled_) return;
  spans_.push_back(Span{name, ns(start), ns(end), -1, id});
}

void Tracer::absorb(const Tracer& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span span : other.spans_) {
    if (span.parent >= 0) span.parent += offset;
    spans_.push_back(span);
  }
}

Tracer::Summary Tracer::summarize(std::string_view name) const {
  // Spans of one tracer come from one thread, so a parent's children never
  // overlap and the part of the parent they cover is their summed length.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  Summary summary;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (name != span.name) continue;
    const std::int64_t duration = span.end_ns - span.start_ns;
    ++summary.count;
    summary.busy_ms += static_cast<double>(duration) / 1e6;
    summary.self_ms += static_cast<double>(duration - child_ns[i]) / 1e6;
    summary.durations_us.push_back(static_cast<double>(duration) / 1e3);
  }
  return summary;
}

bool Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& span : spans_) {
    out << "{\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << ",\"parent\":" << span.parent
        << ",\"id\":" << span.id << "}\n";
  }
  out.flush();
  return static_cast<bool>(out);
}

}  // namespace perfbench
