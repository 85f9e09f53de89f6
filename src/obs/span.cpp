#include "obs/span.hpp"

#include <cstdio>
#include <sstream>

#include "obs/request_context.hpp"
#include "obs/sched.hpp"
#include "obs/trace.hpp"
#include "util/table.hpp"

namespace ripki::obs {

namespace {

thread_local Span* g_current_span = nullptr;

std::string joined_path(std::string_view name) {
  if (g_current_span != nullptr && g_current_span->active()) {
    std::string path = g_current_span->path();
    path += '.';
    path += name;
    return path;
  }
  return std::string(name);
}

std::string fmt(double v, const char* spec = "%.3f") {
  char buf[32];
  std::snprintf(buf, sizeof buf, spec, v);
  return buf;
}

}  // namespace

Span::Span(Registry* registry, std::string_view name)
    : Span(registry, name, nullptr, SweepStage{}) {}

Span::Span(SchedTelemetry* sched, SweepStage stage)
    : Span(nullptr, {}, sched, stage) {}

Span::Span(Registry* registry, std::string_view name, SchedTelemetry* sched,
           SweepStage stage)
    : registry_(registry),
      sched_(sched != nullptr && sched->attached() ? sched : nullptr),
      stage_(stage) {
  if (registry_ == nullptr && sched_ == nullptr) return;
  if (registry_ != nullptr) {
    path_ = joined_path(name);
    parent_ = g_current_span;
    g_current_span = this;
  }
  stopped_ = false;
  start_ = std::chrono::steady_clock::now();
}

std::uint64_t Span::elapsed_ns() const {
  if (registry_ == nullptr && sched_ == nullptr) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start_)
          .count());
}

void Span::stop() {
  if (stopped_) return;
  const auto end = std::chrono::steady_clock::now();
  stopped_ = true;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start_)
          .count());
  if (sched_ != nullptr) sched_->on_stage(stage_, ns);
  if (registry_ == nullptr) {
    if (EventTracer* tracer = sched_->tracer()) {
      tracer->record(sweep_stage_name(stage_), start_, end);
    }
    return;
  }
  if (g_current_span == this) g_current_span = parent_;
  if (EventTracer* tracer = registry_->tracer()) {
    tracer->record(path_, start_, end);
  }
  if (RequestContext* request = RequestContext::current()) {
    request->record_span(path_, start_, ns);
  }
  registry_->histogram(std::string(kTracePrefix) + path_)
      .observe(static_cast<double>(ns) / 1000.0);  // µs
}

const Span* Span::current() { return g_current_span; }

void record_duration_ns(Registry* registry, std::string_view name,
                        std::uint64_t ns) {
  if (registry == nullptr) return;
  registry->histogram(std::string(kTracePrefix) + joined_path(name))
      .observe(static_cast<double>(ns) / 1000.0);
}

void render_stage_report(const std::vector<MetricSnapshot>& metrics,
                         std::ostream& os) {
  util::TextTable table({"span", "calls", "total ms", "mean ms", "p50 µs",
                         "p90 µs", "p99 µs"});
  bool any = false;
  for (const auto& metric : metrics) {
    if (metric.kind != MetricSnapshot::Kind::kHistogram) continue;
    if (metric.name.rfind(kTracePrefix, 0) != 0) continue;
    any = true;
    const double total_ms = metric.sum / 1000.0;
    const double mean_ms =
        metric.count == 0 ? 0.0 : total_ms / static_cast<double>(metric.count);
    table.add_row({metric.name.substr(kTracePrefix.size()),
                   std::to_string(metric.count), fmt(total_ms), fmt(mean_ms),
                   fmt(metric.p50, "%.1f"), fmt(metric.p90, "%.1f"),
                   fmt(metric.p99, "%.1f")});
  }
  if (!any) {
    os << "(no trace spans recorded)\n";
    return;
  }
  table.print(os);
}

void render_stage_report(const Registry& registry, std::ostream& os) {
  render_stage_report(registry.collect(), os);
}

std::string stage_report(const Registry& registry) {
  return stage_report(registry.collect());
}

std::string stage_report(const std::vector<MetricSnapshot>& metrics) {
  std::ostringstream os;
  render_stage_report(metrics, os);
  return os.str();
}

}  // namespace ripki::obs
