#include "core/export.hpp"

#include <sstream>

#include "obs/telemetry.hpp"
#include "util/strings.hpp"
#include "util/table.hpp"

namespace ripki::core {

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

void export_domains_csv(const Dataset& dataset, std::ostream& os) {
  os << "rank,domain,excluded_dns,dnssec_signed,"
        "www_resolved,www_addresses,www_cname_hops,www_terminal_cname,"
        "www_pairs,www_coverage,www_valid,www_invalid,"
        "apex_resolved,apex_addresses,apex_cname_hops,apex_pairs,"
        "apex_coverage\n";
  for (const auto record : dataset.rows()) {
    os << record.rank << ',' << util::csv_escape(record.name) << ','
       << (record.excluded_dns ? 1 : 0) << ',' << (record.dnssec_signed ? 1 : 0)
       << ',' << (record.www.resolved ? 1 : 0)
       << ',' << record.www.address_count << ','
       << static_cast<int>(record.www.cname_hops) << ','
       << util::csv_escape(record.www.terminal_cname) << ',' << record.www.pairs.size()
       << ',' << fmt(record.www.coverage()) << ','
       << fmt(record.www.fraction(rpki::OriginValidity::kValid)) << ','
       << fmt(record.www.fraction(rpki::OriginValidity::kInvalid)) << ','
       << (record.apex.resolved ? 1 : 0) << ',' << record.apex.address_count << ','
       << static_cast<int>(record.apex.cname_hops) << ','
       << record.apex.pairs.size() << ',' << fmt(record.apex.coverage()) << '\n';
  }
}

void export_pairs_csv(const Dataset& dataset, std::ostream& os) {
  os << "rank,domain,variant,prefix,origin_asn,validity\n";
  for (const auto record : dataset.rows()) {
    const auto emit = [&](const char* variant, const auto& v) {
      for (const auto& pair : v.pairs) {
        os << record.rank << ',' << util::csv_escape(record.name) << ',' << variant
           << ',' << pair.prefix.to_string() << ',' << pair.origin.value() << ','
           << rpki::to_string(pair.validity) << '\n';
      }
    };
    emit("www", record.www);
    emit("apex", record.apex);
  }
}

void export_counters_csv(const Dataset& dataset, std::ostream& os) {
  os << "key,value\n";
  dataset.counters.for_each_field([&](const char* name, std::uint64_t value) {
    os << name << ',' << value << '\n';
  });
  os << "rank_space," << dataset.rank_space << '\n';
}

namespace {

/// JSON number formatting: integral values print without a fraction so
/// counters round-trip exactly.
std::string json_number(double v) {
  if (v == static_cast<double>(static_cast<std::int64_t>(v))) {
    return std::to_string(static_cast<std::int64_t>(v));
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6g", v);
  return buf;
}

std::string prometheus_name(std::string_view name) {
  std::string out(name);
  for (char& c : out) {
    if (c == '.' || c == '-') c = '_';
  }
  return out;
}

}  // namespace

void export_metrics_json(const obs::Registry& registry, std::ostream& os) {
  const auto metrics = registry.collect();
  const auto emit_section = [&](obs::MetricSnapshot::Kind kind,
                                const char* label, auto&& emit_value) {
    os << '"' << label << "\":{";
    bool first = true;
    for (const auto& m : metrics) {
      if (m.kind != kind) continue;
      if (!first) os << ',';
      first = false;
      os << '"' << m.name << "\":";
      emit_value(m);
    }
    os << '}';
  };

  os << '{';
  emit_section(obs::MetricSnapshot::Kind::kCounter, "counters",
               [&](const obs::MetricSnapshot& m) { os << m.counter_value; });
  os << ',';
  emit_section(obs::MetricSnapshot::Kind::kGauge, "gauges",
               [&](const obs::MetricSnapshot& m) { os << m.gauge_value; });
  os << ',';
  emit_section(
      obs::MetricSnapshot::Kind::kHistogram, "histograms",
      [&](const obs::MetricSnapshot& m) {
        os << "{\"count\":" << m.count << ",\"sum\":" << json_number(m.sum)
           << ",\"max\":" << json_number(m.max)
           << ",\"p50\":" << json_number(m.p50)
           << ",\"p90\":" << json_number(m.p90)
           << ",\"p99\":" << json_number(m.p99) << ",\"buckets\":[";
        for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
          if (i > 0) os << ',';
          os << "{\"le\":";
          if (i < m.bounds.size()) {
            os << json_number(m.bounds[i]);
          } else {
            os << "\"+Inf\"";
          }
          os << ",\"count\":" << m.bucket_counts[i] << '}';
        }
        os << "]}";
      });
  os << "}\n";
}

std::string prometheus_escape_label(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '"': out += "\\\""; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

std::string prometheus_escape_help(std::string_view value) {
  std::string out;
  out.reserve(value.size());
  for (char c : value) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

namespace {

/// A registry metric name split for Prometheus exposition. Labelled
/// metrics carry a `{key=value,...}` suffix with unquoted values (e.g.
/// `ripki.serve.conn_dropped{reason=idle}`); the exposition sanitises
/// only the family part and renders the labels quoted and escaped.
struct PrometheusName {
  std::string family;
  std::string labels;  // rendered `key="value",...` — empty when none
};

PrometheusName split_prometheus_name(const std::string& name) {
  PrometheusName out;
  const std::size_t brace = name.find('{');
  out.family = prometheus_name(std::string_view(name).substr(0, brace));
  if (brace == std::string::npos) return out;
  std::string_view body(name);
  body.remove_prefix(brace + 1);
  if (!body.empty() && body.back() == '}') body.remove_suffix(1);
  while (!body.empty()) {
    const std::size_t comma = body.find(',');
    const std::string_view pair = body.substr(0, comma);
    const std::size_t eq = pair.find('=');
    if (eq != std::string_view::npos) {
      if (!out.labels.empty()) out.labels += ',';
      out.labels += prometheus_name(pair.substr(0, eq));
      out.labels += "=\"";
      out.labels += prometheus_escape_label(pair.substr(eq + 1));
      out.labels += '"';
    }
    if (comma == std::string_view::npos) break;
    body.remove_prefix(comma + 1);
  }
  return out;
}

}  // namespace

void export_metrics_prometheus(const obs::Registry& registry, std::ostream& os) {
  // collect() is sorted by name, so labelled series of one family are
  // adjacent — emit HELP/TYPE once per family, not once per series.
  std::string previous_family;
  for (const auto& m : registry.collect()) {
    const PrometheusName pn = split_prometheus_name(m.name);
    const std::string& name = pn.family;
    const std::string label_block =
        pn.labels.empty() ? "" : '{' + pn.labels + '}';
    const bool new_family = name != previous_family;
    previous_family = name;
    if (new_family && !m.help.empty()) {
      os << "# HELP " << name << ' ' << prometheus_escape_help(m.help) << '\n';
    }
    switch (m.kind) {
      case obs::MetricSnapshot::Kind::kCounter:
        if (new_family) os << "# TYPE " << name << " counter\n";
        os << name << label_block << ' ' << m.counter_value << '\n';
        break;
      case obs::MetricSnapshot::Kind::kGauge:
        if (new_family) os << "# TYPE " << name << " gauge\n";
        os << name << label_block << ' ' << m.gauge_value << '\n';
        break;
      case obs::MetricSnapshot::Kind::kHistogram: {
        if (new_family) os << "# TYPE " << name << " histogram\n";
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < m.bucket_counts.size(); ++i) {
          cumulative += m.bucket_counts[i];
          os << name << "_bucket{";
          if (!pn.labels.empty()) os << pn.labels << ',';
          os << "le=\"";
          if (i < m.bounds.size()) {
            os << prometheus_escape_label(json_number(m.bounds[i]));
          } else {
            os << "+Inf";
          }
          os << "\"} " << cumulative << '\n';
        }
        os << name << "_sum" << label_block << ' ' << json_number(m.sum)
           << '\n'
           << name << "_count" << label_block << ' ' << m.count << '\n';
        break;
      }
    }
  }
}

void attach_metrics_endpoints(obs::TelemetryServer& server,
                              const obs::Registry& registry) {
  server.set_handler("/metrics", [&registry] {
    serve::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4; charset=utf-8";
    std::ostringstream os;
    export_metrics_prometheus(registry, os);
    response.body = os.str();
    return response;
  });
  server.set_handler("/metrics.json", [&registry] {
    serve::HttpResponse response;
    response.content_type = "application/json";
    std::ostringstream os;
    export_metrics_json(registry, os);
    response.body = os.str();
    return response;
  });
}

}  // namespace ripki::core
