// perfbench benchmark binary. Runs one workload against libripki and prints
// one JSON object (workload, config, host, correctness tallies, and the
// end-to-end, per-layer and detail metrics with their units) as the last
// line of stdout. perfbench/run.py builds this binary, passes the fixed
// config from perfbench/config.json, and reduces the object to the
// benchmark's result line.
//
//   perfbench --workload sweep|churn|serve_hot|serve_churn --seed N
//             --seconds S --trace 0|1 [--trace-out FILE] [config flags]
#include <csignal>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>

#include "bench.hpp"

namespace {

using perfbench::Config;
using perfbench::Corrupt;
using perfbench::Metric;

std::string number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[64];
  std::snprintf(text, sizeof text, "%.10g", value);
  return text;
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ',';
    out += perfbench::json_string(metrics[i].name) + ":{\"value\":" +
           number(metrics[i].value) +
           ",\"unit\":" + perfbench::json_string(metrics[i].unit) + "}";
  }
  return out + "}";
}

const char* corrupt_name(Corrupt corrupt) {
  switch (corrupt) {
    case Corrupt::kBody: return "body";
    case Corrupt::kRow: return "row";
    case Corrupt::kGeneration: return "generation";
    default: return "none";
  }
}

std::string config_json(const Config& c) {
  std::ostringstream out;
  out << "{\"workload\":" << perfbench::json_string(c.workload)
      << ",\"seconds\":" << number(c.seconds) << ",\"domains\":" << c.domains
      << ",\"rank_space\":" << c.rank_space << ",\"setup_reps\":" << c.setup_reps
      << ",\"threads\":" << c.threads << ",\"tick_rate\":" << number(c.tick_rate)
      << ",\"min_ticks\":" << c.min_ticks << ",\"warmup_ticks\":" << c.warmup_ticks
      << ",\"lane\":" << c.lane << ",\"churn\":" << number(c.churn_fraction) << ",\"shards\":" << c.shards
      << ",\"connections\":" << c.connections
      << ",\"publish_ms\":" << number(c.publish_ms) << ",\"rate\":" << number(c.rate)
      << ",\"limit_us\":" << number(c.limit_us) << ",\"ladder\":[";
  for (std::size_t i = 0; i < c.ladder.size(); ++i) {
    out << (i == 0 ? "" : ",") << number(c.ladder[i]);
  }
  out << "],\"nominal_share\":" << number(c.nominal_share)
      << ",\"corrupt\":\"" << corrupt_name(c.corrupt) << "\"}";
  return out.str();
}

int usage(const char* message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload sweep|churn|serve_hot|serve_churn "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "  [--domains N] [--rank-space N] [--setup-reps N] [--threads N]\n"
               "  [--tick-rate F] [--min-ticks N] [--warmup-ticks N] [--lane N]\n"
               "  [--churn F] [--shards N] [--connections N]\n"
               "  [--publish-ms F] [--rate F] [--limit-us F] [--ladder a,b,..]\n"
               "  [--nominal-share F] [--corrupt none|body|row|generation]\n";
  return 2;
}

bool parse_number(const char* text, double& out) {
  char* end = nullptr;
  out = std::strtod(text, &end);
  return end != text && *end == '\0' && std::isfinite(out);
}

}  // namespace

int main(int argc, char** argv) {
  // Captured before any thread is pinned.
  perfbench::process_cpus();
  std::signal(SIGPIPE, SIG_IGN);

  Config config;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    double n = 0.0;
    const bool numeric = parse_number(value, n);
    if (flag == "--workload") {
      config.workload = value;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--corrupt") {
      const std::string mode = value;
      if (mode == "none") config.corrupt = Corrupt::kNone;
      else if (mode == "body") config.corrupt = Corrupt::kBody;
      else if (mode == "row") config.corrupt = Corrupt::kRow;
      else if (mode == "generation") config.corrupt = Corrupt::kGeneration;
      else return usage("unknown --corrupt mode");
    } else if (flag == "--ladder") {
      config.ladder.clear();
      std::stringstream list(value);
      for (std::string item; std::getline(list, item, ',');) {
        double multiple = 0.0;
        if (!parse_number(item.c_str(), multiple) || multiple <= 0.0) {
          return usage("bad --ladder");
        }
        config.ladder.push_back(multiple);
      }
    } else if (!numeric || n < 0.0) {
      return usage(("bad value for " + flag).c_str());
    } else if (flag == "--seed") {
      config.seed = static_cast<std::uint64_t>(n);
    } else if (flag == "--seconds") {
      config.seconds = n;
    } else if (flag == "--trace") {
      config.trace = n != 0.0;
    } else if (flag == "--domains") {
      config.domains = static_cast<std::uint64_t>(n);
    } else if (flag == "--rank-space") {
      config.rank_space = static_cast<std::uint64_t>(n);
    } else if (flag == "--setup-reps") {
      config.setup_reps = static_cast<int>(n);
    } else if (flag == "--threads") {
      config.threads = static_cast<std::size_t>(n);
    } else if (flag == "--tick-rate") {
      config.tick_rate = n;
    } else if (flag == "--min-ticks") {
      config.min_ticks = static_cast<int>(n);
    } else if (flag == "--warmup-ticks") {
      config.warmup_ticks = static_cast<int>(n);
    } else if (flag == "--lane") {
      config.lane = static_cast<std::uint64_t>(n);
    } else if (flag == "--churn") {
      config.churn_fraction = n;
    } else if (flag == "--shards") {
      config.shards = static_cast<std::uint32_t>(n);
    } else if (flag == "--connections") {
      config.connections = static_cast<std::size_t>(n);
    } else if (flag == "--publish-ms") {
      config.publish_ms = n;
    } else if (flag == "--rate") {
      config.rate = n;
    } else if (flag == "--limit-us") {
      config.limit_us = n;
    } else if (flag == "--nominal-share") {
      config.nominal_share = n;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (config.domains < 1 || config.setup_reps < 1 || config.seconds <= 0.0 ||
      config.rate <= 0.0 || config.publish_ms <= 0.0 || config.connections < 1 ||
      config.nominal_share <= 0.0 || config.nominal_share > 1.0) {
    return usage("domains, setup-reps, seconds, rate, publish-ms, connections and "
                 "nominal-share must be positive (nominal-share at most 1)");
  }

  perfbench::Tracer tracer(config.trace);
  perfbench::Result result;
  if (config.workload == "sweep") {
    result = perfbench::run_sweep(config, tracer);
  } else if (config.workload == "churn") {
    result = perfbench::run_churn(config, tracer);
  } else if (config.workload == "serve_hot" || config.workload == "serve_churn") {
    result = perfbench::run_serve(config, tracer);
  } else {
    return usage("unknown --workload");
  }
  result.e2e("peak_rss_mib", perfbench::peak_rss_mib(), "MiB");
  if (config.trace) {
    result.layer("trace.spans", static_cast<double>(tracer.size()), "count");
    if (!trace_out.empty() && !tracer.write(trace_out)) {
      std::cerr << "perfbench: could not write spans to " << trace_out << "\n";
    }
  }

  std::cout << "{\"workload\":" << perfbench::json_string(config.workload)
            << ",\"seed\":" << config.seed << ",\"trace\":" << (config.trace ? 1 : 0)
            << ",\"correct\":" << (result.correct ? "true" : "false")
            << ",\"attempted\":" << result.attempted << ",\"failed\":" << result.failed
            << ",\"divergence\":" << perfbench::json_string(result.divergence)
            << ",\"config\":" << config_json(config)
            << ",\"host\":" << perfbench::host_json()
            << ",\"cpu_map\":" << perfbench::json_string(result.cpu_map)
            << ",\"wall_s\":" << number(result.wall_s)
            << ",\"cpu_s\":" << number(result.cpu_s)
            << ",\"end_to_end\":" << metrics_json(result.end_to_end)
            << ",\"per_layer\":" << metrics_json(result.per_layer)
            << ",\"detail\":" << metrics_json(result.detail) << ",\"samples_ms\":[";
  for (std::size_t i = 0; i < result.samples_ms.size(); ++i) {
    std::cout << (i == 0 ? "" : ",") << number(result.samples_ms[i]);
  }
  std::cout << "]}" << std::endl;
  return 0;
}
