#include <sched.h>
#include <sys/resource.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <string>

#include "bench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

void Result::fail(std::uint64_t count, std::string_view why) {
  failed += count;
  correct = false;
  if (divergence.empty()) divergence = std::string(why);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos =
      std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] +
         (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) / 1e6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", c);
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    std::vector<int> allowed;
    cpu_set_t set;
    CPU_ZERO(&set);
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return allowed;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) allowed.push_back(cpu);
    }
    return allowed;
  }();
  return cpus;
}

bool pin_current_thread(const std::vector<int>& slots) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.size() < 4) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int slot : slots) CPU_SET(cpus[static_cast<std::size_t>(slot)], &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

void unpin_current_thread() {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

std::string host_json() {
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon != std::string::npos) {
      model = line.substr(line.find_first_not_of(' ', colon + 1));
    }
    break;
  }
  utsname names{};
  const std::string kernel = ::uname(&names) == 0 ? names.release : "unknown";
  std::string out = "{\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"cpus_allowed\":" + std::to_string(process_cpus().size());
  out += ",\"cpu_model\":" + json_string(model);
  out += ",\"kernel\":" + json_string(kernel);
  out += ",\"build_type\":" + json_string(PERFBENCH_BUILD_TYPE);
#if defined(__clang__)
  out += ",\"compiler\":" + json_string(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out += ",\"compiler\":" + json_string(std::string("gcc ") + __VERSION__);
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  return out + "}";
}

}  // namespace perfbench
