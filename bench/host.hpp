// The host fingerprint of a bench run: the six fields of perfbench's
// result `host` block (nproc, cpus_allowed, CPU model, kernel, build type,
// compiler), in the same order and format. perf_pipeline_stages and
// serve_loadgen write it as their top-level "host" key, and
// bench/check_regression.py compares timings only between runs whose host
// blocks are equal.
#pragma once

#include <sched.h>
#include <sys/utsname.h>
#include <unistd.h>

#include <fstream>
#include <string>

#include "util/strings.hpp"

#ifndef RIPKI_BUILD_TYPE
#define RIPKI_BUILD_TYPE "unknown"
#endif

namespace ripki::bench {

inline std::string host_json() {
  const auto quoted = [](std::string_view text) {
    return '"' + util::json_escape(text) + '"';
  };
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const auto start = line.find_first_not_of(' ', line.find(':') + 1);
    if (start != std::string::npos) model = line.substr(start);
    break;
  }
  utsname names{};
  const std::string kernel = ::uname(&names) == 0 ? names.release : "unknown";
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  const int cpus_allowed = ::sched_getaffinity(0, sizeof allowed, &allowed) == 0
                               ? CPU_COUNT(&allowed)
                               : 0;
  std::string out =
      "{\"nproc\":" + std::to_string(::sysconf(_SC_NPROCESSORS_ONLN));
  out += ",\"cpus_allowed\":" + std::to_string(cpus_allowed);
  out += ",\"cpu_model\":" + quoted(model);
  out += ",\"kernel\":" + quoted(kernel);
  out += ",\"build_type\":" + quoted(RIPKI_BUILD_TYPE);
#if defined(__clang__)
  out += ",\"compiler\":" + quoted(std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  out += ",\"compiler\":" + quoted(std::string("gcc ") + __VERSION__);
#else
  out += ",\"compiler\":\"unknown\"";
#endif
  return out + "}";
}

}  // namespace ripki::bench
