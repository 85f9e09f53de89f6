// serve_loadgen: load generator for the ripki::serve query API. Spins up
// a QueryService on a real socket over one pipeline run, then measures it
// three ways:
//
//   1. Closed-loop thread ladder (single-shard server): {1, 4, hardware}
//      keep-alive client threads, each sending the next request the
//      moment the previous response lands. The historical "runs" block.
//   2. Closed-loop shard ladder: server restarted at {1, 2, hardware}
//      reactor shards (client threads = shards, each driving --listeners
//      connections) to measure multi-core serve scaling.
//   3. Open-loop fixed-arrival-rate rung (--rate R, 0 = auto at 1.25x the
//      best shard-ladder rung): arrivals are scheduled on a fixed grid
//      regardless of completions, and latency is measured from the
//      SCHEDULED arrival, so queueing delay is part of every percentile
//      (p50/p95/p99/p999). This is the honest latency-under-load number a
//      closed loop cannot give (closed loops suffer coordinated omission).
//
// The working set is small so the response cache stays warm — this
// measures the serving ceiling, not snapshot rendering.
//
// Every response is checked against the oracle: bodies must byte-match
// the rendering computed directly from the core::Dataset (domain
// lookups) or the published snapshot (summary) — across every shard
// count and backend. Any divergence makes the run exit 3 — a
// wrong-but-fast server is a broken server.
//
//   build/bench/serve_loadgen [--domains N] [--seconds S] [--threads N]
//                             [--shards N] [--listeners N] [--rate R]
//                             [--backend poll|epoll]
//                             [--min-qps Q] [--pprofz FILE]
//
// Emits one JSON object on stdout:
//   {"serve_loadgen": {"domains": .., "backend": "..",
//     "runs": [{"threads": .., "qps": .., "p50_us": .., ...}, ...],
//     "shard_ladder": {"runs": [{"shards": .., "qps": ..,
//                                "accept_mode": "..", ...}, ...]},
//     "open_loop": {"rate": .., "achieved_qps": .., "p50_us": ..,
//                   "p95_us": .., "p99_us": .., "p999_us": .., ...}},
//    "host": {"nproc": .., "cpu_model": "..", ...}}
//
// `host` is perfbench's host fingerprint (bench/host.hpp):
// bench/check_regression.py compares QPS and latency only between runs
// whose host blocks are equal.
//
// --min-qps Q fails the run (exit 4) when the best closed-loop rung lands
// below Q; default 0 disables the gate so shared-runner noise cannot
// break CI. --shards caps the shard ladder; --rate -1 skips the open-loop
// rung.
//
// The service runs with the full production observability stack wired in
// (registry, request ids, access log, slow-request rings, profiler).
// After the ladders the generator verifies the observability contract —
// the X-Ripki-Request-Id header matches the /accessz line the request
// wrote, and /slowz carries span trees — and exits 5 when it does not.
// --pprofz FILE captures a 2-second /pprofz folded-stack profile under
// load and writes it to FILE (exit 5 when the capture comes back empty).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "host.hpp"
#include "obs/metrics.hpp"
#include "obs/profiler.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "web/ecosystem.hpp"

namespace {

using Clock = std::chrono::steady_clock;
/// Injected clock for pacing decisions, so the open-loop schedule logic
/// never reads a raw now() it cannot be tested against.
using ClockFn = std::function<Clock::time_point()>;

int connect_to(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_all(int fd, std::string_view data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads one Content-Length-framed response off a keep-alive stream.
std::string recv_response(int fd, std::string& carry) {
  auto complete = [](const std::string& data, std::size_t& total) {
    const auto head_end = data.find("\r\n\r\n");
    if (head_end == std::string::npos) return false;
    std::size_t length = 0;
    const auto pos = data.find("Content-Length: ");
    if (pos != std::string::npos && pos < head_end) {
      length = std::strtoul(data.c_str() + pos + 16, nullptr, 10);
    }
    total = head_end + 4 + length;
    return data.size() >= total;
  };
  std::size_t total = 0;
  char buf[8192];
  while (!complete(carry, total)) {
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) return {};
    carry.append(buf, static_cast<std::size_t>(n));
  }
  std::string response = carry.substr(0, total);
  carry.erase(0, total);
  return response;
}

/// Client-side endpoint tags for the per-endpoint latency breakdown.
constexpr std::array<const char*, 2> kEndpoints = {"domain", "summary"};

struct WorkItem {
  std::string request;        // serialized GET, ready to send
  std::string expected_body;  // oracle: exact bytes the server must return
  std::size_t endpoint = 0;   // index into kEndpoints
};

struct WorkerResult {
  std::uint64_t requests = 0;
  std::uint64_t divergences = 0;
  std::uint64_t transport_errors = 0;
  /// One latency series per kEndpoints entry.
  std::array<std::vector<std::uint32_t>, kEndpoints.size()> latencies_us;
};

bool body_matches(const std::string& response, const std::string& expected) {
  const auto body_at = response.find("\r\n\r\n");
  return body_at != std::string::npos &&
         response.compare(body_at + 4, std::string::npos, expected) == 0;
}

/// A fan of keep-alive connections one worker rotates across, so a single
/// client thread can exercise several of the server's reactor shards.
class ConnectionFan {
 public:
  ConnectionFan(std::uint16_t port, std::size_t listeners) {
    for (std::size_t i = 0; i < std::max<std::size_t>(1, listeners); ++i) {
      const int fd = connect_to(port);
      if (fd < 0) break;
      fds_.push_back(fd);
      carries_.emplace_back();
    }
  }
  ~ConnectionFan() {
    for (const int fd : fds_) ::close(fd);
  }
  bool ok() const { return !fds_.empty(); }
  std::size_t size() const { return fds_.size(); }

  /// Sends on connection `slot % size()` and reads the response back.
  std::string exchange(std::size_t slot, const std::string& request) {
    const std::size_t i = slot % fds_.size();
    if (!send_all(fds_[i], request)) return {};
    return recv_response(fds_[i], carries_[i]);
  }

 private:
  std::vector<int> fds_;
  std::vector<std::string> carries_;
};

/// One closed-loop client: `listeners` keep-alive connections issuing the
/// working set round-robin until the deadline.
WorkerResult run_worker(std::uint16_t port, const std::vector<WorkItem>& items,
                        std::size_t offset, std::size_t listeners,
                        Clock::time_point deadline) {
  WorkerResult result;
  ConnectionFan fan(port, listeners);
  if (!fan.ok()) {
    result.transport_errors = 1;
    return result;
  }
  result.latencies_us[0].reserve(1 << 16);
  std::size_t i = offset;
  while (Clock::now() < deadline) {
    const WorkItem& item = items[i % items.size()];
    const auto start = Clock::now();
    const std::string response = fan.exchange(i, item.request);
    const auto elapsed = Clock::now() - start;
    ++i;
    if (response.empty()) {
      ++result.transport_errors;
      break;
    }
    ++result.requests;
    result.latencies_us[item.endpoint].push_back(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
    if (!body_matches(response, item.expected_body)) ++result.divergences;
  }
  return result;
}

/// One open-loop client: arrivals land on a fixed grid (every `interval`
/// from `start`) whether or not the previous response has returned, and
/// each latency is measured from the SCHEDULED arrival time — a response
/// that sat behind a slow predecessor is charged its full queueing delay.
WorkerResult run_open_loop_worker(std::uint16_t port,
                                  const std::vector<WorkItem>& items,
                                  std::size_t offset, std::size_t listeners,
                                  Clock::time_point start,
                                  Clock::duration interval,
                                  Clock::time_point deadline,
                                  const ClockFn& now) {
  WorkerResult result;
  ConnectionFan fan(port, listeners);
  if (!fan.ok()) {
    result.transport_errors = 1;
    return result;
  }
  result.latencies_us[0].reserve(1 << 16);
  std::size_t i = offset;
  // Signed index: an unsigned rep would infect the duration arithmetic
  // and make `scheduled - now()` underflow when the worker runs behind.
  for (std::int64_t n = 0;; ++n) {
    const auto scheduled = start + interval * n;
    if (scheduled >= deadline) break;
    // Pace to the grid: if we are behind schedule the send happens
    // immediately and the lateness shows up in the measured latency.
    const auto ahead = scheduled - now();
    if (ahead > Clock::duration::zero()) std::this_thread::sleep_for(ahead);

    const WorkItem& item = items[i % items.size()];
    const std::string response = fan.exchange(i, item.request);
    const auto done = now();
    ++i;
    if (response.empty()) {
      ++result.transport_errors;
      break;
    }
    ++result.requests;
    result.latencies_us[item.endpoint].push_back(static_cast<std::uint32_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(done - scheduled)
            .count()));
    if (!body_matches(response, item.expected_body)) ++result.divergences;
  }
  return result;
}

double percentile(std::vector<std::uint32_t>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(p * static_cast<double>(sorted.size())));
  return static_cast<double>(sorted[index]);
}

/// Aggregate of one measured rung, whatever loop shape produced it.
struct RungStats {
  std::uint64_t requests = 0;
  std::uint64_t divergences = 0;
  std::uint64_t errors = 0;
  double wall_s = 0.0;
  double qps = 0.0;
  std::vector<std::uint32_t> latencies;  // sorted
  std::array<std::vector<std::uint32_t>, kEndpoints.size()> by_endpoint;
};

RungStats aggregate(std::vector<WorkerResult>& results, double wall_s) {
  RungStats stats;
  stats.wall_s = wall_s;
  for (WorkerResult& r : results) {
    stats.requests += r.requests;
    stats.divergences += r.divergences;
    stats.errors += r.transport_errors;
    for (std::size_t e = 0; e < kEndpoints.size(); ++e) {
      stats.latencies.insert(stats.latencies.end(), r.latencies_us[e].begin(),
                             r.latencies_us[e].end());
      stats.by_endpoint[e].insert(stats.by_endpoint[e].end(),
                                  r.latencies_us[e].begin(),
                                  r.latencies_us[e].end());
    }
  }
  std::sort(stats.latencies.begin(), stats.latencies.end());
  for (auto& series : stats.by_endpoint) {
    std::sort(series.begin(), series.end());
  }
  stats.qps =
      wall_s > 0.0 ? static_cast<double>(stats.requests) / wall_s : 0.0;
  return stats;
}

/// Runs one closed-loop rung: `threads` workers, `listeners` connections
/// each, for `seconds`.
RungStats run_closed_rung(std::uint16_t port, const std::vector<WorkItem>& items,
                          std::size_t threads, std::size_t listeners,
                          double seconds) {
  const auto deadline =
      Clock::now() +
      std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
  const auto started = Clock::now();
  std::vector<WorkerResult> results(threads);
  std::vector<std::thread> workers;
  workers.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      results[t] = run_worker(port, items, t * 17, listeners, deadline);
    });
  }
  for (auto& worker : workers) worker.join();
  return aggregate(results,
                   std::chrono::duration<double>(Clock::now() - started).count());
}

/// Post-ladder observability contract: the request id echoed in the
/// X-Ripki-Request-Id header must appear on the /accessz line the request
/// wrote, and /slowz must carry populated rings with span trees.
bool verify_observability(std::uint16_t port, const WorkItem& item) {
  const int fd = connect_to(port);
  if (fd < 0) {
    std::cerr << "serve_loadgen: observability check cannot connect\n";
    return false;
  }
  std::string carry;
  bool ok = true;
  send_all(fd, item.request);
  const std::string response = recv_response(fd, carry);
  static constexpr std::string_view kIdHeader = "X-Ripki-Request-Id: ";
  const auto at = response.find(kIdHeader);
  std::string id;
  if (at != std::string::npos) {
    id = response.substr(at + kIdHeader.size(), 16);
  }
  if (id.size() != 16) {
    std::cerr << "serve_loadgen: response carries no X-Ripki-Request-Id\n";
    ok = false;
  }
  send_all(fd, "GET /accessz HTTP/1.1\r\n\r\n");
  const std::string accessz = recv_response(fd, carry);
  if (ok && accessz.find("request_id=" + id) == std::string::npos) {
    std::cerr << "serve_loadgen: /accessz has no line for request " << id
              << '\n';
    ok = false;
  }
  send_all(fd, "GET /slowz HTTP/1.1\r\n\r\n");
  const std::string slowz = recv_response(fd, carry);
  if (slowz.find("\"request_id\":\"") == std::string::npos ||
      slowz.find("\"path\":\"serve.handle\"") == std::string::npos) {
    std::cerr << "serve_loadgen: /slowz rings are empty or span-less\n";
    ok = false;
  }
  ::close(fd);
  return ok;
}

/// Captures a 2-second folded-stack profile from /pprofz while a
/// background worker keeps the service busy, and writes it to `path`.
bool capture_pprofz(std::uint16_t port, const std::vector<WorkItem>& items,
                    const std::string& path) {
  // The capture samples CPU time, so the service must be doing work.
  std::thread load([port, &items] {
    run_worker(port, items, 0, 1,
               Clock::now() + std::chrono::milliseconds(3500));
  });
  std::string body;
  {
    const int fd = connect_to(port);
    if (fd >= 0) {
      std::string carry;
      send_all(fd, "GET /pprofz?seconds=2 HTTP/1.1\r\n\r\n");
      const std::string response = recv_response(fd, carry);
      const auto body_at = response.find("\r\n\r\n");
      if (body_at != std::string::npos) body = response.substr(body_at + 4);
      ::close(fd);
    }
  }
  load.join();
  std::ofstream out(path);
  out << body;
  const bool ok = out.good() && body.find(';') != std::string::npos;
  std::cerr << "serve_loadgen: /pprofz capture " << body.size()
            << " bytes -> " << path << (ok ? "" : " [EMPTY OR UNWRITABLE]")
            << '\n';
  return ok;
}

void print_endpoints(const RungStats& stats) {
  std::printf("\"endpoints\": {");
  for (std::size_t e = 0; e < kEndpoints.size(); ++e) {
    auto& series = const_cast<std::vector<std::uint32_t>&>(stats.by_endpoint[e]);
    std::printf("%s\"%s\": {\"requests\": %zu, \"p50_us\": %.0f, "
                "\"p95_us\": %.0f, \"p99_us\": %.0f}",
                e == 0 ? "" : ", ", kEndpoints[e], series.size(),
                percentile(series, 0.50), percentile(series, 0.95),
                percentile(series, 0.99));
  }
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ripki;

  web::EcosystemConfig config;
  config.domain_count = 4'000;
  double seconds = 2.0;
  std::size_t max_threads = exec::ThreadPool::hardware_threads();
  // Default shard cap keeps the 2-shard rung even on a 1-core box: the
  // scaling number is parity there, but the cross-shard byte oracle is
  // still worth running.
  std::size_t max_shards =
      std::max<std::size_t>(2, exec::ThreadPool::hardware_threads());
  std::size_t listeners = 1;
  double rate = 0.0;  // open-loop arrival rate; 0 = auto, <0 = skip
  double min_qps = 0.0;
  serve::PollerBackend backend = serve::PollerBackend::kDefault;
  std::string pprofz_path;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&](double fallback) {
      return i + 1 < argc ? std::strtod(argv[++i], nullptr) : fallback;
    };
    if (std::strcmp(argv[i], "--domains") == 0) {
      config.domain_count = static_cast<std::uint64_t>(next(4'000));
    } else if (std::strcmp(argv[i], "--seconds") == 0) {
      seconds = next(2.0);
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      max_threads = static_cast<std::size_t>(next(1));
    } else if (std::strcmp(argv[i], "--shards") == 0) {
      max_shards = static_cast<std::size_t>(next(1));
    } else if (std::strcmp(argv[i], "--listeners") == 0) {
      listeners = static_cast<std::size_t>(next(1));
    } else if (std::strcmp(argv[i], "--rate") == 0) {
      rate = next(0.0);
    } else if (std::strcmp(argv[i], "--min-qps") == 0) {
      min_qps = next(0.0);
    } else if (std::strcmp(argv[i], "--backend") == 0 && i + 1 < argc) {
      const std::string_view name = argv[++i];
      if (name == "poll") {
        backend = serve::PollerBackend::kPoll;
      } else if (name == "epoll") {
        backend = serve::PollerBackend::kEpoll;
      } else {
        std::cerr << "unknown backend: " << name << '\n';
        return 2;
      }
    } else if (std::strcmp(argv[i], "--pprofz") == 0 && i + 1 < argc) {
      pprofz_path = argv[++i];
    } else {
      std::cerr << "unknown flag: " << argv[i] << '\n';
      return 2;
    }
  }
  if (max_threads == 0) max_threads = 1;
  if (max_shards == 0) max_shards = 1;
  if (listeners == 0) listeners = 1;
  if (backend == serve::PollerBackend::kEpoll &&
      !serve::poller_backend_available(backend)) {
    std::cerr << "serve_loadgen: epoll backend unavailable on this platform\n";
    return 2;
  }

  std::cerr << "serve_loadgen: pipeline over " << config.domain_count
            << " domains...\n";
  const auto ecosystem = web::Ecosystem::generate(config);
  core::MeasurementPipeline pipeline(*ecosystem, core::PipelineConfig{});
  const core::Dataset dataset = pipeline.run();
  const auto snapshot =
      serve::Snapshot::build(dataset, pipeline.rib(),
                             pipeline.validation_report().vrps,
                             /*generation=*/1);

  // The production observability stack: metrics + span instrumentation
  // (what /slowz shows), request ids, and the CPU profiler behind
  // /pprofz. Handlers fan out over a small pool so a blocking /pprofz
  // capture cannot stall the event loops mid-measurement.
  obs::Registry registry;
  obs::SamplingProfiler profiler;
  exec::ThreadPool pool(2, &registry);

  // One service per shard count: the fleet topology is fixed at start().
  const auto make_service = [&](std::uint32_t shards) {
    serve::QueryServiceOptions options;
    options.http.max_connections = 256;
    options.http.shards = shards;
    options.http.backend = backend;
    options.registry = &registry;
    options.profiler = &profiler;
    options.pool = &pool;
    return std::make_unique<serve::QueryService>(std::move(options));
  };

  // Working set: 63 domain lookups + the summary, expected bytes
  // precomputed straight from the dataset (the oracle contract).
  std::vector<WorkItem> items;
  const std::size_t stride =
      std::max<std::size_t>(1, dataset.domains.size() / 63);
  for (std::size_t i = 0; i < dataset.domains.size() && items.size() < 63;
       i += stride) {
    const auto record = dataset.domains[i];
    items.push_back(WorkItem{
        "GET /v1/domain/" + std::string(record.name) + " HTTP/1.1\r\n\r\n",
        serve::Snapshot::render_domain_json(record, 1), /*endpoint=*/0});
  }
  items.push_back(WorkItem{"GET /v1/summary HTTP/1.1\r\n\r\n",
                           snapshot->summary_json(), /*endpoint=*/1});

  // Warms every reactor shard's cache so measured rungs serve hits (one
  // pass per shard covers both reuseport spreading and handoff).
  const auto warm = [&](serve::QueryService& service) {
    for (std::uint32_t s = 0; s < service.server().shard_count() + 1; ++s) {
      const int fd = connect_to(service.port());
      if (fd < 0) return false;
      std::string carry;
      for (const WorkItem& item : items) {
        send_all(fd, item.request);
        recv_response(fd, carry);
      }
      ::close(fd);
    }
    return true;
  };

  auto service = make_service(1);
  service->publish(snapshot);
  if (!service->start() || !warm(*service)) {
    std::cerr << "serve_loadgen: failed to start service\n";
    return 2;
  }
  const char* backend_name = service->server().backend_name();

  std::printf("{\"serve_loadgen\": {\"domains\": %llu, \"working_set\": %zu, "
              "\"seconds\": %.1f, \"backend\": \"%s\", \"listeners\": %zu, "
              "\"runs\": [",
              static_cast<unsigned long long>(config.domain_count),
              items.size(), seconds, backend_name, listeners);

  bool any_divergence = false;
  double best_qps = 0.0;

  // --- rung 1: the historical closed-loop thread ladder at one shard ---
  std::vector<std::size_t> thread_ladder{1, 4,
                                         exec::ThreadPool::hardware_threads()};
  std::sort(thread_ladder.begin(), thread_ladder.end());
  thread_ladder.erase(std::unique(thread_ladder.begin(), thread_ladder.end()),
                      thread_ladder.end());
  thread_ladder.erase(
      std::remove_if(thread_ladder.begin(), thread_ladder.end(),
                     [&](std::size_t t) { return t == 0 || t > max_threads; }),
      thread_ladder.end());
  if (thread_ladder.empty()) thread_ladder.push_back(1);

  bool first = true;
  for (const std::size_t threads : thread_ladder) {
    RungStats stats =
        run_closed_rung(service->port(), items, threads, 1, seconds);
    best_qps = std::max(best_qps, stats.qps);
    any_divergence = any_divergence || stats.divergences > 0;
    std::printf("%s{\"threads\": %zu, \"requests\": %llu, \"qps\": %.0f, "
                "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                "\"transport_errors\": %llu, \"cache_hit_rate\": %.4f, ",
                first ? "" : ", ", threads,
                static_cast<unsigned long long>(stats.requests), stats.qps,
                percentile(stats.latencies, 0.50),
                percentile(stats.latencies, 0.95),
                percentile(stats.latencies, 0.99),
                static_cast<unsigned long long>(stats.errors),
                service->cache_hit_rate());
    print_endpoints(stats);
    std::printf(", \"oracle_ok\": %s}",
                stats.divergences == 0 ? "true" : "false");
    first = false;
    std::cerr << "threads=" << threads << ": " << stats.requests
              << " requests, " << static_cast<std::uint64_t>(stats.qps)
              << " qps, p99 " << percentile(stats.latencies, 0.99) << " us"
              << (stats.divergences ? " [ORACLE DIVERGENCE]" : "") << '\n';
  }
  std::printf("], ");

  // --- rung 2: the shard ladder {1, 2, hardware} -----------------------
  std::vector<std::size_t> shard_ladder{1, 2,
                                        exec::ThreadPool::hardware_threads()};
  std::sort(shard_ladder.begin(), shard_ladder.end());
  shard_ladder.erase(std::unique(shard_ladder.begin(), shard_ladder.end()),
                     shard_ladder.end());
  shard_ladder.erase(
      std::remove_if(shard_ladder.begin(), shard_ladder.end(),
                     [&](std::size_t s) { return s == 0 || s > max_shards; }),
      shard_ladder.end());
  if (shard_ladder.empty()) shard_ladder.push_back(1);

  double best_shard_qps = 0.0;
  std::printf("\"shard_ladder\": {\"runs\": [");
  first = true;
  for (const std::size_t shards : shard_ladder) {
    service->stop();
    service = make_service(static_cast<std::uint32_t>(shards));
    service->publish(snapshot);
    if (!service->start() || !warm(*service)) {
      std::cerr << "serve_loadgen: failed to restart at " << shards
                << " shards\n";
      return 2;
    }
    // Enough client threads to saturate every shard, capped so the
    // 1-core CI box is not oversubscribed into noise.
    const std::size_t threads =
        std::max<std::size_t>(2, std::min<std::size_t>(shards, max_threads));
    RungStats stats =
        run_closed_rung(service->port(), items, threads, listeners, seconds);
    best_qps = std::max(best_qps, stats.qps);
    best_shard_qps = std::max(best_shard_qps, stats.qps);
    any_divergence = any_divergence || stats.divergences > 0;
    std::printf("%s{\"shards\": %zu, \"threads\": %zu, \"listeners\": %zu, "
                "\"accept_mode\": \"%s\", \"requests\": %llu, \"qps\": %.0f, "
                "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                "\"transport_errors\": %llu, \"cache_hit_rate\": %.4f, "
                "\"oracle_ok\": %s}",
                first ? "" : ", ", shards, threads, listeners,
                service->server().accept_mode(),
                static_cast<unsigned long long>(stats.requests), stats.qps,
                percentile(stats.latencies, 0.50),
                percentile(stats.latencies, 0.95),
                percentile(stats.latencies, 0.99),
                static_cast<unsigned long long>(stats.errors),
                service->cache_hit_rate(),
                stats.divergences == 0 ? "true" : "false");
    first = false;
    std::cerr << "shards=" << shards << ": " << stats.requests
              << " requests, " << static_cast<std::uint64_t>(stats.qps)
              << " qps, p99 " << percentile(stats.latencies, 0.99) << " us"
              << (stats.divergences ? " [ORACLE DIVERGENCE]" : "") << '\n';
  }
  std::printf("]}");

  // --- rung 3: open loop at a fixed arrival rate -----------------------
  // The service is still at the widest shard count from the ladder.
  if (rate >= 0.0) {
    const double target =
        rate > 0.0 ? rate : std::max(1000.0, best_shard_qps * 1.25);
    const std::size_t threads =
        std::max<std::size_t>(2, std::min<std::size_t>(
                                     exec::ThreadPool::hardware_threads(),
                                     max_threads));
    const auto interval = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(static_cast<double>(threads) / target));
    const auto deadline =
        Clock::now() +
        std::chrono::microseconds(static_cast<std::int64_t>(seconds * 1e6));
    const ClockFn now = [] { return Clock::now(); };
    const auto started = Clock::now();
    std::vector<WorkerResult> results(threads);
    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (std::size_t t = 0; t < threads; ++t) {
      // Stagger worker grids by interval/threads so aggregate arrivals
      // land evenly at the target rate.
      const auto start =
          started + interval * static_cast<std::int64_t>(t) /
                        static_cast<std::int64_t>(threads);
      workers.emplace_back([&, t, start] {
        results[t] = run_open_loop_worker(service->port(), items, t * 17,
                                          listeners, start, interval,
                                          deadline, now);
      });
    }
    for (auto& worker : workers) worker.join();
    RungStats stats = aggregate(
        results,
        std::chrono::duration<double>(Clock::now() - started).count());
    any_divergence = any_divergence || stats.divergences > 0;
    std::printf(", \"open_loop\": {\"rate\": %.0f, \"threads\": %zu, "
                "\"shards\": %u, \"requests\": %llu, \"achieved_qps\": %.0f, "
                "\"p50_us\": %.0f, \"p95_us\": %.0f, \"p99_us\": %.0f, "
                "\"p999_us\": %.0f, \"transport_errors\": %llu, "
                "\"oracle_ok\": %s}",
                target, threads, service->server().shard_count(),
                static_cast<unsigned long long>(stats.requests), stats.qps,
                percentile(stats.latencies, 0.50),
                percentile(stats.latencies, 0.95),
                percentile(stats.latencies, 0.99),
                percentile(stats.latencies, 0.999),
                static_cast<unsigned long long>(stats.errors),
                stats.divergences == 0 ? "true" : "false");
    std::cerr << "open-loop rate=" << static_cast<std::uint64_t>(target)
              << "/s: " << stats.requests << " requests, achieved "
              << static_cast<std::uint64_t>(stats.qps) << " qps, p99 "
              << percentile(stats.latencies, 0.99) << " us, p999 "
              << percentile(stats.latencies, 0.999) << " us"
              << (stats.divergences ? " [ORACLE DIVERGENCE]" : "") << '\n';
  }
  std::printf("}, \"host\": %s}\n", ripki::bench::host_json().c_str());

  bool observability_ok = verify_observability(service->port(), items[0]);
  if (!pprofz_path.empty()) {
    observability_ok = capture_pprofz(service->port(), items, pprofz_path) &&
                       observability_ok;
  }

  service->stop();

  if (any_divergence) {
    std::cerr << "serve_loadgen: FAILED — responses diverged from the "
                 "dataset-derived oracle\n";
    return 3;
  }
  if (min_qps > 0.0 && best_qps < min_qps) {
    std::cerr << "serve_loadgen: FAILED — best rung " << best_qps
              << " qps below required " << min_qps << '\n';
    return 4;
  }
  if (!observability_ok) {
    std::cerr << "serve_loadgen: FAILED — observability contract broken "
                 "(request ids, /slowz, or /pprofz)\n";
    return 5;
  }
  return 0;
}
