// serve_hot and serve_churn: serve::QueryService with `shards` epoll
// reactor shards on loopback, fed by one open-loop generator thread over
// `connections` keep-alive connections. Reactors run on CPU slots {0,1},
// the generator on slot 2, the main thread (the publisher) on slot 3.
//
//   serve_hot    63 /v1/domain requests plus /v1/summary: the response
//                cache answers ~all of them, isolating accept -> parse ->
//                cache -> write. Every body must equal the rendering of
//                the one published snapshot.
//   serve_churn  seeded requests uniform over every name (80% /v1/domain,
//                10% /v1/ip, 10% /v1/prefix) while the main thread
//                publishes a new generation every `publish_ms`, taken
//                from delta snapshots precomputed in set-up. Each body
//                must equal the rendering from the snapshot whose
//                generation it carries, and that generation must already
//                have been published.
//
// Latency is timed from each request's scheduled send time; the nominal
// phase gives p50/p99, and a fixed ladder of higher rates gives the
// highest rate whose p99 meets the limit without a growing backlog.
#include <sys/prctl.h>

#include <atomic>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "core/pipeline.hpp"
#include "delta/pipeline.hpp"
#include "layers.hpp"
#include "loadgen.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "serve_probe.hpp"
#include "util/prng.hpp"

namespace perfbench {

namespace {

using namespace ripki;

constexpr double kSettleSeconds = 0.5;
constexpr double kWindowSeconds = 0.1;

std::uint64_t fnv1a(std::string_view bytes) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// The generation a body is stamped with ({"generation":N,...}); 0 when
/// the body carries none.
std::uint64_t body_generation(std::string_view body) {
  constexpr std::string_view kPrefix = "{\"generation\":";
  if (body.substr(0, kPrefix.size()) != kPrefix) return 0;
  std::uint64_t generation = 0;
  for (std::size_t i = kPrefix.size(); i < body.size() && body[i] >= '0' && body[i] <= '9';
       ++i) {
    generation = generation * 10 + static_cast<std::uint64_t>(body[i] - '0');
  }
  return generation;
}

/// p99 of each 100 ms window of the schedule, median across windows: the
/// server's steady tail, robust to the host descheduling a virtual CPU for
/// a few milliseconds now and then (a whole-phase p99 reports those
/// stalls instead). Whole-phase p99 when the phase is shorter.
double windowed_p99(const OpenLoopGenerator::PhaseResult& rung) {
  const auto window = static_cast<std::size_t>(rung.rate * kWindowSeconds);
  const std::vector<double>& latency = rung.latency_us;
  if (window == 0 || latency.size() < window) return quantile(latency, 0.99);
  std::vector<double> p99s;
  for (std::size_t begin = 0; begin + window <= latency.size(); begin += window) {
    p99s.push_back(quantile(
        std::vector<double>(latency.begin() + static_cast<std::ptrdiff_t>(begin),
                            latency.begin() + static_cast<std::ptrdiff_t>(begin + window)),
        0.99));
  }
  return median(std::move(p99s));
}

/// The highest ladder rate whose p99 meets `limit_us` with no failure
/// and no growing backlog, refined by linear interpolation of p99 toward
/// the next (failing) rung. 0 when no rung passes.
double max_rate(std::span<const OpenLoopGenerator::PhaseResult> rungs,
                double limit_us, std::size_t connections) {
  std::vector<double> p99(rungs.size());
  int best = -1;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    p99[i] = windowed_p99(rungs[i]);
    // Little's law: a server keeping up holds about rate x latency
    // requests in flight; twice that at the limit means it fell behind.
    const double backlog_limit =
        2.0 * rungs[i].rate * limit_us / 1e6 + static_cast<double>(connections);
    if (p99[i] <= limit_us && rungs[i].failed == 0 &&
        static_cast<double>(rungs[i].outstanding_at_end) <= backlog_limit) {
      best = static_cast<int>(i);
    }
  }
  if (best < 0) return 0.0;
  const auto b = static_cast<std::size_t>(best);
  double rate = rungs[b].rate;
  if (b + 1 < rungs.size() && p99[b + 1] > limit_us && p99[b + 1] > p99[b]) {
    const double fraction = (limit_us - p99[b]) / (p99[b + 1] - p99[b]);
    rate += std::clamp(fraction, 0.0, 1.0) * (rungs[b + 1].rate - rungs[b].rate);
  }
  return rate;
}

}  // namespace

Result run_serve(const Config& config, Tracer& tracer) {
  Result result;
  const bool churn = config.workload == "serve_churn";
  double generate_ms = 0.0;
  const auto eco = generate_world(config, generate_ms);

  std::vector<std::shared_ptr<const serve::Snapshot>> snapshots;
  std::vector<Key> keys;
  std::vector<std::string> expected;  // serve_hot: per key, from the snapshot
  std::unique_ptr<serve::QueryService> service;
  std::unique_ptr<OpenLoopGenerator> generator;
  std::vector<double> build_ms;
  bool pinned = false;

  // Generator-thread state, read by the main thread only after join().
  std::atomic<std::uint64_t> published{0};
  struct Completion {
    std::uint32_t key = 0;
    std::uint64_t generation = 0;
    std::uint64_t hash = 0;
    std::size_t phase = 0;
    std::size_t sample = 0;
  };
  std::vector<Completion> completions;
  bool recording = false;
  bool stamp_unpublished = config.corrupt == Corrupt::kGeneration;
  std::string first_failure;

  const OpenLoopGenerator::CheckFn check =
      [&](std::uint32_t k, int status, std::string_view body, std::size_t phase,
          std::size_t sample) {
        const auto wrong = [&](std::string why) {
          if (first_failure.empty()) first_failure = std::move(why);
          return false;
        };
        if (status != 200) {
          return wrong("HTTP " + std::to_string(status) + " for " + request_line(keys[k]));
        }
        if (!churn) return body == expected[k] || wrong("body differs for " + request_line(keys[k]));
        std::uint64_t generation = body_generation(body);
        if (stamp_unpublished && recording) {
          stamp_unpublished = false;
          generation = published.load() + 1;
        }
        if (generation < snapshots.front()->generation() ||
            generation > published.load(std::memory_order_acquire)) {
          return wrong("response stamped with unpublished generation " +
                       std::to_string(generation));
        }
        if (recording) {
          completions.push_back(Completion{k, generation, fnv1a(body), phase, sample});
        }
        return true;
      };
  std::vector<std::uint32_t> order;
  const OpenLoopGenerator::NextFn next = [&](std::uint64_t n) {
    const std::uint32_t k = order[n % order.size()];
    return OpenLoopGenerator::Request{k, &keys[k].wire};
  };

  // Set-up: snapshot(s), server start (reactor threads inherit the
  // creating thread's CPU mask) and warm-up through the generator's own
  // connections.
  const double setup_s = median_setup_s(config.setup_reps, [&] {
    generator.reset();
    service.reset();
    snapshots.clear();
    unpin_current_thread();
    if (churn) {
      delta::DeltaConfig delta_config;
      delta_config.churn.seed = config.seed;
      delta_config.churn.domain_churn_fraction = config.churn_fraction;
      delta::IncrementalPipeline pipeline(*eco, delta_config);
      pipeline.init();
      keys = churn_keys(pipeline.dataset(), config.seed);
      snapshots.push_back(pipeline.snapshot());
      delta::TickGenerator ticks(delta_config.churn, pipeline.universe());
      // One generation per publish period, with slack for the drains.
      const auto generations =
          static_cast<std::size_t>(config.seconds * 1000.0 / config.publish_ms) + 4;
      while (snapshots.size() < generations) {
        pipeline.apply_tick(ticks.next());
        snapshots.push_back(pipeline.snapshot());
      }
    } else {
      core::PipelineConfig pipeline_config;
      pipeline_config.threads = config.threads;
      core::MeasurementPipeline pipeline(*eco, pipeline_config);
      const core::Dataset dataset = pipeline.run();
      const auto start = Clock::now();
      snapshots.push_back(serve::Snapshot::build(
          dataset, pipeline.rib(), pipeline.validation_report().vrps, 1));
      build_ms.push_back(ms_between(start, Clock::now()));
      keys = hot_keys(dataset);
      expected.clear();
      for (const Key& key : keys) expected.push_back(render(*snapshots.front(), key));
    }

    serve::QueryServiceOptions options;
    options.http.shards = config.shards;
    options.http.backend = serve::PollerBackend::kEpoll;
    // Round-robin hand-off spreads the generator's connections evenly
    // over the shards; SO_REUSEPORT hashing would vary run to run.
    options.http.accept_mode = serve::AcceptMode::kHandoff;
    service = std::make_unique<serve::QueryService>(std::move(options));
    published.store(snapshots.front()->generation());
    service->publish(snapshots.front());
    pinned = pin_current_thread({0, 1});
    const bool started = service->start();
    if (pinned) pin_current_thread({3});
    if (!started) return;
    generator = std::make_unique<OpenLoopGenerator>(service->port(), config.connections);
    order.resize(keys.size());
    for (std::uint32_t k = 0; k < keys.size(); ++k) order[k] = k;
    const double warm_requests =
        static_cast<double>(std::min<std::size_t>(keys.size(), 256) * config.connections);
    generator->run({{2000.0, warm_requests / 2000.0}}, next, check, tracer);
  });
  if (!generator || !generator->connected()) {
    result.fail(1, "query service did not start or accept connections");
    return result;
  }
  result.cpu_map = pinned ? "reactors:0,1 generator:2 publisher:3" : "unpinned";
  first_failure.clear();
  if (config.corrupt == Corrupt::kBody && !churn) {
    std::string& body = expected.front();
    body[body.size() / 2] ^= 0x01;
  }
  if (!churn) {
    util::Prng prng(config.seed);
    const auto permutation = prng.permutation(keys.size());
    order.assign(permutation.begin(), permutation.end());
  }
  for (std::size_t i = 0; i < snapshots.size(); ++i) {
    if (snapshots[i]->generation() != snapshots.front()->generation() + i) {
      result.fail(1, "precomputed generations are not consecutive");
      return result;
    }
  }

  // An untimed settle phase first: the generator thread and the reactors
  // start from idle, and their first wake-ups are not the steady state.
  std::vector<OpenLoopGenerator::Phase> phases = {
      {config.rate, kSettleSeconds}, {config.rate, config.seconds * config.nominal_share}};
  const double rung_s = config.seconds * (1.0 - config.nominal_share) /
                        static_cast<double>(std::max<std::size_t>(1, config.ladder.size()));
  for (const double multiple : config.ladder) phases.push_back({config.rate * multiple, rung_s});

  Tracer generator_tracer(config.trace);
  std::vector<OpenLoopGenerator::PhaseResult> rungs;
  std::atomic<bool> done{false};
  std::vector<double> publish_us;
  const std::uint64_t hits_before = service->cache_hits();
  const std::uint64_t misses_before = service->cache_misses();
  const std::uint64_t evictions_before = service->cache_evictions();
  if (churn) {
    // Sized up front: growing it would stall the generator mid-phase.
    double requests = 0.0;
    for (const auto& phase : phases) requests += phase.rate * phase.seconds;
    completions.reserve(static_cast<std::size_t>(requests));
  }
  recording = true;
  const double cpu_before = cpu_seconds();
  const auto wall_start = Clock::now();
  std::thread generator_thread([&] {
    if (pinned) pin_current_thread({2});
    // Default 50us timer slack would make every scheduled wake-up late.
    ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
    rungs = generator->run(phases, next, check, generator_tracer);
    done.store(true, std::memory_order_release);
  });
  if (churn) {
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::milli>(config.publish_ms));
    std::size_t index = 0;
    auto next_publish = Clock::now() + period;
    while (!done.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      if (Clock::now() < next_publish || index + 1 >= snapshots.size()) continue;
      ++index;
      // Announced before the swap: no response can carry it earlier.
      published.store(snapshots[index]->generation(), std::memory_order_release);
      const auto start = Clock::now();
      service->publish(snapshots[index]);
      publish_us.push_back(us_between(start, Clock::now()));
      next_publish += period;
    }
  }
  generator_thread.join();
  recording = false;
  result.wall_s = ms_between(wall_start, Clock::now()) / 1000.0;
  result.cpu_s = cpu_seconds() - cpu_before;
  tracer.absorb(generator_tracer);

  // serve_churn bodies, checked untimed against their own generation.
  bool corrupt_first = config.corrupt == Corrupt::kBody;
  for (const Completion& done_request : completions) {
    const serve::Snapshot& snapshot =
        *snapshots[done_request.generation - snapshots.front()->generation()];
    std::string body = render(snapshot, keys[done_request.key]);
    if (corrupt_first) {
      body[body.size() / 2] ^= 0x01;
      corrupt_first = false;
    }
    if (fnv1a(body) == done_request.hash) continue;
    auto& rung = rungs[done_request.phase];
    rung.latency_us[done_request.sample] = OpenLoopGenerator::kFailedLatencyUs;
    ++rung.failed;
    if (first_failure.empty()) {
      first_failure = "body differs from generation " +
                      std::to_string(done_request.generation) + " for " +
                      request_line(keys[done_request.key]);
    }
  }
  for (const auto& rung : rungs) {
    result.attempted += rung.issued;
    if (rung.failed != 0) result.fail(rung.failed, first_failure);
  }

  // rungs[0] is the settle phase; the nominal phase is the first rung.
  const std::span<const OpenLoopGenerator::PhaseResult> ladder(rungs.data() + 1,
                                                               rungs.size() - 1);
  const auto& nominal = ladder.front();
  const double p50_us = quantile(nominal.latency_us, 0.5);
  const double p99_us = windowed_p99(nominal);
  const double max_rps = max_rate(ladder, config.limit_us, config.connections);
  result.e2e("setup_s", generate_ms / 1000.0 + setup_s, "s");
  result.e2e("throughput_per_s", max_rps, "1/s");
  result.e2e("latency_p50_ms", p50_us / 1000.0, "ms");
  result.e2e("latency_tail_ms", p99_us / 1000.0, "ms");
  result.info("serve_p50_us", p50_us, "us");
  result.info("serve_p99_us", p99_us, "us");
  result.info("serve_p99_us_whole_phase", quantile(nominal.latency_us, 0.99), "us");
  result.info("serve_max_rps", max_rps, "1/s");
  result.info("serve_nominal_requests", static_cast<double>(nominal.issued), "count");
  for (const auto& rung : ladder) {
    const std::string rate = std::to_string(static_cast<long long>(rung.rate));
    result.info("serve_rung_" + rate + "_p99_us", windowed_p99(rung), "us");
  }
  result.info("loadgen_late_p99_us", quantile(nominal.late_us, 0.99), "us");
  if (!publish_us.empty()) {
    result.info("serve_publish_us_under_load", median(publish_us), "us");
  }
  if (!config.trace) {
    generator.reset();
    service->stop();
    unpin_current_thread();
    return result;
  }

  result.layer("web.generate_ms", generate_ms, "ms");
  replay_setup_stages(*eco, tracer, result);
  if (!build_ms.empty()) result.layer("serve.snapshot_build_ms", median(build_ms), "ms");
  const std::uint64_t hits = service->cache_hits() - hits_before;
  const std::uint64_t misses = service->cache_misses() - misses_before;
  result.layer("serve.cache_hit_ratio",
               static_cast<double>(hits) /
                   static_cast<double>(std::max<std::uint64_t>(1, hits + misses)),
               "ratio");
  result.layer("serve.cache_evictions",
               static_cast<double>(service->cache_evictions() - evictions_before), "count");
  result.layer("loadgen.late_p99_us", quantile(nominal.late_us, 0.99), "us");
  result.layer("exec.cpu_per_wall", result.cpu_s / result.wall_s, "ratio");

  generator.reset();
  const RequestPathProbe probe = probe_request_path(*service, keys, tracer, result);
  result.layer("serve.transport_us_p50", p50_us - probe.handle_p50_us, "us");
  result.layer("trace.overhead_pct", probe.overhead_pct, "%");
  probe_render(*service->snapshot(), keys, tracer, result);
  service->stop();
  unpin_current_thread();
  return result;
}

}  // namespace perfbench
