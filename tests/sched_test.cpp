// Scheduler X-ray telemetry: lane lifecycle and recording semantics,
// ring-wrap bounds, JSON/trace export shape, queue-depth sampling, and —
// against a real work-stealing pool under contention — the counter
// identities the ISSUE demands: own-pops + steals must sum to tasks
// executed, and idle-park intervals must never overlap run intervals on
// the same worker. The contention suites run under TSan in CI.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "obs/sched.hpp"
#include "obs/span.hpp"
#include "obs/trace.hpp"
#include "web/ecosystem.hpp"

namespace ripki {
namespace {

using obs::SchedTelemetry;
using obs::SweepStage;

TEST(SchedTelemetryTest, BeginRunSizesLanesPlusExternal) {
  SchedTelemetry sched;
  EXPECT_EQ(sched.lanes(), 0u);
  sched.begin_run(4);
  EXPECT_EQ(sched.lanes(), 5u);
  EXPECT_EQ(sched.external_lane(), 4u);
  sched.begin_run(0);  // serial window: only the external lane
  EXPECT_EQ(sched.lanes(), 1u);
  EXPECT_EQ(sched.external_lane(), 0u);
}

TEST(SchedTelemetryTest, RecordersAreNoOpsWithoutAttachedLane) {
  SchedTelemetry sched;
  sched.begin_run(2);
  ASSERT_FALSE(sched.attached());
  sched.on_own_pop();
  sched.on_task_run(0, 100);
  sched.on_idle(100, 200);
  sched.on_steal(true, 200, 210);
  sched.on_stage(SweepStage::kDns, 0, 50);
  for (const auto& lane : sched.snapshot().lanes) {
    EXPECT_EQ(lane.tasks, 0u);
    EXPECT_EQ(lane.steals, 0u);
    EXPECT_TRUE(lane.events.empty());
  }
}

TEST(SchedTelemetryTest, AttachedRecordingAccumulatesOnThatLane) {
  SchedTelemetry sched;
  sched.begin_run(2);
  sched.attach_lane(1);
  ASSERT_TRUE(sched.attached());
  sched.on_own_pop();
  sched.on_task_run(10, 110);
  sched.on_steal(true, 120, 130);
  sched.on_task_run(130, 160);
  sched.on_idle(160, 260);
  sched.on_stage(SweepStage::kValidation, 20, 70);
  sched.detach_lane();
  EXPECT_FALSE(sched.attached());

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 3u);
  const auto& lane = snap.lanes[1];
  EXPECT_EQ(lane.tasks, 2u);
  EXPECT_EQ(lane.own_pops, 1u);
  EXPECT_EQ(lane.steals, 1u);
  EXPECT_EQ(lane.run_ns, (100u + 30u) * 1000u);
  EXPECT_EQ(lane.idle_ns, 100u * 1000u);
  EXPECT_EQ(lane.stage_ns[static_cast<std::size_t>(SweepStage::kValidation)],
            50u * 1000u);
  EXPECT_EQ(lane.last_run_end_us, 160u);
  EXPECT_EQ(lane.events.size(), 5u);  // 2 runs + steal + idle + stage
  // Lanes 0 and 2 stayed untouched.
  EXPECT_EQ(snap.lanes[0].tasks, 0u);
  EXPECT_EQ(snap.lanes[2].tasks, 0u);
}

TEST(SchedTelemetryTest, DetachedThreadStopsRecording) {
  SchedTelemetry sched;
  sched.begin_run(1);
  sched.attach_lane(0);
  sched.on_task_run(0, 10);
  sched.detach_lane();
  sched.on_task_run(20, 30);  // must not land anywhere
  EXPECT_EQ(sched.snapshot().lanes[0].tasks, 1u);
}

TEST(SchedTelemetryTest, RingWrapKeepsNewestAndCountsDrops) {
  SchedTelemetry::Options options;
  options.ring_capacity = 4;
  SchedTelemetry sched(nullptr, options);
  sched.begin_run(0);
  sched.attach_lane(sched.external_lane());
  for (std::uint64_t i = 0; i < 6; ++i) {
    sched.on_task_run(i * 10, i * 10 + 5);
  }
  sched.detach_lane();
  const auto snap = sched.snapshot();
  const auto& lane = snap.lanes[0];
  EXPECT_EQ(lane.tasks, 6u);
  EXPECT_EQ(lane.events_dropped, 2u);
  ASSERT_EQ(lane.events.size(), 4u);
  // Oldest two were overwritten; the survivors are chronological.
  EXPECT_EQ(lane.events.front().begin_us, 20u);
  EXPECT_EQ(lane.events.back().begin_us, 50u);
  for (std::size_t i = 1; i < lane.events.size(); ++i) {
    EXPECT_GE(lane.events[i].begin_us, lane.events[i - 1].begin_us);
  }
}

TEST(SchedTelemetryTest, BeginRunClearsPreviousWindow) {
  SchedTelemetry sched;
  sched.begin_run(1);
  sched.attach_lane(0);
  sched.on_task_run(0, 10);
  sched.detach_lane();
  sched.begin_run(1);
  EXPECT_EQ(sched.snapshot().lanes[0].tasks, 0u);
}

TEST(SchedTelemetryTest, StageSpanChargesOnlyAttachedThreads) {
  SchedTelemetry sched;
  sched.begin_run(0);
  {
    // Not attached: the span must be inert.
    obs::Span span(&sched, SweepStage::kDns);
  }
  EXPECT_EQ(sched.snapshot()
                .lanes[0]
                .stage_ns[static_cast<std::size_t>(SweepStage::kDns)],
            0u);
  {
    obs::LaneScope lane(&sched, sched.external_lane());
    obs::Span span(&sched, SweepStage::kCovering);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto snap = sched.snapshot();
  const auto& lane = snap.lanes[0];
  EXPECT_GT(lane.stage_ns[static_cast<std::size_t>(SweepStage::kCovering)],
            0u);
  ASSERT_EQ(lane.events.size(), 1u);
  EXPECT_EQ(lane.events[0].kind, SchedTelemetry::EventKind::kStage);
  EXPECT_EQ(lane.events[0].stage, SweepStage::kCovering);
}

TEST(SchedTelemetryTest, StageSpanStopIsIdempotent) {
  SchedTelemetry sched;
  sched.begin_run(0);
  obs::LaneScope lane(&sched, 0);
  obs::Span span(&sched, SweepStage::kEmit);
  span.stop();
  span.stop();  // second stop and the destructor must not double-charge
  EXPECT_EQ(sched.snapshot().lanes[0].events.size(), 1u);
}

TEST(SchedTelemetryTest, OneStageSpanFeedsHistogramTracerAndLane) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched;
  sched.begin_run(0);
  {
    obs::LaneScope lane(&sched, sched.external_lane());
    obs::Span span(&registry, "stage3.prefix_origin", &sched,
                   SweepStage::kCovering);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.set_tracer(nullptr);

  const obs::Histogram& histogram =
      registry.histogram("ripki.trace.stage3.prefix_origin");
  ASSERT_EQ(histogram.count(), 1u);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(obs::balance_events(events).size(), 2u);
  EXPECT_EQ(events[0].phase, obs::TraceEvent::Phase::kBegin);
  EXPECT_EQ(events[1].phase, obs::TraceEvent::Phase::kEnd);
  EXPECT_EQ(events[0].name, "stage3.prefix_origin");

  const auto snap = sched.snapshot();
  const auto& lane = snap.lanes[0];
  ASSERT_EQ(lane.events.size(), 1u);
  EXPECT_EQ(lane.events[0].kind, SchedTelemetry::EventKind::kStage);
  EXPECT_EQ(lane.events[0].stage, SweepStage::kCovering);
  // One timing: the lane interval (whole µs on the sched epoch) and the
  // histogram sample (ns / 1000) differ only by truncation.
  const double lane_us =
      static_cast<double>(lane.events[0].end_us - lane.events[0].begin_us);
  EXPECT_NEAR(lane_us, histogram.sum(), 1.0);
}

TEST(SchedTelemetryTest, RegistryGetsHistogramsAndHelp) {
  obs::Registry registry;
  SchedTelemetry sched(&registry);
  sched.begin_run(1);
  sched.attach_lane(0);
  sched.on_steal(true, 0, 7);
  sched.on_steal(false, 10, 12);  // failed scans don't observe latency
  sched.on_task_run(20, 120);
  sched.detach_lane();
  EXPECT_EQ(registry.histogram("ripki.exec.steal_latency_us").count(), 1u);
  EXPECT_EQ(registry.histogram("ripki.exec.task_run_us").count(), 1u);
  for (const auto& snap : registry.collect()) {
    EXPECT_FALSE(snap.help.empty()) << snap.name;
  }
}

TEST(SchedTelemetryTest, RenderJsonCarriesTheXrayFields) {
  SchedTelemetry sched;
  sched.begin_run(2);
  sched.attach_lane(0);
  sched.on_own_pop();
  sched.on_task_run(0, 1000);
  sched.on_steal(true, 1000, 1010);
  sched.on_task_run(1010, 1500);
  sched.on_stage(SweepStage::kDns, 100, 600);
  sched.detach_lane();
  const std::string json = sched.render_json();
  for (const char* field :
       {"\"schedz\"", "\"workers\":2", "\"utilization_pct\"",
        "\"steal_ratio\"", "\"idle_tail_ms\"", "\"stage_ms\"", "\"dns\"",
        "\"covering\"", "\"validation\"", "\"emit\"", "\"lanes\"",
        "\"external\":true", "\"queue_depth\"", "\"own_pops\"",
        "\"events_dropped\""}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << field << " missing from " << json;
  }
  // Two tasks, one stolen.
  EXPECT_NE(json.find("\"tasks\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"steal_ratio\":0.5000"), std::string::npos) << json;
}

TEST(SchedTelemetryTest, ChromeTraceNamesWorkerTracks) {
  SchedTelemetry sched;
  sched.begin_run(1);
  sched.attach_lane(0);
  sched.on_task_run(5, 25);
  sched.on_stage(SweepStage::kValidation, 10, 20);
  sched.detach_lane();
  const std::string trace = obs::combined_trace_json(nullptr, &sched);
  EXPECT_NE(trace.find("\"worker-0\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"external\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ripki-sched\""), std::string::npos);
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"validation\""), std::string::npos);
  EXPECT_NE(trace.find("\"pid\":2"), std::string::npos);
}

TEST(SchedTelemetryTest, CombinedTraceMergesTracerAndScheduler) {
  obs::EventTracer tracer;
  tracer.begin("pipeline.run", std::chrono::steady_clock::now());
  tracer.end("pipeline.run", std::chrono::steady_clock::now());

  SchedTelemetry sched;
  sched.begin_run(1);
  sched.attach_lane(0);
  sched.on_task_run(0, 50);
  sched.detach_lane();

  const std::string both = obs::combined_trace_json(&tracer, &sched);
  EXPECT_NE(both.find("\"pid\":1"), std::string::npos) << both;
  EXPECT_NE(both.find("\"pid\":2"), std::string::npos) << both;
  EXPECT_NE(both.find("pipeline.run"), std::string::npos);
  EXPECT_NE(both.find("\"worker-0\""), std::string::npos);

  // Either source may be absent.
  const std::string sched_only = obs::combined_trace_json(nullptr, &sched);
  EXPECT_EQ(sched_only.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(sched_only.find("\"pid\":2"), std::string::npos);
  const std::string tracer_only = obs::combined_trace_json(&tracer, nullptr);
  EXPECT_NE(tracer_only.find("\"pid\":1"), std::string::npos);
  const std::string neither = obs::combined_trace_json(nullptr, nullptr);
  EXPECT_NE(neither.find("\"traceEvents\":[]"), std::string::npos);
}

TEST(SchedTelemetryTest, QueueSamplerRecordsPerWorkerSeries) {
  SchedTelemetry::Options options;
  options.queue_sample_period_us = 200;
  SchedTelemetry sched(nullptr, options);
  sched.begin_run(2);
  sched.start_queue_sampler([] { return std::vector<std::size_t>{3, 1}; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (sched.queue_depth_ring().ticks() < 3 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  sched.stop_queue_sampler();
  EXPECT_GE(sched.queue_depth_ring().ticks(), 3u);
  const std::string json = sched.queue_depth_ring().render_json();
  EXPECT_NE(json.find("ripki.exec.queue_depth.worker0"), std::string::npos);
  EXPECT_NE(json.find("ripki.exec.queue_depth.worker1"), std::string::npos);
  EXPECT_NE(json.find("ripki.exec.queue_depth.total"), std::string::npos);
  // Restarting replaces the sampler; stopping twice is safe.
  sched.start_queue_sampler([] { return std::vector<std::size_t>{0, 0}; });
  sched.stop_queue_sampler();
  sched.stop_queue_sampler();
}

// --- against a real pool ----------------------------------------------------

TEST(SchedPoolTest, PoolConstructorOpensTheRunWindow) {
  SchedTelemetry sched;
  exec::ThreadPool pool(3, nullptr, &sched);
  EXPECT_EQ(sched.lanes(), 4u);
  EXPECT_EQ(sched.external_lane(), 3u);
}

TEST(SchedPoolTest, StealsPlusOwnPopsSumToTasksExecuted) {
  SchedTelemetry sched;
  constexpr int kTasks = 2000;
  std::atomic<int> count{0};
  static std::atomic<int> benchmark_sink{0};
  {
    exec::ThreadPool pool(4, nullptr, &sched);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] {
        // A little work so runs have measurable length and steals happen.
        int spin = 0;
        for (int j = 0; j < 100; ++j) spin += j;
        benchmark_sink.fetch_add(spin, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    // Destructor drains and joins: every task has run and every worker
    // has detached when the snapshot below is taken.
  }
  ASSERT_EQ(count.load(), kTasks);

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 5u);
  std::uint64_t tasks = 0, own_pops = 0, steals = 0;
  for (const auto& lane : snap.lanes) {
    // The identity must hold per lane, not just in aggregate.
    EXPECT_EQ(lane.tasks, lane.own_pops + lane.steals)
        << "lane " << lane.lane;
    tasks += lane.tasks;
    own_pops += lane.own_pops;
    steals += lane.steals;
  }
  EXPECT_EQ(tasks, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(own_pops + steals, static_cast<std::uint64_t>(kTasks));
  EXPECT_EQ(snap.lanes.back().tasks, 0u);  // external lane saw no pool task
}

TEST(SchedPoolTest, StolenTasksMatchPoolCounter) {
  SchedTelemetry sched;
  std::uint64_t pool_stolen = 0;
  {
    exec::ThreadPool pool(4, nullptr, &sched);
    std::atomic<int> count{0};
    for (int i = 0; i < 1000; ++i) {
      pool.submit([&count] { count.fetch_add(1); });
    }
    while (pool.tasks_executed() < 1000) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    pool_stolen = pool.tasks_stolen();
  }
  std::uint64_t lane_steals = 0;
  for (const auto& lane : sched.snapshot().lanes) lane_steals += lane.steals;
  EXPECT_EQ(lane_steals, pool_stolen);
}

TEST(SchedPoolTest, IdleParkIntervalsNeverOverlapRunIntervals) {
  SchedTelemetry sched;
  {
    exec::ThreadPool pool(4, nullptr, &sched);
    std::atomic<int> count{0};
    // Bursts with gaps force parks between runs on every worker.
    for (int burst = 0; burst < 10; ++burst) {
      for (int i = 0; i < 50; ++i) {
        pool.submit([&count] { count.fetch_add(1); });
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    while (count.load() < 500) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  bool saw_idle = false;
  for (const auto& lane : sched.snapshot().lanes) {
    // Run and idle events are recorded by the lane's one owner thread, so
    // they arrive chronologically; consecutive intervals must not overlap.
    const SchedTelemetry::Event* previous = nullptr;
    for (const auto& event : lane.events) {
      if (event.kind != SchedTelemetry::EventKind::kRun &&
          event.kind != SchedTelemetry::EventKind::kIdle) {
        continue;
      }
      EXPECT_LE(event.begin_us, event.end_us);
      if (previous != nullptr) {
        EXPECT_GE(event.begin_us, previous->end_us)
            << "lane " << lane.lane << ": "
            << (event.kind == SchedTelemetry::EventKind::kRun ? "run"
                                                              : "idle")
            << " [" << event.begin_us << ", " << event.end_us
            << ") overlaps previous interval ending at " << previous->end_us;
      }
      if (event.kind == SchedTelemetry::EventKind::kIdle) saw_idle = true;
      previous = &event;
    }
  }
  EXPECT_TRUE(saw_idle) << "bursty submission should have parked workers";
}

TEST(SchedPoolTest, QueueDepthsTrackSubmittedBacklog) {
  SchedTelemetry sched;
  exec::ThreadPool pool(2, nullptr, &sched);
  EXPECT_EQ(pool.queue_depths().size(), 2u);

  std::atomic<bool> release{false};
  std::atomic<int> done{0};
  constexpr int kTasks = 40;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&release, &done] {
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      done.fetch_add(1, std::memory_order_relaxed);
    });
  }
  // Two tasks occupy the workers; the rest must be visible as queue depth.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  std::size_t backlog = 0;
  while (std::chrono::steady_clock::now() < deadline) {
    backlog = 0;
    for (const std::size_t depth : pool.queue_depths()) backlog += depth;
    if (backlog >= kTasks - 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_GE(backlog, static_cast<std::size_t>(kTasks - 2));
  release.store(true, std::memory_order_release);
  while (done.load() < kTasks) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::size_t after = 0;
  for (const std::size_t depth : pool.queue_depths()) after += depth;
  EXPECT_EQ(after, 0u);
}

// --- end to end through the pipeline ----------------------------------------

class SchedPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    web::EcosystemConfig config;
    config.domain_count = 400;
    config.isp_count = 60;
    config.hoster_count = 20;
    config.enterprise_count = 60;
    config.transit_count = 10;
    eco_ = web::Ecosystem::generate(config).release();
  }
  static void TearDownTestSuite() {
    delete eco_;
    eco_ = nullptr;
  }
  static web::Ecosystem* eco_;
};

web::Ecosystem* SchedPipelineTest::eco_ = nullptr;

TEST_F(SchedPipelineTest, ParallelSweepAttributesAllFourStages) {
  SchedTelemetry sched;
  core::PipelineConfig config;
  config.threads = 2;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  pipeline.run();

  // Requested threads clamp to hardware concurrency; one lane per worker
  // the sweep actually ran with, plus the external lane.
  const std::size_t workers = pipeline.effective_threads();
  ASSERT_GE(workers, 1u);

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), workers + 1);
  std::array<std::uint64_t, obs::kSweepStageCount> stage_ns{};
  std::uint64_t tasks = 0;
  for (const auto& lane : snap.lanes) {
    tasks += lane.tasks;
    for (std::size_t s = 0; s < obs::kSweepStageCount; ++s) {
      stage_ns[s] += lane.stage_ns[s];
    }
  }
  EXPECT_GT(tasks, 0u);
  for (std::size_t s = 0; s < obs::kSweepStageCount; ++s) {
    EXPECT_GT(stage_ns[s], 0u)
        << "stage " << obs::sweep_stage_name(static_cast<SweepStage>(s))
        << " never attributed";
  }
  // Worker lanes did the attribution; queue sampling ticked.
  std::uint64_t worker_stage1 = 0;
  for (std::size_t w = 0; w < workers; ++w) {
    worker_stage1 += snap.lanes[w].stage_ns[0];
  }
  EXPECT_GT(worker_stage1, 0u);
  EXPECT_EQ(snap.lanes.back().tasks, 0u);
}

TEST_F(SchedPipelineTest, SerialSweepChargesTheExternalLane) {
  SchedTelemetry sched;
  core::PipelineConfig config;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  pipeline.run();

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 1u);
  const auto& lane = snap.lanes[0];
  EXPECT_TRUE(lane.external);
  for (std::size_t s = 0; s < obs::kSweepStageCount; ++s) {
    EXPECT_GT(lane.stage_ns[s], 0u)
        << obs::sweep_stage_name(static_cast<SweepStage>(s));
  }
  EXPECT_EQ(lane.tasks, 0u);  // no pool ran
}

TEST_F(SchedPipelineTest, StageSpansTimeEachStageOnce) {
  obs::Registry registry;
  SchedTelemetry sched;
  core::PipelineConfig config;
  config.registry = &registry;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  const std::uint64_t domains = pipeline.run().domains.size();
  ASSERT_EQ(domains, 400u);

  // Serial run: every lane event is a stage slice on the external lane,
  // and at most 8 per domain fit the 4,096-slot ring without wrapping.
  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 1u);
  const auto& lane = snap.lanes[0];
  EXPECT_EQ(lane.events_dropped, 0u);
  std::array<std::uint64_t, obs::kSweepStageCount> lane_events{};
  for (const auto& event : lane.events) {
    ASSERT_EQ(event.kind, SchedTelemetry::EventKind::kStage);
    ++lane_events[static_cast<std::size_t>(event.stage)];
  }

  std::map<std::string, std::uint64_t> samples;
  for (const auto& metric : registry.collect()) {
    if (metric.kind != obs::MetricSnapshot::Kind::kHistogram) continue;
    samples[metric.name] = metric.count;
    // stage2.dns is the one DNS timer; the resolver adds no child span.
    EXPECT_EQ(metric.name.find("dns.resolve"), std::string::npos)
        << metric.name;
  }
  const std::string sweep = "ripki.trace.pipeline.run.sweep.";
  const auto lane_count = [&](SweepStage stage) {
    return lane_events[static_cast<std::size_t>(stage)];
  };
  ASSERT_GT(samples[sweep + "stage2.dns"], 0u);
  // Each stage span feeds its histogram and its lane from one timing; the
  // DNS lane also holds one lane-only DNSKEY probe per domain.
  EXPECT_EQ(lane_count(SweepStage::kDns),
            samples[sweep + "stage2.dns"] + domains);
  EXPECT_EQ(lane_count(SweepStage::kCovering),
            samples[sweep + "stage3.prefix_origin"]);
  EXPECT_EQ(lane_count(SweepStage::kValidation),
            samples[sweep + "stage4.origin_validation"]);
  EXPECT_EQ(lane_count(SweepStage::kEmit), domains);
}

TEST_F(SchedPipelineTest, InstrumentedRunStaysIdenticalToUninstrumented) {
  core::PipelineConfig plain;
  plain.threads = 2;
  core::MeasurementPipeline base(*eco_, plain);
  const core::Dataset expected = base.run();

  SchedTelemetry sched;
  core::PipelineConfig config;
  config.threads = 2;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  const core::Dataset actual = pipeline.run();
  EXPECT_TRUE(actual == expected);
}

}  // namespace
}  // namespace ripki
