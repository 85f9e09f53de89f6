// Scheduler X-ray telemetry: lane lifecycle and tally semantics, the one
// timeline (each interval recorded once, into the tracer of the registry
// the telemetry was built with, on the lane's named track), JSON export
// shape, and — against a real pool under contention — the counter
// identities: the lanes' tasks must sum to the pool's tasks executed, and
// idle-park intervals must never overlap run intervals on the same
// worker. The contention suites run under TSan in CI.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
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
using Clock = std::chrono::steady_clock;

/// `us` microseconds after `origin`.
SchedTelemetry::TimePoint at(SchedTelemetry::TimePoint origin,
                             std::uint64_t us) {
  return origin + std::chrono::microseconds(us);
}

std::size_t index_of(SweepStage stage) {
  return static_cast<std::size_t>(stage);
}

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
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  sched.begin_run(2);
  ASSERT_FALSE(sched.attached());
  const auto t0 = Clock::now();
  sched.on_task_run(at(t0, 0), at(t0, 100));
  sched.on_idle(at(t0, 100), at(t0, 200));
  sched.on_stage(SweepStage::kDns, 50'000);
  registry.set_tracer(nullptr);
  for (const auto& lane : sched.snapshot().lanes) {
    EXPECT_EQ(lane.tasks, 0u);
    EXPECT_EQ(lane.run_ns, 0u);
    EXPECT_EQ(lane.idle_ns, 0u);
    EXPECT_EQ(lane.stage_ns[index_of(SweepStage::kDns)], 0u);
  }
  EXPECT_EQ(tracer.recorded(), 0u);
}

TEST(SchedTelemetryTest, AttachedRecordingAccumulatesOnThatLane) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  const auto before = Clock::now();
  SchedTelemetry sched(&registry);
  sched.begin_run(2);
  const auto t0 = Clock::now();
  sched.attach_lane(1);
  ASSERT_TRUE(sched.attached());
  sched.on_task_run(at(t0, 10), at(t0, 110));
  sched.on_task_run(at(t0, 130), at(t0, 160));
  sched.on_idle(at(t0, 160), at(t0, 260));
  sched.on_stage(SweepStage::kValidation, 50'000);
  sched.detach_lane();
  EXPECT_FALSE(sched.attached());
  registry.set_tracer(nullptr);

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 3u);
  const auto& lane = snap.lanes[1];
  EXPECT_EQ(lane.tasks, 2u);
  EXPECT_EQ(lane.run_ns, (100u + 30u) * 1000u);
  EXPECT_EQ(lane.idle_ns, 100u * 1000u);
  EXPECT_EQ(lane.stage_ns[index_of(SweepStage::kValidation)], 50u * 1000u);
  // The second task's end, on the telemetry's own clock.
  const auto offset_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(t0 - before)
          .count());
  EXPECT_GE(lane.last_run_end_us, 160u);
  EXPECT_LE(lane.last_run_end_us, 161u + offset_us);
  // Lanes 0 and 2 stayed untouched.
  EXPECT_EQ(snap.lanes[0].tasks, 0u);
  EXPECT_EQ(snap.lanes[2].tasks, 0u);

  // Each interval is one event on the lane's track; the stage tally
  // records none (its span records its own).
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].name, "run");
  EXPECT_EQ(events[1].name, "run");
  EXPECT_EQ(events[2].name, "idle");
  EXPECT_EQ(events[0].dur_us, 100u);
  EXPECT_EQ(events[1].dur_us, 30u);
  EXPECT_EQ(events[2].dur_us, 100u);
  const auto names = tracer.track_names();
  for (const auto& event : events) {
    ASSERT_LT(event.tid, names.size());
    EXPECT_EQ(names[event.tid], "worker-1");
  }
}

TEST(SchedTelemetryTest, DetachedThreadStopsRecording) {
  SchedTelemetry sched;
  sched.begin_run(1);
  const auto t0 = Clock::now();
  sched.attach_lane(0);
  sched.on_task_run(at(t0, 0), at(t0, 10));
  sched.detach_lane();
  sched.on_task_run(at(t0, 20), at(t0, 30));  // must not land anywhere
  EXPECT_EQ(sched.snapshot().lanes[0].tasks, 1u);
}

TEST(SchedTelemetryTest, BeginRunClearsPreviousWindow) {
  SchedTelemetry sched;
  sched.begin_run(1);
  const auto t0 = Clock::now();
  sched.attach_lane(0);
  sched.on_task_run(at(t0, 0), at(t0, 10));
  sched.detach_lane();
  sched.begin_run(1);
  EXPECT_EQ(sched.snapshot().lanes[0].tasks, 0u);
}

TEST(SchedTelemetryTest, StageSpanChargesOnlyAttachedThreads) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  sched.begin_run(0);
  {
    // Not attached: the span must be inert.
    obs::Span span(&sched, SweepStage::kDns);
  }
  EXPECT_EQ(sched.snapshot().lanes[0].stage_ns[index_of(SweepStage::kDns)],
            0u);
  EXPECT_EQ(tracer.recorded(), 0u);
  {
    obs::LaneScope lane(&sched, sched.external_lane());
    obs::Span span(&sched, SweepStage::kCovering);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  registry.set_tracer(nullptr);
  const auto snap = sched.snapshot();
  EXPECT_GT(snap.lanes[0].stage_ns[index_of(SweepStage::kCovering)], 0u);
  // A lane-only span has no path: it traces under its stage's name.
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "covering");
  EXPECT_EQ(tracer.track_names().at(events[0].tid), "external");
}

TEST(SchedTelemetryTest, StageSpanStopIsIdempotent) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  sched.begin_run(0);
  obs::LaneScope lane(&sched, 0);
  obs::Span span(&sched, SweepStage::kEmit);
  span.stop();
  const std::uint64_t charged =
      sched.snapshot().lanes[0].stage_ns[index_of(SweepStage::kEmit)];
  span.stop();  // second stop and the destructor must not double-charge
  EXPECT_EQ(sched.snapshot().lanes[0].stage_ns[index_of(SweepStage::kEmit)],
            charged);
  EXPECT_EQ(tracer.recorded(), 1u);
  registry.set_tracer(nullptr);
}

TEST(SchedTelemetryTest, OneStageSpanFeedsHistogramTracerAndLane) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
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

  // Recorded once, under the span's path, on the lane's track; the lane
  // only adds the interval to its tally.
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].name, "stage3.prefix_origin");
  EXPECT_EQ(tracer.track_names().at(events[0].tid), "external");

  const auto snap = sched.snapshot();
  const std::uint64_t lane_ns =
      snap.lanes[0].stage_ns[index_of(SweepStage::kCovering)];
  // One timing: the histogram sample is the lane's ns / 1000, and the
  // event's whole-µs ends differ from it by less than a microsecond.
  EXPECT_NEAR(static_cast<double>(lane_ns) / 1000.0, histogram.sum(), 1e-6);
  EXPECT_NEAR(static_cast<double>(events[0].dur_us),
              static_cast<double>(lane_ns) / 1000.0, 1.0);
}

TEST(SchedTelemetryTest, RegistryGetsHistogramsAndHelp) {
  obs::Registry registry;
  SchedTelemetry sched(&registry);
  sched.begin_run(1);
  const auto t0 = Clock::now();
  sched.attach_lane(0);
  sched.on_task_run(at(t0, 20), at(t0, 120));
  sched.detach_lane();
  EXPECT_EQ(registry.histogram("ripki.exec.task_run_us").count(), 1u);
  EXPECT_DOUBLE_EQ(registry.histogram("ripki.exec.task_run_us").sum(), 100.0);
  for (const auto& snap : registry.collect()) {
    EXPECT_FALSE(snap.help.empty()) << snap.name;
  }
}

TEST(SchedTelemetryTest, RenderJsonCarriesTheXrayFields) {
  SchedTelemetry sched;
  sched.begin_run(2);
  const auto t0 = Clock::now();
  sched.attach_lane(0);
  sched.on_task_run(at(t0, 0), at(t0, 1000));
  sched.on_task_run(at(t0, 1010), at(t0, 1500));
  sched.on_stage(SweepStage::kDns, 500'000);
  sched.detach_lane();
  const std::string json = sched.render_json();
  for (const char* field :
       {"\"schedz\"", "\"workers\":2", "\"utilization_pct\"",
        "\"idle_tail_ms\"", "\"stage_ms\"", "\"dns\"", "\"covering\"",
        "\"validation\"", "\"emit\"", "\"lanes\"", "\"external\":true",
        "\"run_ms\"", "\"idle_ms\""}) {
    EXPECT_NE(json.find(field), std::string::npos)
        << field << " missing from " << json;
  }
  // Lanes keep tallies, not intervals: nothing is ever dropped.
  EXPECT_EQ(json.find("events_dropped"), std::string::npos) << json;
  EXPECT_NE(json.find("\"tasks\":2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"run_ms\":1.490"), std::string::npos) << json;
  EXPECT_NE(json.find("\"dns\":0.500"), std::string::npos) << json;
}

TEST(SchedTelemetryTest, ChromeTraceNamesWorkerTracks) {
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  sched.begin_run(1);
  std::thread worker([&] {
    obs::LaneScope lane(&sched, 0);
    const auto t0 = Clock::now();
    sched.on_task_run(at(t0, 5), at(t0, 25));
  });
  worker.join();
  std::thread external([&] {
    obs::LaneScope lane(&sched, sched.external_lane());
    obs::Span span(&sched, SweepStage::kValidation);
  });
  external.join();
  registry.set_tracer(nullptr);

  const std::string trace = obs::trace_json(tracer);
  EXPECT_NE(trace.find("\"worker-0\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"external\""), std::string::npos) << trace;
  EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"run\""), std::string::npos);
  EXPECT_NE(trace.find("\"name\":\"validation\""), std::string::npos);
  EXPECT_EQ(trace.find("\"pid\":2"), std::string::npos);
}

TEST(SchedTelemetryTest, CombinedTraceMergesTracerAndScheduler) {
  // A span and a pool interval on one thread land on one track of one
  // process, on one clock.
  obs::Registry registry;
  obs::EventTracer tracer;
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  sched.begin_run(1);
  sched.attach_lane(0);
  const auto begin = Clock::now();
  { obs::Span span(&registry, "pipeline.run"); }
  sched.on_task_run(begin, Clock::now());
  sched.detach_lane();
  registry.set_tracer(nullptr);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].name, "pipeline.run");
  EXPECT_EQ(events[1].name, "run");
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_LE(events[1].ts_us, events[0].ts_us);
  EXPECT_GE(events[1].ts_us + events[1].dur_us,
            events[0].ts_us + events[0].dur_us);
  const std::string both = obs::trace_json(tracer);
  EXPECT_NE(both.find("\"pid\":1"), std::string::npos) << both;
  EXPECT_EQ(both.find("\"pid\":2"), std::string::npos) << both;
  EXPECT_NE(both.find("\"worker-0\""), std::string::npos);

  // A scheduler with no tracer keeps its tallies and records nothing
  // else; an empty tracer writes the process and no events.
  SchedTelemetry tallies_only(&registry);
  tallies_only.begin_run(1);
  tallies_only.attach_lane(0);
  tallies_only.on_task_run(begin, Clock::now());
  tallies_only.detach_lane();
  EXPECT_EQ(tallies_only.snapshot().lanes[0].tasks, 1u);
  EXPECT_EQ(tracer.recorded(), 2u);
  obs::EventTracer empty;
  EXPECT_EQ(obs::trace_json(empty),
            "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[{\"name\":"
            "\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
            "\"args\":{\"name\":\"ripki\"}}]}\n");
}

// --- against a real pool ----------------------------------------------------

TEST(SchedPoolTest, PoolConstructorOpensTheRunWindow) {
  SchedTelemetry sched;
  exec::ThreadPool pool(3, nullptr, &sched);
  EXPECT_EQ(sched.lanes(), 4u);
  EXPECT_EQ(sched.external_lane(), 3u);
}

TEST(SchedPoolTest, LaneTasksSumToTasksExecuted) {
  SchedTelemetry sched;
  constexpr int kTasks = 2000;
  std::atomic<int> count{0};
  static std::atomic<int> benchmark_sink{0};
  std::uint64_t executed = 0;
  {
    exec::ThreadPool pool(4, nullptr, &sched);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] {
        // A little work so runs have measurable length.
        int spin = 0;
        for (int j = 0; j < 100; ++j) spin += j;
        benchmark_sink.fetch_add(spin, std::memory_order_relaxed);
        count.fetch_add(1, std::memory_order_relaxed);
      });
    }
    while (pool.tasks_executed() < static_cast<std::uint64_t>(kTasks)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    executed = pool.tasks_executed();
    // Destructor joins: every worker has detached when the snapshot below
    // is taken.
  }
  ASSERT_EQ(count.load(), kTasks);
  EXPECT_EQ(executed, static_cast<std::uint64_t>(kTasks));

  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 5u);
  std::uint64_t tasks = 0;
  for (const auto& lane : snap.lanes) tasks += lane.tasks;
  EXPECT_EQ(tasks, executed);
  EXPECT_EQ(snap.lanes.back().tasks, 0u);  // external lane saw no pool task
}

TEST(SchedPoolTest, IdleParkIntervalsNeverOverlapRunIntervals) {
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/1 << 16);
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
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
  registry.set_tracer(nullptr);
  ASSERT_EQ(tracer.dropped(), 0u);

  // Each worker's track holds only what its one owner thread recorded, in
  // the order it recorded it; consecutive run and idle intervals there
  // must not overlap.
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const std::vector<std::string> tracks = tracer.track_names();
  std::map<std::uint32_t, const obs::TraceEvent*> previous;
  bool saw_idle = false;
  for (const auto& event : events) {
    if (event.name != "run" && event.name != "idle") continue;
    ASSERT_LT(event.tid, tracks.size());
    EXPECT_EQ(tracks[event.tid].rfind("worker-", 0), 0u) << tracks[event.tid];
    const obs::TraceEvent*& last = previous[event.tid];
    if (last != nullptr) {
      EXPECT_GE(event.ts_us, last->ts_us + last->dur_us)
          << tracks[event.tid] << ": " << event.name << " [" << event.ts_us
          << ", " << event.ts_us + event.dur_us
          << ") overlaps previous interval ending at "
          << last->ts_us + last->dur_us;
    }
    if (event.name == "idle") saw_idle = true;
    last = &event;
  }
  EXPECT_EQ(previous.size(), 4u) << "one track per worker";
  EXPECT_TRUE(saw_idle) << "bursty submission should have parked workers";
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
  // Worker lanes did the attribution.
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

/// A pipeline run's timeline, grouped the way its histograms and lanes
/// count it.
struct Timeline {
  std::array<std::uint64_t, obs::kSweepStageCount> stage_events{};
  std::array<std::uint64_t, obs::kSweepStageCount> stage_us{};
  std::map<std::string, std::uint64_t> pool_events;  // run, idle
  std::map<std::string, std::uint64_t> pool_us;
  std::map<std::string, std::uint64_t> stage_tracks;  // track -> events
};

/// The sweep stage of a timeline event: the kernel's stage spans by path,
/// the lane-only DNSKEY probe ("dns") and emit spans by stage name.
std::optional<SweepStage> stage_of(std::string_view name) {
  const auto ends_with = [name](std::string_view suffix) {
    return name.size() >= suffix.size() &&
           name.substr(name.size() - suffix.size()) == suffix;
  };
  if (name == "dns" || ends_with(".stage2.dns")) return SweepStage::kDns;
  if (ends_with(".stage3.prefix_origin")) return SweepStage::kCovering;
  if (ends_with(".stage4.origin_validation")) return SweepStage::kValidation;
  if (name == "emit") return SweepStage::kEmit;
  return std::nullopt;
}

Timeline read_timeline(const obs::EventTracer& tracer) {
  Timeline out;
  const std::vector<obs::TraceEvent> events = tracer.snapshot();
  const std::vector<std::string> tracks = tracer.track_names();
  for (const auto& event : events) {
    if (const auto stage = stage_of(event.name)) {
      ++out.stage_events[index_of(*stage)];
      out.stage_us[index_of(*stage)] += event.dur_us;
      ++out.stage_tracks[tracks.at(event.tid)];
    } else if (event.name == "run" || event.name == "idle") {
      ++out.pool_events[event.name];
      out.pool_us[event.name] += event.dur_us;
    }
  }
  return out;
}

/// Every stage interval is one event: a stage's events are its histogram's
/// samples plus the lane-only DNSKEY probe and emit span per domain, and
/// the lanes' `stage_ns` is the sum of their durations, within the 1 µs a
/// whole-microsecond event can differ from the span's own nanoseconds.
void expect_each_stage_interval_once(const Timeline& timeline,
                                     const obs::Registry& registry,
                                     const SchedTelemetry::Snapshot& snap,
                                     std::uint64_t domains) {
  std::map<std::string, std::uint64_t> samples;
  for (const auto& metric : registry.collect()) {
    if (metric.kind != obs::MetricSnapshot::Kind::kHistogram) continue;
    samples[metric.name] = metric.count;
    // stage2.dns is the one DNS timer; the resolver adds no child span.
    EXPECT_EQ(metric.name.find("dns.resolve"), std::string::npos)
        << metric.name;
  }
  const std::string sweep = "ripki.trace.pipeline.run.sweep.";
  ASSERT_GT(samples[sweep + "stage2.dns"], 0u);
  const auto events = [&](SweepStage stage) {
    return timeline.stage_events[index_of(stage)];
  };
  EXPECT_EQ(events(SweepStage::kDns), samples[sweep + "stage2.dns"] + domains);
  EXPECT_EQ(events(SweepStage::kCovering),
            samples[sweep + "stage3.prefix_origin"]);
  EXPECT_EQ(events(SweepStage::kValidation),
            samples[sweep + "stage4.origin_validation"]);
  EXPECT_EQ(events(SweepStage::kEmit), domains);

  for (std::size_t s = 0; s < obs::kSweepStageCount; ++s) {
    std::uint64_t lane_ns = 0;
    for (const auto& lane : snap.lanes) lane_ns += lane.stage_ns[s];
    EXPECT_NEAR(static_cast<double>(lane_ns) / 1000.0,
                static_cast<double>(timeline.stage_us[s]),
                static_cast<double>(timeline.stage_events[s]))
        << obs::sweep_stage_name(static_cast<SweepStage>(s));
  }
}

TEST_F(SchedPipelineTest, StageSpansTimeEachStageOnce) {
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/1 << 16);
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  core::PipelineConfig config;
  config.registry = &registry;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  const std::uint64_t domains = pipeline.run().domains.size();
  registry.set_tracer(nullptr);
  ASSERT_EQ(domains, 400u);
  ASSERT_EQ(tracer.dropped(), 0u);

  // Serial run: no pool intervals, and every stage event lies on the
  // calling thread's track, named after the external lane it held.
  const Timeline timeline = read_timeline(tracer);
  EXPECT_TRUE(timeline.pool_events.empty());
  ASSERT_EQ(timeline.stage_tracks.size(), 1u);
  EXPECT_EQ(timeline.stage_tracks.begin()->first, "external");
  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), 1u);
  expect_each_stage_interval_once(timeline, registry, snap, domains);
}

TEST_F(SchedPipelineTest, EveryIntervalIsRecordedOnce) {
  obs::Registry registry;
  obs::EventTracer tracer(/*capacity=*/1 << 16);
  registry.set_tracer(&tracer);
  SchedTelemetry sched(&registry);
  core::PipelineConfig config;
  config.threads = 2;
  config.registry = &registry;
  config.sched = &sched;
  core::MeasurementPipeline pipeline(*eco_, config);
  const std::uint64_t domains = pipeline.run().domains.size();
  registry.set_tracer(nullptr);
  ASSERT_EQ(domains, 400u);
  ASSERT_EQ(tracer.dropped(), 0u);
  ASSERT_EQ(tracer.sampled_out(), 0u);

  const Timeline timeline = read_timeline(tracer);
  const auto snap = sched.snapshot();
  ASSERT_EQ(snap.lanes.size(), pipeline.effective_threads() + 1);
  expect_each_stage_interval_once(timeline, registry, snap, domains);
  // The pooled sweep measures on the workers' tracks only.
  for (const auto& [track, count] : timeline.stage_tracks) {
    EXPECT_EQ(track.rfind("worker-", 0), 0u) << track << ": " << count;
  }

  // Each pool interval is one event, and the lanes tally exactly those.
  std::uint64_t tasks = 0, run_ns = 0, idle_ns = 0;
  for (const auto& lane : snap.lanes) {
    tasks += lane.tasks;
    run_ns += lane.run_ns;
    idle_ns += lane.idle_ns;
  }
  const auto pool = [&](const char* name) {
    const auto it = timeline.pool_events.find(name);
    return it == timeline.pool_events.end() ? 0 : it->second;
  };
  const auto pool_us = [&](const char* name) {
    const auto it = timeline.pool_us.find(name);
    return static_cast<double>(it == timeline.pool_us.end() ? 0 : it->second);
  };
  EXPECT_GT(tasks, 0u);
  EXPECT_EQ(pool("run"), tasks);
  EXPECT_GT(pool("idle"), 0u);
  EXPECT_NEAR(static_cast<double>(run_ns) / 1000.0, pool_us("run"),
              static_cast<double>(pool("run")));
  EXPECT_NEAR(static_cast<double>(idle_ns) / 1000.0, pool_us("idle"),
              static_cast<double>(pool("idle")));
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
