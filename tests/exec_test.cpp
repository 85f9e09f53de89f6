// The execution substrate and the parallel measurement sweep: thread-pool
// lifecycle and work stealing, parallel_for_shards edge cases, hot-path
// cache correctness, and the determinism contract — a sharded parallel
// run must produce the very same dataset as the serial one.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "bgp/covering_cache.hpp"
#include "core/pipeline.hpp"
#include "exec/thread_pool.hpp"
#include "obs/metrics.hpp"
#include "rpki/validation_cache.hpp"

namespace ripki {
namespace {

// --- ThreadPool --------------------------------------------------------------

TEST(ThreadPoolTest, StartsAndStopsCleanly) {
  exec::ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  // Destructor joins without any task ever submitted.
}

TEST(ThreadPoolTest, ClampsZeroThreadsToOne) {
  exec::ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(ThreadPoolTest, RunsManyTasksUnderContention) {
  exec::ThreadPool pool(4);
  std::atomic<int> count{0};
  constexpr int kTasks = 2000;
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_EQ(pool.tasks_executed(), static_cast<std::uint64_t>(kTasks));
}

TEST(ThreadPoolTest, DestructorDrainsQueuedTasks) {
  std::atomic<int> count{0};
  constexpr int kTasks = 500;
  {
    exec::ThreadPool pool(2);
    for (int i = 0; i < kTasks; ++i) {
      pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    }
    // Destruction must wait for every submitted task.
  }
  EXPECT_EQ(count.load(), kTasks);
}

TEST(ThreadPoolTest, CurrentWorkerIndexIsDenseInsidePoolAndNposOutside) {
  EXPECT_EQ(exec::ThreadPool::current_worker(), exec::ThreadPool::npos);
  exec::ThreadPool pool(3);
  std::mutex mutex;
  std::vector<std::size_t> seen;
  exec::parallel_for_shards(pool, 64, 64, [&](std::size_t, std::size_t, std::size_t) {
    std::lock_guard lock(mutex);
    seen.push_back(exec::ThreadPool::current_worker());
  });
  ASSERT_EQ(seen.size(), 64u);
  for (const std::size_t index : seen) EXPECT_LT(index, pool.size());
  EXPECT_EQ(exec::ThreadPool::current_worker(), exec::ThreadPool::npos);
}

TEST(ThreadPoolTest, StealsWorkFromBusyWorkers) {
  exec::ThreadPool pool(2);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  std::atomic<int> count{0};
  constexpr int kTasks = 100;
  // One long-running task pins whichever worker picks it up; round-robin
  // placement then queues tasks behind it that only stealing can drain.
  pool.submit([released] { released.wait(); });
  for (int i = 0; i < kTasks; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < kTasks && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), kTasks);
  EXPECT_GT(pool.tasks_stolen(), 0u);
  release.set_value();
}

TEST(ThreadPoolTest, SubmitFromWorkerTaskRuns) {
  exec::ThreadPool pool(2);
  std::atomic<int> count{0};
  pool.submit([&] {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
    count.fetch_add(1, std::memory_order_relaxed);
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (count.load() < 2 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(count.load(), 2);
}

TEST(ThreadPoolTest, PublishesTaskCountersToRegistry) {
  obs::Registry registry;
  {
    exec::ThreadPool pool(2, &registry);
    std::atomic<int> count{0};
    exec::parallel_for_shards(pool, 32, 8,
                              [&](std::size_t, std::size_t begin, std::size_t end) {
                                count.fetch_add(static_cast<int>(end - begin));
                              });
    EXPECT_EQ(count.load(), 32);
  }
  EXPECT_EQ(registry.counter("ripki.exec.tasks_executed").value(), 8u);
}

// --- parallel_for_shards -----------------------------------------------------

TEST(ParallelForShardsTest, ZeroItemsNeverInvokes) {
  exec::ThreadPool pool(2);
  std::atomic<int> calls{0};
  exec::parallel_for_shards(pool, 0, 4, [&](std::size_t, std::size_t, std::size_t) {
    calls.fetch_add(1);
  });
  EXPECT_EQ(calls.load(), 0);
}

TEST(ParallelForShardsTest, SingleShardCoversEverything) {
  exec::ThreadPool pool(4);
  std::mutex mutex;
  std::vector<std::array<std::size_t, 3>> calls;
  exec::parallel_for_shards(pool, 10, 1,
                            [&](std::size_t shard, std::size_t begin, std::size_t end) {
                              std::lock_guard lock(mutex);
                              calls.push_back({shard, begin, end});
                            });
  ASSERT_EQ(calls.size(), 1u);
  EXPECT_EQ(calls[0], (std::array<std::size_t, 3>{0, 0, 10}));
}

TEST(ParallelForShardsTest, MoreShardsThanItemsClampsToOnePerItem) {
  exec::ThreadPool pool(4);
  std::atomic<int> calls{0};
  std::vector<std::atomic<int>> visited(3);
  exec::parallel_for_shards(pool, 3, 10,
                            [&](std::size_t, std::size_t begin, std::size_t end) {
                              calls.fetch_add(1);
                              EXPECT_EQ(end, begin + 1);
                              visited[begin].fetch_add(1);
                            });
  EXPECT_EQ(calls.load(), 3);
  for (auto& v : visited) EXPECT_EQ(v.load(), 1);
}

TEST(ParallelForShardsTest, ShardsAreContiguousAndCoverEveryIndexOnce) {
  exec::ThreadPool pool(4);
  constexpr std::size_t kItems = 1003;  // prime-ish: uneven shard sizes
  std::vector<std::atomic<int>> visited(kItems);
  std::mutex mutex;
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  exec::parallel_for_shards(pool, kItems, 16,
                            [&](std::size_t, std::size_t begin, std::size_t end) {
                              {
                                std::lock_guard lock(mutex);
                                ranges.emplace_back(begin, end);
                              }
                              for (std::size_t i = begin; i < end; ++i) {
                                visited[i].fetch_add(1);
                              }
                            });
  for (std::size_t i = 0; i < kItems; ++i) EXPECT_EQ(visited[i].load(), 1);
  ASSERT_EQ(ranges.size(), 16u);
  std::sort(ranges.begin(), ranges.end());
  std::size_t expected_begin = 0;
  for (const auto& [begin, end] : ranges) {
    EXPECT_EQ(begin, expected_begin);
    EXPECT_GT(end, begin);
    expected_begin = end;
  }
  EXPECT_EQ(expected_begin, kItems);
}

// --- hot-path caches ---------------------------------------------------------

TEST(HotPathCacheTest, CoveringCacheMatchesRibAndCountsTraffic) {
  bgp::Rib rib;
  bgp::RibEntry entry;
  entry.prefix = net::Prefix::parse("10.0.0.0/8").value();
  entry.as_path = bgp::AsPath::sequence({65010, 65001});
  rib.add(entry);
  entry.prefix = net::Prefix::parse("10.1.0.0/16").value();
  rib.add(entry);
  rib.freeze();

  bgp::CoveringCache cache(&rib);
  const auto addr = net::IpAddress::parse("10.1.2.3").value();
  const auto& first = cache.covering(addr);
  EXPECT_EQ(first.size(), rib.covering(addr).size());
  ASSERT_EQ(first.size(), 2u);
  const auto& again = cache.covering(addr);
  EXPECT_EQ(&first, &again);  // memoized: same stored vector
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  // A different address misses independently.
  const auto other = net::IpAddress::parse("192.168.0.1").value();
  EXPECT_TRUE(cache.covering(other).empty());
  EXPECT_EQ(cache.misses(), 2u);
}

TEST(HotPathCacheTest, ValidationCacheMatchesIndex) {
  rpki::VrpSet vrps;
  vrps.push_back({net::Prefix::parse("10.0.0.0/8").value(), 16, net::Asn(65001)});
  const rpki::VrpIndex index(vrps);
  rpki::ValidationCache cache(&index);

  const auto route = net::Prefix::parse("10.0.0.0/16").value();
  const auto more_specific = net::Prefix::parse("10.0.0.0/24").value();
  EXPECT_EQ(cache.validate(route, net::Asn(65001)),
            index.validate(route, net::Asn(65001)));
  EXPECT_EQ(cache.validate(route, net::Asn(65002)),
            index.validate(route, net::Asn(65002)));
  EXPECT_EQ(cache.validate(more_specific, net::Asn(65001)),
            index.validate(more_specific, net::Asn(65001)));
  EXPECT_EQ(cache.misses(), 3u);
  EXPECT_EQ(cache.hits(), 0u);

  // Same (prefix, origin) again: hit, same verdict.
  EXPECT_EQ(cache.validate(route, net::Asn(65001)), rpki::OriginValidity::kValid);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 3u);
}

// --- parallel pipeline determinism -------------------------------------------

web::EcosystemConfig small_config() {
  web::EcosystemConfig config;
  config.domain_count = 3'000;
  config.isp_count = 300;
  config.hoster_count = 100;
  config.enterprise_count = 400;
  config.transit_count = 40;
  return config;
}

/// Generates once, measures serially once; every determinism test
/// compares a differently-threaded run against this baseline.
class ParallelPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    eco_ = web::Ecosystem::generate(small_config()).release();
    core::MeasurementPipeline serial(*eco_, core::PipelineConfig{});
    serial_ = new core::Dataset(serial.run());
  }
  static void TearDownTestSuite() {
    delete serial_;
    delete eco_;
    serial_ = nullptr;
    eco_ = nullptr;
  }

  static core::Dataset run_with_threads(std::size_t threads,
                                        obs::Registry* registry = nullptr) {
    core::PipelineConfig config;
    config.threads = threads;
    config.registry = registry;
    core::MeasurementPipeline pipeline(*eco_, config);
    return pipeline.run();
  }

  /// Worker count the sweep actually runs with: requested threads are
  /// clamped to the host's hardware concurrency.
  static std::size_t clamped(std::size_t threads) {
    const std::size_t hw = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::thread::hardware_concurrency()));
    return std::min(threads, hw);
  }

  static void expect_equal_to_serial(const core::Dataset& dataset) {
    ASSERT_EQ(dataset.domains.size(), serial_->domains.size());
    for (std::size_t i = 0; i < dataset.domains.size(); ++i) {
      ASSERT_EQ(dataset.domains[i], serial_->domains[i])
          << "first divergent record at index " << i << " ("
          << serial_->domains.name(i) << ")";
    }
    EXPECT_EQ(dataset.counters, serial_->counters);
    EXPECT_EQ(dataset.rank_space, serial_->rank_space);
    EXPECT_TRUE(dataset == *serial_);
  }

  static web::Ecosystem* eco_;
  static core::Dataset* serial_;
};

web::Ecosystem* ParallelPipelineTest::eco_ = nullptr;
core::Dataset* ParallelPipelineTest::serial_ = nullptr;

TEST_F(ParallelPipelineTest, OneWorkerMatchesSerial) {
  expect_equal_to_serial(run_with_threads(1));
}

TEST_F(ParallelPipelineTest, FourWorkersMatchSerialRecordForRecord) {
  expect_equal_to_serial(run_with_threads(4));
}

TEST_F(ParallelPipelineTest, MoreWorkersThanMakesSenseStillMatches) {
  expect_equal_to_serial(run_with_threads(16));
}

TEST_F(ParallelPipelineTest, ParallelRunPublishesSweepMetrics) {
  obs::Registry registry;
  const core::Dataset dataset = run_with_threads(4, &registry);
  expect_equal_to_serial(dataset);

  // The caches must see real traffic on a 3k-domain sweep...
  const auto covering_hits =
      registry.counter("ripki.bgp.covering_cache_hits").value();
  const auto covering_misses =
      registry.counter("ripki.bgp.covering_cache_misses").value();
  const auto validation_hits =
      registry.counter("ripki.rpki.validation_cache_hits").value();
  EXPECT_GT(covering_hits, 0u);
  EXPECT_GT(covering_misses, 0u);
  EXPECT_GT(validation_hits, 0u);
  // ...and the pool must actually have run shard tasks.
  EXPECT_GT(registry.counter("ripki.exec.tasks_executed").value(), 0u);
  EXPECT_EQ(registry.gauge("ripki.exec.threads").value(),
            static_cast<double>(clamped(4)));
  const auto hit_rate =
      registry.gauge("ripki.exec.covering_cache_hit_rate_pct").value();
  EXPECT_GE(hit_rate, 0);
  EXPECT_LE(hit_rate, 100);
}

TEST_F(ParallelPipelineTest, SerialRunAlsoExercisesCaches) {
  obs::Registry registry;
  core::PipelineConfig config;
  config.registry = &registry;
  core::MeasurementPipeline pipeline(*eco_, config);
  const core::Dataset dataset = pipeline.run();
  expect_equal_to_serial(dataset);
  const auto& caches = pipeline.cache_stats();
  EXPECT_GT(caches.covering_hits + caches.covering_misses, 0u);
  EXPECT_GT(caches.validation_hits + caches.validation_misses, 0u);
  EXPECT_EQ(registry.gauge("ripki.exec.threads").value(), 0);
}

TEST_F(ParallelPipelineTest, MaxDomainsRespectedInParallel) {
  core::PipelineConfig config;
  config.threads = 4;
  config.max_domains = 17;
  core::MeasurementPipeline pipeline(*eco_, config);
  const core::Dataset dataset = pipeline.run();
  ASSERT_EQ(dataset.domains.size(), 17u);
  for (std::size_t i = 0; i < 17; ++i) {
    EXPECT_EQ(dataset.domains[i], serial_->domains[i]);
  }
}

TEST_F(ParallelPipelineTest, PerWorkerCacheStatsSumToAggregate) {
  core::PipelineConfig config;
  config.threads = 4;
  core::MeasurementPipeline pipeline(*eco_, config);
  expect_equal_to_serial(pipeline.run());

  const auto& caches = pipeline.cache_stats();
  ASSERT_EQ(caches.workers.size(), clamped(4));
  std::uint64_t covering_hits = 0, covering_misses = 0;
  std::uint64_t validation_hits = 0, validation_misses = 0;
  for (const auto& worker : caches.workers) {
    covering_hits += worker.covering_hits;
    covering_misses += worker.covering_misses;
    validation_hits += worker.validation_hits;
    validation_misses += worker.validation_misses;
    EXPECT_GE(worker.covering_hit_rate(), 0.0);
    EXPECT_LE(worker.covering_hit_rate(), 1.0);
  }
  EXPECT_EQ(covering_hits, caches.covering_hits);
  EXPECT_EQ(covering_misses, caches.covering_misses);
  EXPECT_EQ(validation_hits, caches.validation_hits);
  EXPECT_EQ(validation_misses, caches.validation_misses);
  // A 3k-domain sweep split across the workers leaves none idle.
  for (const auto& worker : caches.workers) {
    EXPECT_GT(worker.covering_hits + worker.covering_misses, 0u);
  }
}

TEST_F(ParallelPipelineTest, SerialRunReportsOneCacheStatsWorker) {
  core::PipelineConfig config;
  config.max_domains = 50;
  core::MeasurementPipeline pipeline(*eco_, config);
  pipeline.run();
  const auto& caches = pipeline.cache_stats();
  ASSERT_EQ(caches.workers.size(), 1u);
  EXPECT_EQ(caches.workers[0].covering_hits, caches.covering_hits);
  EXPECT_EQ(caches.workers[0].validation_misses, caches.validation_misses);
}

TEST_F(ParallelPipelineTest, RowListSweepMatchesTheBatchRowsAtAnyThreadCount) {
  // The world run() built, swept again over every 7th row plus the last.
  core::MeasurementPipeline pipeline(*eco_, core::PipelineConfig{});
  pipeline.run();
  const core::MeasurementPipeline::SweepWorld world{
      .zones = &eco_->zone_source(web::Vantage::kBerlin),
      .rib = &pipeline.rib(),
      .vrps = &pipeline.vrp_index()};
  const auto last = static_cast<std::uint32_t>(serial_->size() - 1);
  std::vector<std::uint32_t> rows;
  for (std::uint32_t row = 0; row < last; row += 7) rows.push_back(row);
  rows.push_back(last);

  core::MeasurementPipeline::RowExtras extras;
  const core::Dataset alone = pipeline.sweep(world, rows, nullptr, &extras);
  exec::ThreadPool pool(4);
  core::MeasurementPipeline::RowExtras pooled_extras;
  const core::Dataset pooled =
      pipeline.sweep(world, rows, &pool, &pooled_extras);
  EXPECT_TRUE(pooled == alone);
  EXPECT_EQ(pooled_extras.as_set_entries, extras.as_set_entries);
  EXPECT_EQ(pooled_extras.kept_addresses, extras.kept_addresses);

  ASSERT_EQ(alone.size(), rows.size());
  ASSERT_EQ(extras.as_set_entries.size(), rows.size());
  ASSERT_EQ(extras.kept_addresses.size(), rows.size());
  std::uint64_t as_set = 0;
  std::uint64_t kept = 0;
  for (std::size_t k = 0; k < rows.size(); ++k) {
    EXPECT_EQ(alone.domains[k], serial_->domains[rows[k]]) << "row " << rows[k];
    as_set += extras.as_set_entries[k];
    kept += extras.kept_addresses[k].size();
  }
  EXPECT_GT(kept, 0u);
  EXPECT_EQ(as_set, alone.counters.as_set_entries_excluded);
  EXPECT_EQ(kept, alone.counters.addresses_www + alone.counters.addresses_apex);

  // An empty list returns an empty table and sends no queries.
  for (exec::ThreadPool* with : {static_cast<exec::ThreadPool*>(nullptr), &pool}) {
    const core::Dataset none = pipeline.sweep(world, {}, with, &extras);
    EXPECT_EQ(none.size(), 0u);
    EXPECT_EQ(none.counters, core::PipelineCounters{});
    EXPECT_TRUE(extras.kept_addresses.empty());
  }
}

TEST_F(ParallelPipelineTest, EveryRegisteredMetricCarriesHelpText) {
  // Full-coverage sweep over the whole registry: run the pipeline with
  // every optional path that registers metrics (RTR transport included)
  // and demand HELP text on everything it minted — `ripki.trace.*` span
  // histograms synthesize theirs in collect().
  obs::Registry registry;
  core::PipelineConfig config;
  config.threads = 2;
  config.registry = &registry;
  config.use_rtr = true;
  config.max_domains = 100;
  core::MeasurementPipeline pipeline(*eco_, config);
  pipeline.run();

  std::size_t checked = 0;
  for (const auto& snapshot : registry.collect()) {
    EXPECT_FALSE(snapshot.help.empty()) << snapshot.name << " has no HELP";
    ++checked;
  }
  // dns + bgp + rpki + rtr + pipeline + exec + trace families.
  EXPECT_GE(checked, 30u);
}

}  // namespace
}  // namespace ripki
