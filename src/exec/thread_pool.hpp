// Execution substrate for the embarrassingly parallel parts of the
// measurement: a fixed-size worker pool fed from one FIFO, plus a sharded
// parallel-for helper.
//
// Design notes:
//  - One deque behind one mutex and one condition variable. submit()
//    appends to the back; the next free worker takes the front. Callers
//    submit a few coarse, equal shards (or one task per request), so a
//    single queue keeps every worker busy, and a task queued behind a long
//    one is never stranded: whichever worker frees up first takes it.
//  - current_worker() gives tasks a dense worker index; callers use it to
//    select per-worker state (resolver, caches, counters) without locks.
//  - Tasks must not throw: an escaping exception would terminate the
//    worker thread (the codebase is assert/Result-based, not
//    exception-based).
//  - parallel_for_shards() splits [0, n_items) into contiguous shards and
//    blocks until every shard ran; with a consumer, the calling thread
//    takes each finished shard in index order meanwhile. Do not call it
//    from inside a pool task of the same pool — the waiting task would
//    occupy the worker its own shards need.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ripki::obs {
class Counter;
class Registry;
class SchedTelemetry;
}

namespace ripki::exec {

class ThreadPool {
 public:
  /// current_worker() result on threads that are not pool workers.
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Starts `threads` workers (clamped to at least 1). When `registry` is
  /// set, the executed task count is published as
  /// `ripki.exec.tasks_executed`. When `sched` is set, the pool calls
  /// `sched->begin_run(threads)` before any worker starts and each worker
  /// records its task runs and condvar parks on its own telemetry lane
  /// (tallies, plus one event each in the telemetry's tracer); `sched`
  /// must outlive the pool.
  explicit ThreadPool(std::size_t threads, obs::Registry* registry = nullptr,
                      obs::SchedTelemetry* sched = nullptr);

  /// Joins the workers. Tasks already submitted are drained first; do not
  /// submit concurrently with destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution on the next free worker.
  void submit(std::function<void()> task);

  /// Dense index of the calling pool worker in [0, size()), or npos when
  /// the caller is not a worker of any pool.
  static std::size_t current_worker();

  /// std::thread::hardware_concurrency(), never less than 1.
  static std::size_t hardware_threads();

  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }

 private:
  void worker_loop(std::size_t index);

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> tasks_;  // guarded by mutex_
  bool stop_ = false;                        // guarded by mutex_

  std::atomic<std::uint64_t> executed_{0};
  obs::Counter* executed_counter_ = nullptr;
  obs::SchedTelemetry* sched_ = nullptr;
};

/// Splits [0, n_items) into `n_shards` contiguous ranges (sizes differing
/// by at most one, earlier shards larger), runs
/// `fn(shard_index, begin, end)` for each on the pool, and blocks until
/// all shards completed. `n_shards` is clamped to [1, n_items]; with
/// n_items == 0, neither `fn` nor `consume` is invoked.
///
/// When `consume` is set, the calling thread runs `consume(shard_index)`
/// for every shard in index order, each as soon as that shard and every
/// earlier one have run, while later shards may still be running: a
/// caller that merges shard outputs in order merges them as they finish.
/// Everything `fn` wrote for a shard is visible to its `consume` call.
void parallel_for_shards(
    ThreadPool& pool, std::size_t n_items, std::size_t n_shards,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& fn,
    const std::function<void(std::size_t shard)>& consume = {});

}  // namespace ripki::exec
