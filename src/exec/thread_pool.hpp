// Execution substrate for the embarrassingly parallel parts of the
// measurement: a fixed-size worker pool with per-worker task queues and
// work stealing, plus a sharded parallel-for helper.
//
// Design notes:
//  - Each worker owns a deque; submit() round-robins tasks across the
//    queues (or pushes to the submitting worker's own queue when called
//    from inside the pool). A worker pops its own queue front-first
//    (FIFO), and when that runs dry it steals from the *back* of another
//    worker's queue, so stealers and owners contend on opposite ends.
//  - current_worker() gives tasks a dense worker index; callers use it to
//    select per-worker state (resolver, caches, counters) without locks.
//  - Tasks must not throw: an escaping exception would terminate the
//    worker thread (the codebase is assert/Result-based, not
//    exception-based).
//  - parallel_for_shards() splits [0, n_items) into contiguous shards and
//    blocks until every shard ran. Do not call it from inside a pool task
//    of the same pool — the waiting task would occupy the worker its own
//    shards need.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
  /// set, executed/stolen task counts are published as
  /// `ripki.exec.tasks_executed` / `ripki.exec.tasks_stolen`. When `sched`
  /// is set, the pool calls `sched->begin_run(threads)` before any worker
  /// starts and each worker records its task runs, steal scans and condvar
  /// parks on its own telemetry lane (tallies, plus one event each in the
  /// telemetry's tracer); `sched` must outlive the pool.
  explicit ThreadPool(std::size_t threads, obs::Registry* registry = nullptr,
                      obs::SchedTelemetry* sched = nullptr);

  /// Joins the workers. Tasks already submitted are drained first; do not
  /// submit concurrently with destruction.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues `task` for execution on some worker.
  void submit(std::function<void()> task);

  /// Dense index of the calling pool worker in [0, size()), or npos when
  /// the caller is not a worker of any pool.
  static std::size_t current_worker();

  /// std::thread::hardware_concurrency(), never less than 1.
  static std::size_t hardware_threads();

  std::uint64_t tasks_executed() const {
    return executed_.load(std::memory_order_relaxed);
  }
  std::uint64_t tasks_stolen() const {
    return stolen_.load(std::memory_order_relaxed);
  }

  /// Point-in-time task count of every worker queue (index = worker), for
  /// the scheduler telemetry queue-depth sampler. Approximate by nature:
  /// the atomics are read without freezing the queues.
  std::vector<std::size_t> queue_depths() const;

 private:
  struct Queue {
    std::mutex mutex;
    std::deque<std::function<void()>> tasks;
    /// Mirror of tasks.size(), readable without the mutex.
    std::atomic<std::size_t> depth{0};
  };

  /// Runs one task (own queue first, then steal). False when every queue
  /// was observed empty.
  bool try_run_one(std::size_t self);
  void worker_loop(std::size_t index);

  std::vector<std::unique_ptr<Queue>> queues_;
  std::vector<std::thread> workers_;

  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;
  std::atomic<bool> stop_{false};
  /// Tasks submitted but not yet popped; the wake predicate.
  std::atomic<std::size_t> queued_{0};
  std::atomic<std::uint64_t> next_queue_{0};

  std::atomic<std::uint64_t> executed_{0};
  std::atomic<std::uint64_t> stolen_{0};
  obs::Counter* executed_counter_ = nullptr;
  obs::Counter* stolen_counter_ = nullptr;
  obs::SchedTelemetry* sched_ = nullptr;
};

/// Splits [0, n_items) into `n_shards` contiguous ranges (sizes differing
/// by at most one, earlier shards larger), runs
/// `fn(shard_index, begin, end)` for each on the pool, and blocks until
/// all shards completed. `n_shards` is clamped to [1, n_items]; with
/// n_items == 0, `fn` is never invoked.
void parallel_for_shards(
    ThreadPool& pool, std::size_t n_items, std::size_t n_shards,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& fn);

}  // namespace ripki::exec
