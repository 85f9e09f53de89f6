#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/sched.hpp"

namespace ripki::exec {

namespace {

using Clock = std::chrono::steady_clock;

thread_local std::size_t t_worker_index = ThreadPool::npos;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads, obs::Registry* registry,
                       obs::SchedTelemetry* sched)
    : sched_(sched) {
  threads = std::max<std::size_t>(1, threads);
  // Size the telemetry lanes before any worker can attach to one.
  if (sched_ != nullptr) sched_->begin_run(threads);
  if (registry != nullptr) {
    executed_counter_ = &registry->counter("ripki.exec.tasks_executed");
    registry->describe("ripki.exec.tasks_executed",
                       "Tasks run by the exec thread pool");
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::current_worker() { return t_worker_index; }

std::size_t ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard lock(mutex_);
    tasks_.push_back(std::move(task));
  }
  cv_.notify_one();
}

void ThreadPool::worker_loop(std::size_t index) {
  t_worker_index = index;
  if (sched_ != nullptr) sched_->attach_lane(index);
  // Holds exactly when this thread owns a lane of sched_; threads of an
  // uninstrumented pool read no clock.
  const bool record = sched_ != nullptr && sched_->attached();
  for (;;) {
    std::function<void()> task;
    bool parked = false;
    Clock::time_point park_begin{};
    {
      std::unique_lock lock(mutex_);
      if (tasks_.empty() && !stop_) {
        parked = true;
        if (record) park_begin = Clock::now();
        cv_.wait(lock, [this] { return stop_ || !tasks_.empty(); });
      }
      // Drain everything still queued before honoring stop, so destruction
      // never abandons submitted work.
      if (!tasks_.empty()) {
        task = std::move(tasks_.front());
        tasks_.pop_front();
      }
    }
    if (record && parked) sched_->on_idle(park_begin, Clock::now());
    if (!task) break;
    if (record) {
      const Clock::time_point run_begin = Clock::now();
      task();
      sched_->on_task_run(run_begin, Clock::now());
    } else {
      task();
    }
    executed_.fetch_add(1, std::memory_order_relaxed);
    if (executed_counter_ != nullptr) executed_counter_->inc();
  }
  if (sched_ != nullptr) sched_->detach_lane();
  t_worker_index = npos;
}

void parallel_for_shards(
    ThreadPool& pool, std::size_t n_items, std::size_t n_shards,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& fn,
    const std::function<void(std::size_t shard)>& consume) {
  if (n_items == 0) return;
  n_shards = std::clamp<std::size_t>(n_shards, 1, n_items);

  // Completion latch. A shard is marked done and signalled under the
  // mutex, so the waiter cannot observe the last one, return, and destroy
  // the latch while that shard's task is still about to touch it.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::vector<bool> done;
    std::size_t remaining;
  } latch{.mutex = {},
          .cv = {},
          .done = std::vector<bool>(n_shards, false),
          .remaining = n_shards};

  const std::size_t base = n_items / n_shards;
  const std::size_t extra = n_items % n_shards;
  std::size_t begin = 0;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    const std::size_t end = begin + base + (shard < extra ? 1 : 0);
    pool.submit([&fn, &latch, shard, begin, end] {
      fn(shard, begin, end);
      std::lock_guard lock(latch.mutex);
      latch.done[shard] = true;
      --latch.remaining;
      latch.cv.notify_all();
    });
    begin = end;
  }

  std::unique_lock lock(latch.mutex);
  if (consume) {
    for (std::size_t next = 0; next < n_shards; ++next) {
      latch.cv.wait(lock, [&latch, next] { return latch.done[next]; });
      lock.unlock();
      consume(next);
      lock.lock();
    }
  }
  latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
}

}  // namespace ripki::exec
