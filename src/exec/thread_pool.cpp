#include "exec/thread_pool.hpp"

#include <algorithm>
#include <chrono>

#include "obs/metrics.hpp"
#include "obs/sched.hpp"

namespace ripki::exec {

namespace {

using Clock = std::chrono::steady_clock;

// Identity of the current thread within its owning pool. The pool pointer
// disambiguates nested/multiple pools: current_worker() must not return
// another pool's index to code holding per-worker state of this one.
thread_local const ThreadPool* t_pool = nullptr;
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
    stolen_counter_ = &registry->counter("ripki.exec.tasks_stolen");
    registry->describe("ripki.exec.tasks_executed",
                       "Tasks run by the exec thread pool");
    registry->describe("ripki.exec.tasks_stolen",
                       "Pool tasks run by a worker other than the one they "
                       "were queued on (work stealing)");
  }
  queues_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    queues_.push_back(std::make_unique<Queue>());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i) {
    workers_.emplace_back([this, i] { worker_loop(i); });
  }
}

ThreadPool::~ThreadPool() {
  {
    // Taking the wake mutex orders the stop flag against the workers'
    // predicate check: a worker is either before the check (and will see
    // stop_) or already waiting (and receives the broadcast).
    std::lock_guard lock(wake_mutex_);
    stop_.store(true, std::memory_order_release);
  }
  wake_cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

std::size_t ThreadPool::current_worker() { return t_worker_index; }

std::size_t ThreadPool::hardware_threads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::submit(std::function<void()> task) {
  // From a worker of this pool, keep the task local (it will be stolen if
  // the worker is busy); otherwise spread round-robin.
  std::size_t target = next_queue_.fetch_add(1, std::memory_order_relaxed) %
                       queues_.size();
  if (t_pool == this) target = t_worker_index;
  {
    std::lock_guard lock(queues_[target]->mutex);
    queues_[target]->tasks.push_back(std::move(task));
    queues_[target]->depth.fetch_add(1, std::memory_order_relaxed);
  }
  queued_.fetch_add(1, std::memory_order_release);
  {
    // See ~ThreadPool for why the lock/unlock pair is required.
    std::lock_guard lock(wake_mutex_);
  }
  wake_cv_.notify_one();
}

bool ThreadPool::try_run_one(std::size_t self) {
  // `record` is per-call: it holds exactly when this thread owns a lane of
  // sched_, which worker_loop established at startup. Threads of an
  // uninstrumented pool take the single-branch bailout in every recorder.
  const bool record = sched_ != nullptr && sched_->attached();
  std::function<void()> task;
  bool stole = false;
  {
    Queue& own = *queues_[self];
    std::lock_guard lock(own.mutex);
    if (!own.tasks.empty()) {
      task = std::move(own.tasks.front());
      own.tasks.pop_front();
      own.depth.fetch_sub(1, std::memory_order_relaxed);
    }
  }
  if (task) {
    if (record) sched_->on_own_pop();
  } else if (queues_.size() > 1) {
    const Clock::time_point scan_begin =
        record ? Clock::now() : Clock::time_point{};
    for (std::size_t i = 1; i < queues_.size() && !task; ++i) {
      Queue& victim = *queues_[(self + i) % queues_.size()];
      std::lock_guard lock(victim.mutex);
      if (!victim.tasks.empty()) {
        task = std::move(victim.tasks.back());
        victim.tasks.pop_back();
        victim.depth.fetch_sub(1, std::memory_order_relaxed);
        stole = true;
      }
    }
    if (record) sched_->on_steal(stole, scan_begin, Clock::now());
  }
  if (!task) return false;

  queued_.fetch_sub(1, std::memory_order_acq_rel);
  if (stole) {
    stolen_.fetch_add(1, std::memory_order_relaxed);
    if (stolen_counter_ != nullptr) stolen_counter_->inc();
  }
  if (record) {
    const Clock::time_point run_begin = Clock::now();
    task();
    sched_->on_task_run(run_begin, Clock::now());
  } else {
    task();
  }
  executed_.fetch_add(1, std::memory_order_relaxed);
  if (executed_counter_ != nullptr) executed_counter_->inc();
  return true;
}

void ThreadPool::worker_loop(std::size_t index) {
  t_pool = this;
  t_worker_index = index;
  if (sched_ != nullptr) sched_->attach_lane(index);
  const bool record = sched_ != nullptr && sched_->attached();
  for (;;) {
    if (try_run_one(index)) continue;
    const Clock::time_point park_begin =
        record ? Clock::now() : Clock::time_point{};
    bool stopping = false;
    {
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait(lock, [this] {
        return stop_.load(std::memory_order_acquire) ||
               queued_.load(std::memory_order_acquire) > 0;
      });
      // Drain everything still queued before honoring stop, so destruction
      // never abandons submitted work.
      stopping = stop_.load(std::memory_order_acquire) &&
                 queued_.load(std::memory_order_acquire) == 0;
    }
    if (record) sched_->on_idle(park_begin, Clock::now());
    if (stopping) break;
  }
  if (sched_ != nullptr) sched_->detach_lane();
  t_pool = nullptr;
  t_worker_index = npos;
}

std::vector<std::size_t> ThreadPool::queue_depths() const {
  std::vector<std::size_t> out;
  out.reserve(queues_.size());
  for (const auto& queue : queues_) {
    out.push_back(queue->depth.load(std::memory_order_relaxed));
  }
  return out;
}

void parallel_for_shards(
    ThreadPool& pool, std::size_t n_items, std::size_t n_shards,
    const std::function<void(std::size_t shard, std::size_t begin,
                             std::size_t end)>& fn) {
  if (n_items == 0) return;
  n_shards = std::clamp<std::size_t>(n_shards, 1, n_items);

  // Completion latch. The decrement happens under the mutex so the waiter
  // cannot observe zero, return, and destroy the latch while the last
  // task is still about to touch it.
  struct Latch {
    std::mutex mutex;
    std::condition_variable cv;
    std::size_t remaining;
  } latch{.mutex = {}, .cv = {}, .remaining = n_shards};

  const std::size_t base = n_items / n_shards;
  const std::size_t extra = n_items % n_shards;
  std::size_t begin = 0;
  for (std::size_t shard = 0; shard < n_shards; ++shard) {
    const std::size_t end = begin + base + (shard < extra ? 1 : 0);
    pool.submit([&fn, &latch, shard, begin, end] {
      fn(shard, begin, end);
      std::lock_guard lock(latch.mutex);
      --latch.remaining;
      latch.cv.notify_all();
    });
    begin = end;
  }

  std::unique_lock lock(latch.mutex);
  latch.cv.wait(lock, [&latch] { return latch.remaining == 0; });
}

}  // namespace ripki::exec
