#include "exec/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <deque>
#include <exception>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "util/mutex.h"

namespace blazeit {
namespace exec {

namespace {

/// Set while the current thread is executing a shard; nested RunShards
/// calls detect it and run inline instead of waiting on the pool they are
/// themselves occupying.
thread_local bool t_inside_shard = false;

}  // namespace

/// One RunShards invocation: a bag of shards claimed off an atomic
/// counter. Several jobs can be live at once (two user threads issuing
/// parallel sections); workers drain them FIFO.
struct ThreadPool::Job {
  int64_t num_shards = 0;
  const std::function<void(int64_t, int)>* fn = nullptr;
  /// Next shard to claim; claims past num_shards mean the job is drained.
  std::atomic<int64_t> next{0};
  /// Shards finished (or abandoned); the job completes at num_shards.
  std::atomic<int64_t> done{0};
  /// Workers currently inside WorkOn. The caller frees the job only once
  /// this drops to zero, so a worker's trailing "any shards left?" claim
  /// can never touch freed memory.
  std::atomic<int> active_workers{0};
  /// Set on the first throw so unclaimed shards are skipped.
  std::atomic<bool> cancelled{false};

  util::Mutex mu;
  util::CondVar all_done;
  /// Lowest-shard-index exception, matching what serial execution would
  /// surface first regardless of completion order.
  std::exception_ptr exception BLAZEIT_GUARDED_BY(mu);
  int64_t exception_shard BLAZEIT_GUARDED_BY(mu) = -1;
};

struct ThreadPool::Impl {
  util::Mutex mu;
  util::CondVar work_available;
  std::deque<Job*> queue BLAZEIT_GUARDED_BY(mu);
  /// Touched only by Reconfigure (documented not to race with RunShards)
  /// and the const sizing accessors, so deliberately not guarded.
  std::vector<std::thread> workers;
  bool shutting_down BLAZEIT_GUARDED_BY(mu) = false;

  /// Oldest job with unclaimed shards; erases drained jobs encountered
  /// during the scan.
  Job* PickJobLocked() BLAZEIT_REQUIRES(mu);
};

ThreadPool& ThreadPool::Instance() {
  static ThreadPool* pool = new ThreadPool();  // leaked: outlives all users
  return *pool;
}

int ThreadPool::ThreadsFromEnv() {
  const char* env = std::getenv("BLAZEIT_THREADS");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::strtol(env, nullptr, 10);
    return parsed < 1 ? 1 : static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

ThreadPool::ThreadPool() : impl_(new Impl()) {
  Reconfigure(ThreadsFromEnv());
}

ThreadPool::~ThreadPool() {
  Reconfigure(1);
  delete impl_;
}

int ThreadPool::max_parallelism() const {
  return static_cast<int>(impl_->workers.size()) + 1;
}

void ThreadPool::Reconfigure(int threads) {
  if (threads < 1) threads = 1;
  {
    util::MutexLock lock(impl_->mu);
    impl_->shutting_down = true;
  }
  impl_->work_available.NotifyAll();
  for (std::thread& worker : impl_->workers) worker.join();
  impl_->workers.clear();
  {
    util::MutexLock lock(impl_->mu);
    impl_->shutting_down = false;
  }
  for (int slot = 1; slot < threads; ++slot) {
    impl_->workers.emplace_back([this, slot] { WorkerLoop(slot); });
  }
}

ThreadPool::Job* ThreadPool::Impl::PickJobLocked() {
  while (!queue.empty()) {
    Job* job = queue.front();
    if (job->next.load(std::memory_order_relaxed) < job->num_shards) {
      return job;
    }
    // Drained: every shard is claimed (though maybe still running). Drop
    // it so later scans skip it; the owner's unlink tolerates the job
    // already being gone from the queue.
    queue.pop_front();
  }
  return nullptr;
}

void ThreadPool::WorkerLoop(int slot) {
  for (;;) {
    Job* job = nullptr;
    {
      util::MutexLock lock(impl_->mu);
      impl_->work_available.Wait(
          impl_->mu, [this, &job]() BLAZEIT_NO_THREAD_SAFETY_ANALYSIS {
            if (impl_->shutting_down) return true;
            job = impl_->PickJobLocked();
            return job != nullptr;
          });
      if (impl_->shutting_down) return;
      // Registered under the queue lock: the owner unlinks the job under
      // this same lock before freeing it, so attach-or-miss is atomic.
      job->active_workers.fetch_add(1, std::memory_order_relaxed);
    }
    WorkOn(job, slot);
    {
      // Detach *under the job mutex* and notify before releasing it: the
      // owner's wait predicate requires active_workers == 0, so if the
      // decrement happened unlocked, a spurious wakeup in the window
      // between decrement and notify could observe completion, return
      // from RunShards, and destroy the stack-allocated Job while this
      // thread still needs its mutex.
      util::MutexLock lock(job->mu);
      job->active_workers.fetch_sub(1, std::memory_order_acq_rel);
      job->all_done.NotifyAll();
    }
  }
}

void ThreadPool::WorkOn(Job* job, int slot) {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* caller_shards = registry.GetCounter(
      "exec.shards{where=caller}", obs::Stability::kUnstable);
  static obs::Counter* worker_shards = registry.GetCounter(
      "exec.shards{where=worker}", obs::Stability::kUnstable);
  for (;;) {
    const int64_t shard = job->next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= job->num_shards) return;
    if (!job->cancelled.load(std::memory_order_relaxed)) {
      (slot == 0 ? caller_shards : worker_shards)->Add();
      t_inside_shard = true;
      try {
        (*job->fn)(shard, slot);
      } catch (...) {
        job->cancelled.store(true, std::memory_order_relaxed);
        util::MutexLock lock(job->mu);
        if (job->exception_shard < 0 || shard < job->exception_shard) {
          job->exception = std::current_exception();
          job->exception_shard = shard;
        }
      }
      t_inside_shard = false;
    }
    if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job->num_shards) {
      util::MutexLock lock(job->mu);
      job->all_done.NotifyAll();
    }
  }
}

void ThreadPool::RunShards(
    int64_t num_shards, const std::function<void(int64_t shard, int slot)>& fn) {
  if (num_shards <= 0) return;

  // Call and shard counts are deterministic functions of the work (shard
  // geometry is fixed-size and sharding decisions depend only on problem
  // sizes), hence kStable; *where* each shard runs — inline, on the
  // caller, or on a worker — and the queue depth are scheduling artifacts,
  // hence kUnstable.
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  static obs::Counter* run_calls =
      registry.GetCounter("exec.run_calls", obs::Stability::kStable);
  static obs::Counter* shards_total =
      registry.GetCounter("exec.shards_total", obs::Stability::kStable);
  static obs::Histogram* shards_per_run = registry.GetHistogram(
      "exec.shards_per_run", {1, 2, 4, 8, 16, 32, 64, 128},
      obs::Stability::kStable);
  run_calls->Add();
  shards_total->Add(num_shards);
  shards_per_run->Observe(num_shards);

  // Serial paths: pool disabled, a single shard, or a nested call from
  // inside a shard (the pool is busy running *us*; queueing would
  // deadlock when every worker waits on its own sub-job). Inline
  // execution in ascending shard order is exactly the serial program.
  if (!enabled() || num_shards == 1 || t_inside_shard) {
    static obs::Counter* inline_shards =
        registry.GetCounter("exec.shards{where=inline}",
                            obs::Stability::kUnstable);
    inline_shards->Add(num_shards);
    for (int64_t shard = 0; shard < num_shards; ++shard) {
      fn(shard, 0);
    }
    return;
  }

  Job job;
  job.num_shards = num_shards;
  job.fn = &fn;
  {
    util::MutexLock lock(impl_->mu);
    impl_->queue.push_back(&job);
    static obs::Gauge* queue_depth =
        registry.GetGauge("exec.queue_depth", obs::Stability::kUnstable);
    queue_depth->Set(static_cast<int64_t>(impl_->queue.size()));
  }
  impl_->work_available.NotifyAll();

  // The caller is slot 0 and works too: no idle thread, and a saturated
  // pool degrades to caller-does-everything rather than stalling.
  WorkOn(&job, 0);

  {
    // Unlink so no further worker can attach; registered workers hold
    // active_workers and are drained below before `job` leaves scope.
    util::MutexLock lock(impl_->mu);
    for (auto it = impl_->queue.begin(); it != impl_->queue.end(); ++it) {
      if (*it == &job) {
        impl_->queue.erase(it);
        break;
      }
    }
  }
  {
    util::MutexLock lock(job.mu);
    job.all_done.Wait(job.mu, [&job] {
      return job.done.load(std::memory_order_acquire) == job.num_shards &&
             job.active_workers.load(std::memory_order_acquire) == 0;
    });
  }
  if (job.exception) std::rethrow_exception(job.exception);
}

}  // namespace exec
}  // namespace blazeit
