#ifndef BLAZEIT_EXEC_THREAD_POOL_H_
#define BLAZEIT_EXEC_THREAD_POOL_H_

#include <cstdint>
#include <functional>

namespace blazeit {
namespace exec {

/// The process-wide worker pool behind ParallelFor / FramePipeline. One
/// singleton serves every query path (NN inference and training GEMMs,
/// filter scoring, frame scans), so total CPU use stays bounded no matter
/// how many executors are live.
///
/// Sizing: BLAZEIT_THREADS in the environment sets the total parallelism
/// (the calling thread participates, so N means the caller plus N-1
/// workers); unset or empty means hardware_concurrency; "1" or "0"
/// disables the pool entirely — every RunShards call then executes inline
/// on the caller, byte-for-byte the serial program.
///
/// Determinism contract: the pool only distributes *shards* (see
/// parallel_for.h). Which thread runs a shard, and in what order shards
/// complete, is scheduling noise — callers must write results into
/// per-shard slots (merged in shard-index order) or disjoint per-index
/// locations, and must keep any cross-shard reduction a fixed-order serial
/// chain. Every consumer in this repo follows that rule, which is why
/// query outputs are bit-identical at any thread count (asserted by
/// tests/parallel_determinism_test.cc).
class ThreadPool {
 public:
  /// The singleton, created on first use with the BLAZEIT_THREADS sizing.
  static ThreadPool& Instance();

  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism: workers + the participating caller; >= 1. This is
  /// also the number of scratch slots a caller must provision (slot ids
  /// passed to shard functions are in [0, max_parallelism())).
  int max_parallelism() const;

  /// True when worker threads exist (max_parallelism() > 1).
  bool enabled() const { return max_parallelism() > 1; }

  /// Resizes the pool to a total parallelism of `threads` (clamped to
  /// >= 1; 1 means no workers, fully serial). Joins existing workers
  /// first, so it must not race with RunShards — tests and benches call it
  /// between runs to sweep thread counts; servers configure once via the
  /// environment.
  void Reconfigure(int threads);

  /// Runs fn(shard, slot) for every shard in [0, num_shards), distributing
  /// shards dynamically over the workers and the calling thread, and
  /// blocks until all shards finish. `slot` identifies the executing
  /// lane in [0, max_parallelism()) for per-worker scratch reuse; slot 0
  /// is always the calling thread.
  ///
  /// Exceptions: if shard functions throw, the exception from the
  /// lowest-numbered throwing shard is rethrown on the caller (the same
  /// exception serial execution would surface first); remaining unclaimed
  /// shards are abandoned.
  ///
  /// Nested use: calling RunShards from inside a shard function runs the
  /// inner shards inline on the current thread (serially, in shard order)
  /// rather than deadlocking on the already-busy pool.
  void RunShards(int64_t num_shards,
                 const std::function<void(int64_t shard, int slot)>& fn);

  /// Parallelism requested by the environment (BLAZEIT_THREADS, falling
  /// back to hardware_concurrency). Exposed for tests of the knob parsing.
  static int ThreadsFromEnv();

 private:
  struct Job;

  ThreadPool();

  void WorkerLoop(int slot);
  /// Claims and runs shards of `job` until none remain.
  static void WorkOn(Job* job, int slot);

  struct Impl;
  Impl* impl_;  // owned; keeps <thread>/<mutex> out of this header
};

}  // namespace exec
}  // namespace blazeit

#endif  // BLAZEIT_EXEC_THREAD_POOL_H_
