#ifndef BLAZEIT_EXEC_PARALLEL_FOR_H_
#define BLAZEIT_EXEC_PARALLEL_FOR_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "exec/thread_pool.h"

namespace blazeit {
namespace exec {

/// Deterministic data-parallel loops over index ranges.
///
/// The design rule that makes every parallel query path bit-identical to
/// serial execution: the range [0, total) is split into *fixed-size*
/// shards whose boundaries depend only on (total, shard_size) — never on
/// the thread count — and results are either written to disjoint
/// per-index slots or merged in ascending shard order. Within a shard,
/// execution is the plain serial loop. So for any thread count (including
/// the pool-disabled serial path) every float is computed by the same
/// expression over the same operands in the same order.

/// Default shard size for per-frame work. Large enough that shard
/// bookkeeping amortizes to noise, small enough to load-balance a few
/// hundred frames across many cores.
inline constexpr int64_t kDefaultShardSize = 256;

/// Number of fixed-size shards covering [0, total).
inline int64_t NumShards(int64_t total, int64_t shard_size) {
  return shard_size <= 0 ? 0 : (total + shard_size - 1) / shard_size;
}

/// Calls fn(begin, end, slot) for each shard [begin, end) of [0, total),
/// in parallel on the global pool. `slot` (in [0, max_parallelism)) is
/// stable for the duration of one shard — index per-worker scratch with
/// it. fn must confine writes to per-index or per-shard locations.
void ParallelFor(int64_t total, int64_t shard_size,
                 const std::function<void(int64_t begin, int64_t end,
                                          int slot)>& fn);

/// Maps each shard to a value and returns the values in ascending shard
/// order — the deterministic input to a serial fold. The per-shard
/// computation runs in parallel; the returned vector's order never
/// depends on thread count or completion order.
template <typename T>
std::vector<T> ParallelMap(
    int64_t total, int64_t shard_size,
    const std::function<T(int64_t begin, int64_t end, int slot)>& fn) {
  const int64_t shards = NumShards(total, shard_size);
  std::vector<T> results(static_cast<size_t>(shards));
  ThreadPool::Instance().RunShards(shards, [&](int64_t shard, int slot) {
    const int64_t begin = shard * shard_size;
    const int64_t end = begin + shard_size < total ? begin + shard_size : total;
    results[static_cast<size_t>(shard)] = fn(begin, end, slot);
  });
  return results;
}

}  // namespace exec
}  // namespace blazeit

#endif  // BLAZEIT_EXEC_PARALLEL_FOR_H_
