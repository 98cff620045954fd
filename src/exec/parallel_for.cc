#include "exec/parallel_for.h"

namespace blazeit {
namespace exec {

void ParallelFor(int64_t total, int64_t shard_size,
                 const std::function<void(int64_t begin, int64_t end,
                                          int slot)>& fn) {
  const int64_t shards = NumShards(total, shard_size);
  ThreadPool::Instance().RunShards(shards, [&](int64_t shard, int slot) {
    const int64_t begin = shard * shard_size;
    const int64_t end = begin + shard_size < total ? begin + shard_size : total;
    fn(begin, end, slot);
  });
}

}  // namespace exec
}  // namespace blazeit
