#ifndef BLAZEIT_EXEC_FRAME_PIPELINE_H_
#define BLAZEIT_EXEC_FRAME_PIPELINE_H_

#include <cstdint>
#include <functional>

#include "nn/tensor.h"
#include "video/image.h"

namespace blazeit {
namespace exec {

/// Sharded execution of per-frame pipelines (render → feature → NN →
/// detector → filter) with per-worker scratch.
///
/// PR 3's single-thread hot path reuses one scratch Image across a whole
/// batch loop (RenderFrameRegionInto / RenderFrameFeatures) so rendering
/// never allocates per frame. FramePipeline carries that pattern across
/// cores: each worker slot owns one Scratch, reused for every shard that
/// slot executes, so a parallel sweep does O(threads) allocations instead
/// of O(frames) — and zero when the pool is disabled and the caller's
/// slot-0 scratch persists across Run calls.
///
/// Determinism: shards are fixed-size index ranges of the caller's frame
/// list (boundaries independent of thread count; see parallel_for.h), the
/// scratch is fully overwritten per frame by the render kernels, and
/// stage functions write only to per-index output slots. Under those
/// rules a pipeline's output is bit-identical at any thread count.
class FramePipeline {
 public:
  /// Per-worker reusable buffers. Both grow to the high-water mark of the
  /// shards their slot executes and are fully overwritten before each use.
  struct Scratch {
    /// Render target for RenderFrameRegionInto / RenderFrameFeatures.
    Image image;
    /// The specialized NN's inference input batch: ProbsForFrames
    /// Resizes it to each shard's [frames, features] and renders every
    /// row in place.
    Matrix matrix;
  };

  using ShardFn =
      std::function<void(int64_t begin, int64_t end, Scratch* scratch)>;

  /// Runs fn over fixed-size shards [begin, end) of [0, total) on the
  /// global pool, handing each invocation its slot's Scratch.
  static void Run(int64_t total, int64_t shard_size, const ShardFn& fn);
  static void Run(int64_t total, const ShardFn& fn);
};

}  // namespace exec
}  // namespace blazeit

#endif  // BLAZEIT_EXEC_FRAME_PIPELINE_H_
