#include "filters/content_filter.h"

#include "exec/frame_pipeline.h"

namespace blazeit {

std::vector<double> ContentFilter::ScoreBatch(
    const SyntheticVideo& video, const std::vector<int64_t>& frames) const {
  std::vector<double> out(frames.size(), 0.0);

  // Serve cache hits first with one run read (serial: ordered access
  // keeps hit accounting reproducible), leaving the misses for the
  // parallel sweep.
  std::vector<size_t> miss;
  ArtifactCache* cache = score_cache();
  const uint64_t ns =
      cache ? HashCombine(cache_identity(), video.fingerprint()) : 0;
  if (cache == nullptr) {
    miss.resize(frames.size());
    std::iota(miss.begin(), miss.end(), size_t{0});
  } else {
    cache->GetFrameDoublesRun(ns, frames, 1, out.data(), &miss);
  }

  // Misses render and score in fixed-size shards with per-worker scratch;
  // each shard writes only its own disjoint slots of `out`, so scores are
  // bit-identical to the serial loop at any thread count.
  exec::FramePipeline::Run(
      static_cast<int64_t>(miss.size()),
      [&](int64_t begin, int64_t end, exec::FramePipeline::Scratch* scratch) {
        for (int64_t j = begin; j < end; ++j) {
          const size_t slot = miss[static_cast<size_t>(j)];
          out[slot] = ScoreInto(video, frames[slot], &scratch->image);
        }
      });

  if (cache != nullptr) {
    for (size_t i : miss) cache->PutFrameDoubles(ns, frames[i], {out[i]});
  }
  return out;
}

}  // namespace blazeit
