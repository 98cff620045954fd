#include "filters/content_filter.h"

#include <numeric>
#include <utility>

#include "exec/frame_pipeline.h"
#include "util/random.h"

namespace blazeit {

ContentFilter::ContentFilter(ImageUdf udf, ArtifactCache* cache,
                             uint64_t udf_fingerprint)
    : udf_(std::move(udf)),
      cache_(udf_fingerprint != 0 ? cache : nullptr) {
  if (cache_ != nullptr) {
    // The raster sides are mixed as ints: existing stores hold content
    // scores under exactly this key.
    identity_ = Fingerprint()
                    .Mix("content-filter")
                    .Mix(udf_fingerprint)
                    .Mix(kRaster)
                    .Mix(kRaster)
                    .value();
  }
}

std::vector<double> ContentFilter::ScoreBatch(
    const SyntheticVideo& video, const std::vector<int64_t>& frames) const {
  std::vector<double> out(frames.size(), 0.0);

  // Serve cache hits first with one run read (serial: ordered access
  // keeps hit accounting reproducible), leaving the misses for the
  // parallel sweep.
  std::vector<size_t> miss;
  const uint64_t ns =
      cache_ ? HashCombine(identity_, video.fingerprint()) : 0;
  if (cache_ == nullptr) {
    miss.resize(frames.size());
    std::iota(miss.begin(), miss.end(), size_t{0});
  } else {
    cache_->GetFrameDoublesRun(ns, frames, 1, out.data(), &miss);
  }

  // Misses render and score in fixed-size shards with per-worker scratch;
  // each shard writes only its own disjoint slots of `out`, so scores are
  // bit-identical to a serial loop at any thread count.
  exec::FramePipeline::Run(
      static_cast<int64_t>(miss.size()),
      [&](int64_t begin, int64_t end, exec::FramePipeline::Scratch* scratch) {
        for (int64_t j = begin; j < end; ++j) {
          const size_t slot = miss[static_cast<size_t>(j)];
          video.RenderFrameRegionInto(frames[slot], Rect{0, 0, 1, 1}, kRaster,
                                      kRaster, &scratch->image);
          out[slot] = udf_(scratch->image);
        }
      });

  if (cache_ != nullptr) {
    for (size_t i : miss) cache_->PutFrameDoubles(ns, frames[i], {out[i]});
  }
  return out;
}

}  // namespace blazeit
