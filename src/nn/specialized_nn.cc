#include "nn/specialized_nn.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <numeric>

#include "exec/frame_pipeline.h"
#include "exec/parallel_for.h"
#include "exec/thread_pool.h"
#include "nn/loss.h"
#include "obs/metrics.h"
#include "nn/optimizer.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "video/render_features.h"

namespace blazeit {

std::vector<float> FrameFeatures(const SyntheticVideo& video, int64_t frame,
                                 int width, int height) {
  // Thin wrapper over the fused render→feature kernel
  // (video/render_features.h); batch loops skip this vector and render
  // straight into the NN input row.
  std::vector<float> features(static_cast<size_t>(width) * height *
                              kFeatureChannels);
  RenderFrameFeatures(video, frame, width, height, features.data());
  return features;
}

int ChooseNumClasses(const std::vector<int>& counts, double min_fraction) {
  if (counts.empty()) return 1;
  std::map<int, int64_t> hist;
  for (int c : counts) ++hist[std::max(0, c)];
  const double n = static_cast<double>(counts.size());
  int chosen = 0;
  int max_count = 0;
  for (const auto& [count, freq] : hist) {
    max_count = std::max(max_count, count);
    if (static_cast<double>(freq) / n >= min_fraction) {
      chosen = std::max(chosen, count);
    }
  }
  if (chosen == 0 && max_count > 0 && hist[0] / n < 1.0) {
    // Degenerate histogram (every non-zero bin below the cutoff): fall back
    // to covering everything seen.
    chosen = max_count;
  }
  return chosen + 1;
}

struct SpecializedNN::Impl {
  SpecializedNNConfig config;
  std::unique_ptr<Sequential> trunk;
  std::vector<std::unique_ptr<Linear>> heads;
  std::vector<int> head_classes;
  int64_t trained_frames = 0;
  int input_dim = 0;
  /// Content fingerprint of (training day, labels, config): the identity of
  /// this trained model in the artifact cache.
  uint64_t fingerprint = 0;
  ArtifactCache* cache = nullptr;

  /// The trunk's Linear+ReLU blocks, then one Linear head per count head,
  /// He-initialized from `rng` in that order; a null `rng` leaves every
  /// weight zero for a caller that loads trained weights.
  void BuildLayers(Rng* rng) {
    trunk = std::make_unique<Sequential>();
    int dim = input_dim;
    for (int hidden : config.hidden_dims) {
      trunk->Add(std::make_unique<Linear>(dim, hidden, rng));
      trunk->Add(std::make_unique<ReLU>());
      dim = hidden;
    }
    for (int classes : head_classes) {
      heads.push_back(std::make_unique<Linear>(dim, classes, rng));
    }
  }

  /// Weights plus biases of the layers BuildLayers makes, from the shapes
  /// alone: the length a cached weights blob must have.
  size_t ParamCount() const {
    size_t total = 0;
    size_t dim = static_cast<size_t>(input_dim);
    for (int hidden : config.hidden_dims) {
      total += (dim + 1) * static_cast<size_t>(hidden);
      dim = static_cast<size_t>(hidden);
    }
    for (int classes : head_classes) {
      total += (dim + 1) * static_cast<size_t>(classes);
    }
    return total;
  }

  std::vector<ParamRef> AllParams() {
    std::vector<ParamRef> params = trunk->Params();
    for (auto& head : heads) {
      for (ParamRef p : head->Params()) params.push_back(p);
    }
    return params;
  }
};

namespace {

/// Training renders its rows a chunk of kTrainChunkBatches batches ahead
/// of SGD, in render shards of kTrainRenderShard rows. Both sizes are
/// fixed, so shard boundaries never depend on the thread count (and rows
/// are disjoint, so they could not change a bit anyway).
constexpr int64_t kTrainChunkBatches = 4;
constexpr int64_t kTrainRenderShard = 4;

/// Rows [begin, begin + frames.size()) of one epoch's shuffled order:
/// each row's training frame and noise seed, and the batch matrices the
/// rows render into (batch b holds rows b * batch_size onward).
struct TrainChunk {
  int64_t begin = 0;
  std::vector<int64_t> frames;
  std::vector<uint64_t> seeds;
  std::vector<Matrix> batches;
};

/// Fingerprint of everything that determines the trained weights. The
/// cache pointer itself is deliberately excluded — it selects where
/// artifacts live, not what they contain.
uint64_t TrainFingerprint(const SyntheticVideo& train_day,
                          const std::vector<std::vector<int>>& head_labels,
                          const SpecializedNNConfig& config) {
  Fingerprint fp;
  fp.Mix(train_day.fingerprint())
      .Mix(config.raster_width)
      .Mix(config.raster_height)
      .MixRange(config.hidden_dims)
      .Mix(config.train.epochs)
      .Mix(config.train.batch_size)
      .Mix(config.train.lr)
      .Mix(config.train.lr_decay)
      .Mix(config.train.momentum)
      .Mix(config.train.seed)
      .Mix(config.max_train_frames)
      // A constant of the stored key format: dropping it would re-key
      // every stored weights blob and NN output.
      .Mix(0);
  fp.Mix(static_cast<uint64_t>(head_labels.size()));
  for (const std::vector<int>& labels : head_labels) fp.MixRange(labels);
  return fp.value();
}

}  // namespace

Result<SpecializedNN> SpecializedNN::Train(
    const SyntheticVideo& train_day,
    const std::vector<std::vector<int>>& head_labels,
    const SpecializedNNConfig& config) {
  if (head_labels.empty())
    return Status::InvalidArgument("at least one head required");
  const int64_t n_labeled = static_cast<int64_t>(head_labels[0].size());
  if (n_labeled == 0)
    return Status::InvalidArgument("labeled set must be non-empty");
  for (const auto& labels : head_labels) {
    if (static_cast<int64_t>(labels.size()) != n_labeled)
      return Status::InvalidArgument("all heads need equally many labels");
  }
  if (n_labeled > train_day.num_frames())
    return Status::InvalidArgument(
        "more labels than frames in the training day");
  if (config.train.batch_size <= 0)
    return Status::InvalidArgument("batch size must be positive");

  auto impl = std::make_shared<Impl>();
  impl->config = config;
  // 4 channels per grid cell: pooled R, G, B + foreground deviation.
  impl->input_dim = config.raster_width * config.raster_height * 4;

  // Subsample the labeled set evenly if it exceeds the training budget.
  std::vector<int64_t> indices;
  if (n_labeled <= config.max_train_frames) {
    indices.resize(static_cast<size_t>(n_labeled));
    std::iota(indices.begin(), indices.end(), 0);
  } else {
    double stride = static_cast<double>(n_labeled) /
                    static_cast<double>(config.max_train_frames);
    for (int64_t i = 0; i < config.max_train_frames; ++i) {
      indices.push_back(static_cast<int64_t>(i * stride));
    }
  }
  impl->trained_frames =
      static_cast<int64_t>(indices.size()) * config.train.epochs;

  // Size each head per the paper's 1% rule and clamp labels accordingly.
  const size_t num_heads = head_labels.size();
  std::vector<std::vector<int>> clamped(num_heads);
  for (size_t h = 0; h < num_heads; ++h) {
    std::vector<int> sub;
    sub.reserve(indices.size());
    for (int64_t idx : indices)
      sub.push_back(head_labels[h][static_cast<size_t>(idx)]);
    const int classes = ChooseNumClasses(sub);
    impl->head_classes.push_back(classes);
    for (int& c : sub) c = std::clamp(c, 0, classes - 1);
    clamped[h] = std::move(sub);
  }

  // With a persistent cache, a previous process may already have trained
  // this exact model (same day, labels, and config — the fingerprint covers
  // them all). The blob is looked up before any layer exists: a hit builds
  // the layers without their He init, copies the weights in and never
  // seeds the training Rng, so it skips all of the work below that the
  // loaded weights would overwrite. The architecture, head sizing, and
  // trained_frames accounting above ran identically, so a warm model is
  // indistinguishable from a cold one. A miss, or a blob of the wrong
  // length, runs the cold sequence unchanged: Rng, trunk and head init,
  // training.
  impl->fingerprint = TrainFingerprint(train_day, head_labels, config);
  impl->cache = config.cache;
  std::vector<float> blob;
  bool loaded = false;
  if (config.cache != nullptr &&
      config.cache->GetBlob(impl->fingerprint, &blob)) {
    const size_t total_params = impl->ParamCount();
    loaded = blob.size() == total_params;
    if (!loaded) {
      BLAZEIT_LOG(kWarning)
          << "cached NN weights have " << blob.size() << " params, model has "
          << total_params << "; retraining";
    }
  }
  if (loaded) {
    impl->BuildLayers(/*rng=*/nullptr);
    auto next = blob.begin();
    for (const ParamRef& p : impl->AllParams()) {
      const auto end = next + static_cast<std::ptrdiff_t>(p.value->size());
      std::copy(next, end, p.value->begin());
      next = end;
    }
    static obs::Counter* weight_hits =
        obs::MetricsRegistry::Global().GetCounter("nn.weights_cache_hits",
                                                  obs::Stability::kStable);
    weight_hits->Add();
    return SpecializedNN(std::move(impl));
  }

  Rng rng(config.train.seed);
  impl->BuildLayers(&rng);
  // Collect all parameters for the optimizer.
  std::vector<ParamRef> params = impl->AllParams();

  SgdOptimizer opt(params, config.train.lr, config.train.momentum);

  const int64_t n = static_cast<int64_t>(indices.size());
  std::vector<int64_t> order(static_cast<size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  std::vector<SoftmaxCrossEntropy> losses(num_heads);
  const int64_t batch_size = config.train.batch_size;
  const int64_t chunk_rows = kTrainChunkBatches * batch_size;
  const int64_t num_chunks = exec::NumShards(n, chunk_rows);
  // Two chunk buffers: SGD reads one while the pool renders the other.
  std::array<TrainChunk, 2> chunks;
  exec::ThreadPool& pool = exec::ThreadPool::Instance();
  std::vector<Image> scratch(static_cast<size_t>(pool.max_parallelism()));

  for (int epoch = 0; epoch < config.train.epochs; ++epoch) {
    std::shuffle(order.begin(), order.end(), rng.engine());
    double epoch_loss = 0.0;
    int64_t batches = 0;
    // Points chunk `c` at its rows of this epoch's order, computes their
    // frames and noise seeds, and sizes its batch matrices; runs on the
    // caller, between pool jobs.
    auto prepare = [&](int64_t c, TrainChunk* chunk) {
      chunk->begin = c * chunk_rows;
      const int64_t rows = std::min(chunk_rows, n - chunk->begin);
      chunk->frames.resize(static_cast<size_t>(rows));
      for (int64_t r = 0; r < rows; ++r) {
        chunk->frames[static_cast<size_t>(r)] = indices[static_cast<size_t>(
            order[static_cast<size_t>(chunk->begin + r)])];
      }
      chunk->seeds.resize(chunk->frames.size());
      train_day.NoiseSeeds(chunk->frames.data(), chunk->frames.size(),
                           chunk->seeds.data());
      chunk->batches.resize(
          static_cast<size_t>(exec::NumShards(rows, batch_size)));
      for (size_t b = 0; b < chunk->batches.size(); ++b) {
        const int64_t batch_begin = static_cast<int64_t>(b) * batch_size;
        chunk->batches[b].Resize(
            static_cast<int>(std::min(batch_size, rows - batch_begin)),
            impl->input_dim);
      }
      return exec::NumShards(rows, kTrainRenderShard);
    };
    // Renders shard `shard` of `chunk`'s rows into its batch matrices.
    auto render_shard = [&](TrainChunk* chunk, int64_t shard, int slot) {
      const int64_t end =
          std::min(static_cast<int64_t>(chunk->frames.size()),
                   (shard + 1) * kTrainRenderShard);
      for (int64_t r = shard * kTrainRenderShard; r < end; ++r) {
        const size_t row = static_cast<size_t>(r);
        RenderFrameFeatures(
            train_day, chunk->frames[row], chunk->seeds[row],
            config.raster_width, config.raster_height,
            chunk->batches[static_cast<size_t>(r / batch_size)].Row(
                static_cast<int>(r % batch_size)),
            &scratch[static_cast<size_t>(slot)]);
      }
    };
    // One SGD step per batch of `chunk`, in the epoch's batch order.
    auto sgd = [&](const TrainChunk& chunk) {
      for (size_t b = 0; b < chunk.batches.size(); ++b) {
        const Matrix& x = chunk.batches[b];
        const int64_t start =
            chunk.begin + static_cast<int64_t>(b) * batch_size;
        std::vector<std::vector<int>> y(
            num_heads, std::vector<int>(static_cast<size_t>(x.rows())));
        for (int i = 0; i < x.rows(); ++i) {
          size_t pos =
              static_cast<size_t>(order[static_cast<size_t>(start + i)]);
          for (size_t h = 0; h < num_heads; ++h)
            y[h][static_cast<size_t>(i)] = clamped[h][pos];
        }
        Matrix trunk_out = impl->trunk->Forward(x);
        Matrix dtrunk(trunk_out.rows(), trunk_out.cols());
        for (size_t h = 0; h < num_heads; ++h) {
          Matrix logits = impl->heads[h]->Forward(trunk_out);
          epoch_loss += losses[h].Forward(logits, y[h]);
          Matrix dhead = impl->heads[h]->Backward(losses[h].Backward());
          for (size_t j = 0; j < dtrunk.data().size(); ++j)
            dtrunk.data()[j] += dhead.data()[j];
        }
        impl->trunk->Backward(dtrunk);
        opt.Step();
        opt.ZeroGrad();
        ++batches;
      }
    };

    // Chunk 0 renders on every lane. Then one job per chunk: shard 0 runs
    // chunk c's SGD while the other shards render chunk c + 1 on the
    // remaining lanes. GEMMs called from inside a shard run inline, which
    // the pool's determinism contract makes bit-neutral. At a 16x16
    // raster with hidden {32}, training's 16-row GEMMs are below the
    // sharding threshold anyway; at the default 32x32 raster with hidden
    // {64}, the first layer's two gradient GEMMs reach it and give up the
    // lanes they would shard over to the next chunk's render
    // (BM_DefaultNNTrain times both trades). With the pool off, the job
    // runs SGD first and then renders, in shard order.
    const int64_t first_shards = prepare(0, &chunks[0]);
    pool.RunShards(first_shards, [&](int64_t shard, int slot) {
      render_shard(&chunks[0], shard, slot);
    });
    for (int64_t c = 0; c < num_chunks; ++c) {
      const TrainChunk& current = chunks[static_cast<size_t>(c % 2)];
      TrainChunk* next = &chunks[static_cast<size_t>((c + 1) % 2)];
      const int64_t next_shards = c + 1 < num_chunks ? prepare(c + 1, next) : 0;
      pool.RunShards(1 + next_shards, [&](int64_t shard, int slot) {
        if (shard == 0) {
          sgd(current);
        } else {
          render_shard(next, shard - 1, slot);
        }
      });
    }
    BLAZEIT_LOG(kDebug) << "specialized NN epoch " << epoch << " loss "
                        << (batches ? epoch_loss / batches : 0.0);
    static obs::Counter* train_batches =
        obs::MetricsRegistry::Global().GetCounter("nn.train_batches",
                                                  obs::Stability::kStable);
    train_batches->Add(batches);
    opt.set_lr(opt.lr() * config.train.lr_decay);
  }
  if (config.cache != nullptr) {
    blob.clear();
    for (const ParamRef& p : params) {
      blob.insert(blob.end(), p.value->begin(), p.value->end());
    }
    config.cache->PutBlob(impl->fingerprint, blob);
  }
  return SpecializedNN(std::move(impl));
}

int SpecializedNN::num_heads() const {
  return static_cast<int>(impl_->heads.size());
}

int SpecializedNN::head_classes(int head) const {
  return impl_->head_classes[static_cast<size_t>(head)];
}

int64_t SpecializedNN::trained_frames() const {
  return impl_->trained_frames;
}

namespace {
constexpr int kEvalBatch = 256;
}  // namespace

std::vector<float> SpecializedNN::ProbsForFrames(
    const SyntheticVideo& video, const std::vector<int64_t>& frames) const {
  size_t concat_size = 0;
  for (int classes : impl_->head_classes) {
    concat_size += static_cast<size_t>(classes);
  }
  std::vector<float> out(frames.size() * concat_size);
  std::vector<size_t> miss;

  ArtifactCache* cache = impl_->cache;
  const uint64_t ns =
      cache ? HashCombine(impl_->fingerprint, video.fingerprint()) : 0;
  if (cache != nullptr) {
    cache->GetFrameFloatsRun(ns, frames, concat_size, out.data(), &miss);
  } else {
    miss.resize(frames.size());
    std::iota(miss.begin(), miss.end(), size_t{0});
  }

  // Batched forward passes over the misses, sharded across the exec pool
  // (one eval batch per shard: its frames' noise seeds computed together,
  // then each frame rendered into the worker slot's scratch image and
  // input matrix). Layer math is row-independent and Infer is
  // stateless, so how frames are grouped into batches — and which worker
  // runs which batch — cannot change any output bit: a partially warm
  // cache and any thread count yield the same floats as a cold serial
  // run. Each shard writes only its own frames' disjoint slices of `out`.
  // Frames actually pushed through the kernels, labeled by the SIMD tier
  // dispatch resolved to (latched for the process, so the label — like
  // the count — is stable across pool sizes).
  static obs::Counter* inference_frames =
      obs::MetricsRegistry::Global().GetCounter(
          std::string("nn.inference_frames{tier=") + ActiveSimdTierName() +
              "}",
          obs::Stability::kStable);
  inference_frames->Add(static_cast<int64_t>(miss.size()));
  const int w = impl_->config.raster_width;
  const int h = impl_->config.raster_height;
  exec::FramePipeline::Run(
      static_cast<int64_t>(miss.size()), kEvalBatch,
      [&](int64_t start, int64_t end, exec::FramePipeline::Scratch* scratch) {
        const int batch = static_cast<int>(end - start);
        Matrix& x = scratch->matrix;
        x.Resize(batch, impl_->input_dim);
        int64_t batch_frames[kEvalBatch] = {};
        uint64_t seeds[kEvalBatch] = {};
        for (int i = 0; i < batch; ++i) {
          batch_frames[i] = frames[miss[static_cast<size_t>(start + i)]];
        }
        video.NoiseSeeds(batch_frames, static_cast<size_t>(batch), seeds);
        for (int i = 0; i < batch; ++i) {
          RenderFrameFeatures(video, batch_frames[i], seeds[i], w, h,
                              x.Row(i), &scratch->image);
        }
        Matrix trunk_out = impl_->trunk->Infer(x);
        std::vector<Matrix> head_probs;
        head_probs.reserve(impl_->heads.size());
        for (const auto& head : impl_->heads) {
          head_probs.push_back(Softmax(head->Infer(trunk_out)));
        }
        for (int i = 0; i < batch; ++i) {
          const size_t slot = miss[static_cast<size_t>(start + i)];
          float* dst = out.data() + slot * concat_size;
          for (const Matrix& probs : head_probs) {
            dst = std::copy(probs.Row(i), probs.Row(i) + probs.cols(), dst);
          }
        }
      });
  // Write-back stays a serial frame-ordered sweep after the parallel
  // compute: the store's Put path is mutex-guarded but single-writer
  // ordering keeps segment layout reproducible run to run.
  if (cache != nullptr) {
    std::vector<float> row;
    for (size_t slot : miss) {
      row.assign(
          out.begin() + static_cast<std::ptrdiff_t>(slot * concat_size),
          out.begin() + static_cast<std::ptrdiff_t>((slot + 1) * concat_size));
      cache->PutFrameFloats(ns, frames[slot], row);
    }
  }
  return out;
}

std::vector<float> SpecializedNN::ExpectedCountsForFrames(
    const SyntheticVideo& video, const std::vector<int64_t>& frames,
    int head) const {
  std::vector<float> probs = ProbsForFrames(video, frames);
  size_t concat_size = 0;
  for (int classes : impl_->head_classes) {
    concat_size += static_cast<size_t>(classes);
  }
  size_t head_offset = 0;
  for (int h = 0; h < head; ++h) {
    head_offset += static_cast<size_t>(impl_->head_classes[static_cast<size_t>(h)]);
  }
  const int classes = impl_->head_classes[static_cast<size_t>(head)];
  std::vector<float> out;
  out.reserve(frames.size());
  for (size_t i = 0; i < frames.size(); ++i) {
    const float* row = probs.data() + i * concat_size + head_offset;
    double expected = 0;
    for (int k = 0; k < classes; ++k) {
      expected += static_cast<double>(k) * static_cast<double>(row[k]);
    }
    out.push_back(static_cast<float>(expected));
  }
  return out;
}

std::vector<float> SpecializedNN::QueryConfidencesForFrames(
    const SyntheticVideo& video, const std::vector<int64_t>& frames,
    const std::vector<int>& min_counts) const {
  std::vector<float> out(frames.size(), 0.0f);
  std::vector<float> probs = ProbsForFrames(video, frames);
  size_t concat_size = 0;
  for (int classes : impl_->head_classes) {
    concat_size += static_cast<size_t>(classes);
  }
  size_t head_offset = 0;
  for (size_t head = 0;
       head < impl_->heads.size() && head < min_counts.size(); ++head) {
    const int classes = impl_->head_classes[head];
    // Counts at or above the top class accumulate in the top bin, so
    // clamping the minimum keeps the signal meaningful when the queried
    // count exceeds the training-time class range.
    const int min_c = std::clamp(min_counts[head], 0, classes - 1);
    for (size_t i = 0; i < frames.size(); ++i) {
      const float* row = probs.data() + i * concat_size + head_offset;
      double tail = 0;
      for (int k = min_c; k < classes; ++k) {
        tail += static_cast<double>(row[k]);
      }
      out[i] += static_cast<float>(tail);
    }
    head_offset += static_cast<size_t>(classes);
  }
  return out;
}

}  // namespace blazeit
