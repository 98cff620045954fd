// Micro-benchmarks (google-benchmark) for the per-frame building blocks:
// rendering, feature extraction, specialized-NN inference, filters, and the
// simulated detector. These are the wall-clock costs of the simulator; the
// *modeled* costs used in the experiment harnesses come from sim/cost_model.
#include <benchmark/benchmark.h>

#include <numeric>
#include <vector>

#include "core/labeled_set.h"
#include "core/shared_sweep.h"
#include "core/udf.h"
#include "detect/simulated_detector.h"
#include "exec/frame_pipeline.h"
#include "exec/thread_pool.h"
#include "nn/specialized_nn.h"
#include "nn/tensor.h"
#include "stats/bootstrap.h"
#include "stats/control_variates.h"
#include "stats/sampler.h"
#include "util/crc32.h"
#include "util/random.h"
#include "video/datasets.h"
#include "video/render_features.h"

namespace blazeit {
namespace {

const SyntheticVideo& Video() {
  static auto video =
      SyntheticVideo::Create(TaipeiConfig(), 1, 36000).value().release();
  return *video;
}

void BM_RenderFrame(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Video().RenderFrame(frame++ % 36000, 64, 64));
  }
}
BENCHMARK(BM_RenderFrame);

void BM_FrameFeatures(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(FrameFeatures(Video(), frame++ % 36000, 32, 32));
  }
}
BENCHMARK(BM_FrameFeatures);

// The channel means of a 32x32 render, the raster the 16-grid features
// pool: exact lane sums where the values allow them (raster::SumChannels).
void BM_MeanChannels(benchmark::State& state) {
  Image img = Video().RenderFrame(0, 32, 32);
  double means[3];
  for (auto _ : state) {
    img.MeanChannels(means);
    benchmark::DoNotOptimize(means);
  }
}
BENCHMARK(BM_MeanChannels);

// CRC-32 over 8 MiB, about one cold-ingest store's records: the bytewise
// reference loop (1 byte per step) and the slice-by-8 one (8).
void BM_Crc32(benchmark::State& state) {
  std::vector<unsigned char> data(size_t{8} << 20);
  Rng rng(9);
  for (unsigned char& b : data) b = static_cast<unsigned char>(rng.engine()());
  const bool sliced = state.range(0) == 8;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        sliced ? Crc32Update(kCrc32Init, data.data(), data.size())
               : Crc32UpdateBytewise(kCrc32Init, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(data.size()));
}
BENCHMARK(BM_Crc32)->ArgName("bytes_per_step")->Arg(1)->Arg(8);

void BM_SimulatedDetector(benchmark::State& state) {
  SimulatedDetector det;
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(det.Detect(Video(), frame++ % 36000));
  }
}
BENCHMARK(BM_SimulatedDetector);

void BM_GroundTruth(benchmark::State& state) {
  int64_t frame = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(Video().GroundTruth(frame++ % 36000));
  }
}
BENCHMARK(BM_GroundTruth);

void BM_RednessUdf(benchmark::State& state) {
  Image img = Video().RenderFrame(0, 64, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UdfRegistry::Redness(img));
  }
}
BENCHMARK(BM_RednessUdf);

void BM_SpecializedNNInference(benchmark::State& state) {
  static SpecializedNN* nn = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    SpecializedNNConfig cfg;
    cfg.max_train_frames = 4000;
    return new SpecializedNN(
        SpecializedNN::Train(Video(), {labels.Counts(kCar)}, cfg).value());
  }();
  const int batch = static_cast<int>(state.range(0));
  std::vector<int64_t> frames(static_cast<size_t>(batch));
  std::iota(frames.begin(), frames.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn->ExpectedCountsForFrames(Video(), frames));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SpecializedNNInference)->Arg(1)->Arg(64)->Arg(256);

// GEMM kernels at the specialized-NN shapes: the trunk forward pass
// dominates batched inference ([batch, w*h*4] x [w*h*4, hidden]); the
// transpose variants are the weight/input gradients of training. ReLU-like
// sparsity is deliberately absent (features are dense), making these the
// worst-case kernel cost.
Matrix RandomMatrix(Rng* rng, int rows, int cols) {
  Matrix m(rows, cols);
  for (float& v : m.data()) v = static_cast<float>(rng->Normal(0.0, 1.0));
  return m;
}

void BM_MatMul(benchmark::State& state) {
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 256, 4096);
  Matrix b = RandomMatrix(&rng, 4096, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMul);

void BM_MatMulTransposeA(benchmark::State& state) {
  Rng rng(2);
  Matrix a = RandomMatrix(&rng, 256, 4096);  // cached input (batch-major)
  Matrix g = RandomMatrix(&rng, 256, 64);    // upstream gradient
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeA(a, g));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMulTransposeA);

void BM_MatMulTransposeB(benchmark::State& state) {
  Rng rng(3);
  Matrix g = RandomMatrix(&rng, 256, 64);    // upstream gradient
  Matrix w = RandomMatrix(&rng, 4096, 64);   // layer weights
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeB(g, w));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
}
BENCHMARK(BM_MatMulTransposeB);

// The small NN the repo benchmark and `storecli --small-nn` run: a 16x16
// raster (1024 inputs) and one 32-wide hidden layer. The GEMMs are its
// trunk at an inference batch (256 rows) and a training step (16 rows).
SpecializedNNConfig SmallNNConfig() {
  SpecializedNNConfig cfg;
  cfg.raster_width = 16;
  cfg.raster_height = 16;
  cfg.hidden_dims = {32};
  cfg.max_train_frames = 1500;
  return cfg;
}

const std::vector<int>& CarCounts() {
  static const std::vector<int>* counts = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    return new std::vector<int>(labels.Counts(kCar));
  }();
  return *counts;
}

void BM_MatMulSmallNN(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Rng rng(4);
  Matrix a = RandomMatrix(&rng, rows, 1024);
  Matrix b = RandomMatrix(&rng, 1024, 32);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * rows * 1024 * 32);
}
BENCHMARK(BM_MatMulSmallNN)->Arg(256)->Arg(16);

void BM_MatMulTransposeASmallNN(benchmark::State& state) {
  const int rows = static_cast<int>(state.range(0));
  Rng rng(5);
  Matrix a = RandomMatrix(&rng, rows, 1024);  // cached input
  Matrix g = RandomMatrix(&rng, rows, 32);    // upstream gradient
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMulTransposeA(a, g));
  }
  state.SetItemsProcessed(state.iterations() * rows * 1024 * 32);
}
BENCHMARK(BM_MatMulTransposeASmallNN)->Arg(256)->Arg(16);

void BM_SmallNNInference(benchmark::State& state) {
  static SpecializedNN* nn = new SpecializedNN(
      SpecializedNN::Train(Video(), {CarCounts()}, SmallNNConfig()).value());
  const int batch = static_cast<int>(state.range(0));
  std::vector<int64_t> frames(static_cast<size_t>(batch));
  std::iota(frames.begin(), frames.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn->ExpectedCountsForFrames(Video(), frames));
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_SmallNNInference)->Arg(256);

// Cold training at the pool size state.range(0): one lane runs SGD on
// the current chunk of four batches while the others render the next.
void TrainAtPool(benchmark::State& state, const SpecializedNNConfig& cfg) {
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto nn = SpecializedNN::Train(Video(), {CarCounts()}, cfg);
    benchmark::DoNotOptimize(nn);
  }
  state.SetItemsProcessed(state.iterations() * cfg.max_train_frames);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}

void BM_SmallNNTrain(benchmark::State& state) {
  TrainAtPool(state, SmallNNConfig());
}
BENCHMARK(BM_SmallNNTrain)->ArgName("pool")->Arg(1)->Arg(2);

// The default 32x32 raster and hidden {64}, whose first-layer gradient
// GEMMs are large enough to shard but run on the SGD lane only.
void BM_DefaultNNTrain(benchmark::State& state) {
  SpecializedNNConfig cfg;
  cfg.max_train_frames = 1500;
  TrainAtPool(state, cfg);
}
BENCHMARK(BM_DefaultNNTrain)->ArgName("pool")->Arg(1)->Arg(2)->Arg(4);

// ---------------------------------------------------------------------------
// A repeat query's fixed work: a weights-hit Train, the shared tier's run
// read of a test-day sweep, the held-out bootstrap, and the per-frame Rng
// the simulated detector seeds. Serving repeats these for every query.
// ---------------------------------------------------------------------------

void BM_SmallNNTrainWeightsHit(benchmark::State& state) {
  // The blob a cold Train wrote, served back from an in-memory tier.
  SharedSweepCache shared;
  SweepCacheView cache(&shared, /*underlying=*/nullptr);
  SpecializedNNConfig cfg = SmallNNConfig();
  cfg.cache = &cache;
  benchmark::DoNotOptimize(SpecializedNN::Train(Video(), {CarCounts()}, cfg));
  for (auto _ : state) {
    auto nn = SpecializedNN::Train(Video(), {CarCounts()}, cfg);
    benchmark::DoNotOptimize(nn);
  }
}
BENCHMARK(BM_SmallNNTrainWeightsHit);

void BM_SharedSweepRunRead(benchmark::State& state) {
  // A 4,500-frame test day of 6-class NN rows, resident in the shared tier.
  constexpr size_t kWidth = 6;
  std::vector<int64_t> frames(4500);
  std::iota(frames.begin(), frames.end(), 0);
  SharedSweepCache shared;
  {
    SweepCacheView writer(&shared, /*underlying=*/nullptr);
    for (int64_t f : frames) {
      writer.PutFrameFloats(1, f, std::vector<float>(kWidth, 0.25f));
    }
  }
  std::vector<float> out(frames.size() * kWidth);
  std::vector<size_t> miss;
  for (auto _ : state) {
    SweepCacheView view(&shared, /*underlying=*/nullptr);
    miss.clear();
    view.GetFrameFloatsRun(1, frames, kWidth, out.data(), &miss);
    benchmark::DoNotOptimize(out.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(frames.size()));
}
BENCHMARK(BM_SharedSweepRunRead);

void BM_BootstrapAbsError(benchmark::State& state) {
  // The held-out bootstrap of a repo-benchmark aggregate: 1,500 frames,
  // 200 resamples.
  Rng rng(6);
  std::vector<double> predicted(1500), truth(1500);
  for (size_t i = 0; i < truth.size(); ++i) {
    truth[i] = rng.Poisson(1.0);
    predicted[i] = truth[i] + rng.Normal(0.0, 0.3);
  }
  uint64_t seed = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        BootstrapAbsError(predicted, truth, 0.95, 200, ++seed));
  }
  state.SetItemsProcessed(state.iterations() * 200 * 1500);
}
BENCHMARK(BM_BootstrapAbsError);

void BM_RngDetectorLifecycle(benchmark::State& state) {
  // SimulatedDetector::Detect's Rng: seeded per frame, a handful of draws.
  uint64_t frame = 0;
  for (auto _ : state) {
    Rng rng(HashCombine(0x5eed, frame++));
    double sum = rng.Normal(0.0, 0.01) + rng.Normal(0.0, 0.01);
    sum += rng.Bernoulli(0.1) ? 1.0 : 0.0;
    sum += rng.Poisson(0.5);
    benchmark::DoNotOptimize(sum);
  }
}
BENCHMARK(BM_RngDetectorLifecycle);

// ---------------------------------------------------------------------------
// Thread-count axes (PR 4): the sharded frame pipeline and batched NN
// inference at pool sizes 1/2/4/8. On a multi-core machine these are the
// scaling benches (expect near-linear on the render-bound sweep); on a
// single core they pin the overhead of the
// sharding machinery at ~zero. Outputs are bit-identical across the axis
// — only wall clock may move.
// ---------------------------------------------------------------------------

void BM_FrameFeaturesBatchThreads(benchmark::State& state) {
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 1024;
  constexpr int kGrid = 32;
  constexpr size_t kRow = static_cast<size_t>(kGrid) * kGrid * 4;
  std::vector<float> features(kBatch * kRow);
  for (auto _ : state) {
    exec::FramePipeline::Run(
        kBatch, 64,
        [&](int64_t begin, int64_t end, exec::FramePipeline::Scratch* s) {
          for (int64_t i = begin; i < end; ++i) {
            RenderFrameFeatures(Video(), i % 36000, kGrid, kGrid,
                                features.data() + static_cast<size_t>(i) * kRow,
                                &s->image);
          }
        });
    benchmark::DoNotOptimize(features.data());
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_FrameFeaturesBatchThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_SpecializedNNInferenceThreads(benchmark::State& state) {
  static SpecializedNN* nn = [] {
    SimulatedDetector det;
    LabeledSet labels(&Video(), &det, 0.5);
    SpecializedNNConfig cfg;
    cfg.max_train_frames = 4000;
    return new SpecializedNN(
        SpecializedNN::Train(Video(), {labels.Counts(kCar)}, cfg).value());
  }();
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  constexpr int64_t kBatch = 2048;
  std::vector<int64_t> frames(static_cast<size_t>(kBatch));
  std::iota(frames.begin(), frames.end(), 0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(nn->ExpectedCountsForFrames(Video(), frames));
  }
  state.SetItemsProcessed(state.iterations() * kBatch);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_SpecializedNNInferenceThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MatMulThreads(benchmark::State& state) {
  exec::ThreadPool::Instance().Reconfigure(static_cast<int>(state.range(0)));
  Rng rng(1);
  Matrix a = RandomMatrix(&rng, 256, 4096);
  Matrix b = RandomMatrix(&rng, 4096, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 256 * 4096 * 64);
  exec::ThreadPool::Instance().Reconfigure(exec::ThreadPool::ThreadsFromEnv());
}
BENCHMARK(BM_MatMulThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_AdaptiveSampler(benchmark::State& state) {
  // Sampler loop cost on a pre-computed array (no detector in the loop).
  std::vector<double> values(100000);
  Rng rng(3);
  for (auto& v : values) v = rng.Poisson(1.0);
  for (auto _ : state) {
    SamplingConfig cfg;
    cfg.error = 0.05;
    cfg.value_range = 8;
    cfg.seed = 1;
    benchmark::DoNotOptimize(AdaptiveSample(
        100000,
        [&](int64_t f) { return values[static_cast<size_t>(f)]; }, cfg));
  }
}
BENCHMARK(BM_AdaptiveSampler);

}  // namespace
}  // namespace blazeit

BENCHMARK_MAIN();
