#ifndef BLAZEIT_NN_SPECIALIZED_NN_H_
#define BLAZEIT_NN_SPECIALIZED_NN_H_

#include <memory>
#include <vector>

#include "nn/layers.h"
#include "util/artifact_cache.h"
#include "util/status.h"
#include "video/synthetic_video.h"

namespace blazeit {

/// Mini-batch training configuration of a specialized NN. Defaults follow
/// the paper (Section 9: cross-entropy loss, batch size 16, SGD momentum
/// 0.9, one epoch).
struct TrainConfig {
  int epochs = 1;
  int batch_size = 16;
  double lr = 0.02;
  /// Multiplicative learning-rate decay applied after each epoch.
  double lr_decay = 0.5;
  double momentum = 0.9;
  uint64_t seed = 42;
};

/// Configuration of a specialized NN (Sections 3, 9). The raster size and
/// MLP shape stand in for the paper's 65x65-input tiny ResNet; what matters
/// to the query optimizer is the accuracy/cost trade-off, which is
/// preserved (the cost model charges the paper's 10,000 fps rate).
struct SpecializedNNConfig {
  int raster_width = 32;
  int raster_height = 32;
  std::vector<int> hidden_dims = {64};
  TrainConfig train;
  /// Cap on the number of labeled frames used for training (subsampled
  /// evenly if the labeled day is longer).
  int64_t max_train_frames = 30000;
  /// Optional persistent cache for trained weights and per-frame outputs
  /// (not owned; must outlive any NN trained with this config). Training
  /// and inference are deterministic per (day, labels, config), so cached
  /// artifacts are bit-identical to recomputation — query outputs and
  /// simulated costs never depend on whether this is set. The catalog
  /// wires the detection store in here; nullptr disables persistence.
  ArtifactCache* cache = nullptr;
};

/// Renders and flattens the frame at the specialized-NN raster size: the
/// shared input representation of all specialized models.
std::vector<float> FrameFeatures(const SyntheticVideo& video, int64_t frame,
                                 int width, int height);

/// The paper's rule for sizing the output layer of a counting NN
/// (Section 6.2): number of classes = the highest count occurring in at
/// least `min_fraction` of the labeled frames, plus one.
int ChooseNumClasses(const std::vector<int>& counts,
                     double min_fraction = 0.01);

/// A specialized NN with a shared trunk and one softmax "count head" per
/// queried object class (Section 7.1: for multi-class queries a single
/// network returns a separate confidence per class, chosen for class-
/// imbalance reasons). A single-head instance is the counting NN used for
/// aggregation (Section 6.2).
class SpecializedNN {
 public:
  /// Trains on a labeled day. `head_labels[h][i]` is the count label of
  /// head `h` at frame `i` of `train_day` (produced by the full detector —
  /// the "labeled set" of Section 2). Labels are clamped to the per-head
  /// class count chosen by ChooseNumClasses.
  static Result<SpecializedNN> Train(
      const SyntheticVideo& train_day,
      const std::vector<std::vector<int>>& head_labels,
      const SpecializedNNConfig& config);

  int num_heads() const;
  /// Number of count classes of a head (counts 0 .. classes-1).
  int head_classes(int head) const;
  /// Number of labeled frames actually used for training (for cost
  /// accounting: CostMeter::ChargeTraining).
  int64_t trained_frames() const;

  /// Expected count under the head's softmax, sum_k k * p_k, per frame
  /// (less biased than the argmax for aggregation). One forward pass per
  /// ~256 frames.
  std::vector<float> ExpectedCountsForFrames(
      const SyntheticVideo& video, const std::vector<int64_t>& frames,
      int head = 0) const;

  /// Importance-sampling signal for scrubbing (Section 7) per frame: the
  /// paper's sum over heads of P(count >= min_counts[h]) ("the sum of the
  /// probability of at least one bus and at least five cars"). Higher
  /// means the frame more likely satisfies the conjunctive "at least N of
  /// each class" predicate. Heads past the end of `min_counts` do not
  /// contribute.
  std::vector<float> QueryConfidencesForFrames(
      const SyntheticVideo& video, const std::vector<int64_t>& frames,
      const std::vector<int>& min_counts) const;

 private:
  struct Impl;
  explicit SpecializedNN(std::shared_ptr<Impl> impl)
      : impl_(std::move(impl)) {}

  /// Concatenated per-head softmax probabilities for each frame (the shared
  /// kernel of all inference entry points), served from the artifact cache
  /// when one is configured; misses run batched forward passes and are
  /// written back. Returns one flat row-major buffer of
  /// frames.size() x (sum of head class counts) floats — full-day
  /// evaluations stay a single allocation, not one vector per frame.
  std::vector<float> ProbsForFrames(const SyntheticVideo& video,
                                    const std::vector<int64_t>& frames) const;

  std::shared_ptr<Impl> impl_;
};

}  // namespace blazeit

#endif  // BLAZEIT_NN_SPECIALIZED_NN_H_
