#include "core/scrubbing.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "exec/parallel_for.h"
#include "util/logging.h"

namespace blazeit {

bool SatisfiesRequirements(const StreamData& stream, int64_t frame,
                           const std::vector<ClassCountRequirement>& reqs) {
  for (const ClassCountRequirement& req : reqs) {
    const std::vector<int>& counts = stream.test_labels->Counts(req.class_id);
    if (counts[static_cast<size_t>(frame)] < req.min_count) return false;
  }
  return true;
}

std::vector<SketchIndex::FrameRange> SketchCandidates(
    const StreamData& stream, bool use_store_index, FrameWindow window,
    SketchProbe probe, obs::SketchStats* stats) {
  const int64_t window_frames =
      window.end > window.begin ? window.end - window.begin : 0;
  const bool consulted = use_store_index && stream.detection_store != nullptr;
  SketchIndex index;
  if (consulted) {
    index = SketchIndex::Load(stream.detection_store,
                              stream.test_detections_ns);
  }
  std::vector<SketchIndex::FrameRange> ranges;
  if (index.valid()) {
    probe.score_threshold = stream.config.detection_threshold;
    ranges = index.CandidateRanges(window.begin, window.end, probe);
  } else if (window_frames > 0) {
    ranges.push_back({window.begin, window.end});
  }
  if (stats != nullptr) {
    stats->consulted = consulted;
    stats->pruned = index.valid();
    stats->window_frames = window_frames;
    stats->candidate_frames = 0;
    for (const auto& range : ranges) {
      stats->candidate_frames += range.end - range.begin;
    }
  }
  return ranges;
}

RequirementStats CountRequirementInstances(
    const StreamData& stream,
    const std::vector<ClassCountRequirement>& reqs) {
  // Hoist the per-class count vectors (forcing the thread-safe lazy build
  // once, serially) so the sharded scan below is pure reads.
  std::vector<const std::vector<int>*> counts;
  counts.reserve(reqs.size());
  for (const ClassCountRequirement& req : reqs) {
    counts.push_back(&stream.test_labels->Counts(req.class_id));
  }
  const int64_t n = stream.test_day->num_frames();

  // Sharded scan with a fixed-order merge: each shard runs the serial
  // event-counting recurrence locally (in_event reset at its boundary)
  // and reports whether its first/last frames match; the merge then
  // uncounts events that span a shard boundary. Pure integer bookkeeping
  // over fixed shard boundaries — identical to the serial scan at any
  // thread count.
  struct ShardStats {
    int64_t matching = 0;
    int64_t events = 0;
    bool first_matches = false;
    bool last_matches = false;
  };
  std::vector<ShardStats> shards = exec::ParallelMap<ShardStats>(
      n, exec::kDefaultShardSize,
      [&](int64_t begin, int64_t end, int /*slot*/) {
        ShardStats s;
        bool in_event = false;
        for (int64_t t = begin; t < end; ++t) {
          bool match = true;
          for (size_t r = 0; r < counts.size(); ++r) {
            if ((*counts[r])[static_cast<size_t>(t)] < reqs[r].min_count) {
              match = false;
              break;
            }
          }
          if (match) {
            ++s.matching;
            if (!in_event) ++s.events;
            if (t == begin) s.first_matches = true;
          }
          in_event = match;
        }
        s.last_matches = in_event;
        return s;
      });

  RequirementStats out;
  bool prev_last = false;
  for (const ShardStats& s : shards) {
    out.matching_frames += s.matching;
    out.events += s.events;
    // An event running across the boundary was opened in both shards.
    if (prev_last && s.first_matches) --out.events;
    prev_last = s.last_matches;
  }
  return out;
}

namespace {

/// GAP bookkeeping: accepted frames kept sorted; a candidate is admissible
/// if no accepted frame lies within `gap` of it.
bool GapAdmissible(const std::vector<int64_t>& accepted_sorted, int64_t frame,
                   int64_t gap) {
  if (gap <= 0) return true;
  auto it = std::lower_bound(accepted_sorted.begin(), accepted_sorted.end(),
                             frame);
  if (it != accepted_sorted.end() && *it - frame < gap) return false;
  if (it != accepted_sorted.begin() && frame - *(it - 1) < gap) return false;
  return true;
}

void InsertSorted(std::vector<int64_t>* accepted, int64_t frame) {
  accepted->insert(
      std::upper_bound(accepted->begin(), accepted->end(), frame), frame);
}

SketchProbe RequirementsProbe(
    const std::vector<ClassCountRequirement>& reqs) {
  SketchProbe probe;
  probe.requirements = reqs;
  return probe;
}

}  // namespace

ScrubbingExecutor::ScrubbingExecutor(StreamData* stream, ScrubOptions options,
                                     ArtifactCache* sweep_cache,
                                     obs::QueryTrace* trace)
    : stream_(stream),
      cache_(sweep_cache != nullptr ? sweep_cache : stream->artifact_cache),
      options_(options),
      trace_(trace) {}

Result<ScrubResult> ScrubbingExecutor::Run(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, FrameWindow window) {
  if (reqs.empty())
    return Status::InvalidArgument("scrubbing needs at least one class");
  if (limit <= 0) return Status::InvalidArgument("limit must be positive");
  window = ClampFrameWindow(window, stream_->test_day->num_frames());
  confidences_.clear();
  if (window.end <= window.begin) {
    // Range entirely past the recorded day: zero frames match; return
    // empty (and free) rather than training an NN to discover that.
    ScrubResult empty;
    empty.scan_exhausted = true;
    return empty;
  }
  CostMeter meter;

  // --- sketch consultation (opt-in): candidate subranges of the window ---
  ScrubResult result;
  const std::vector<SketchIndex::FrameRange> candidates =
      SketchCandidates(*stream_, options_.use_store_index, window,
                       RequirementsProbe(reqs), &result.sketch);
  const bool pruned = result.sketch.pruned;
  if (candidates.empty()) {
    // Every segment of the window is provably free of matches.
    result.scan_exhausted = true;
    return result;
  }

  // --- training-data check (Section 7.1): any instance in the train day?
  // Sharded count scan; the sum folds in shard order (exact integers).
  std::vector<const std::vector<int>*> train_counts;
  train_counts.reserve(reqs.size());
  for (const ClassCountRequirement& req : reqs) {
    train_counts.push_back(&stream_->train_labels->Counts(req.class_id));
  }
  std::vector<int64_t> shard_instances = exec::ParallelMap<int64_t>(
      stream_->train_day->num_frames(), exec::kDefaultShardSize,
      [&](int64_t begin, int64_t end, int /*slot*/) {
        int64_t matched = 0;
        for (int64_t t = begin; t < end; ++t) {
          bool match = true;
          for (size_t r = 0; r < train_counts.size(); ++r) {
            if ((*train_counts[r])[static_cast<size_t>(t)] <
                reqs[r].min_count) {
              match = false;
              break;
            }
          }
          if (match) ++matched;
        }
        return matched;
      });
  int64_t train_instances = 0;
  for (int64_t count : shard_instances) train_instances += count;
  if (train_instances == 0) {
    BLAZEIT_LOG(kDebug) << "no instances of the scrubbing query in the "
                           "training set; falling back to sequential scan";
    ScrubResult fallback = ScanRanges(reqs, limit, gap, candidates);
    fallback.fell_back_to_scan = true;
    fallback.sketch = result.sketch;
    return fallback;
  }

  // --- train one NN with a count head per class ---
  std::vector<std::vector<int>> head_labels;
  std::vector<int> min_counts;
  head_labels.reserve(reqs.size());
  for (const ClassCountRequirement& req : reqs) {
    head_labels.push_back(stream_->train_labels->Counts(req.class_id));
    min_counts.push_back(req.min_count);
  }
  SpecializedNNConfig nn_config = options_.nn;
  nn_config.train.seed = HashCombine(options_.seed, 0x5c4b);
  nn_config.cache = cache_;
  Result<SpecializedNN> trained = [&] {
    obs::TraceSpan span(trace_, "train", &meter);
    return SpecializedNN::Train(*stream_->train_day, head_labels, nn_config);
  }();
  BLAZEIT_RETURN_NOT_OK(trained.status());
  SpecializedNN nn = std::move(trained).value();
  meter.ChargeTraining(nn.trained_frames());

  // --- score the unseen frames and rank by confidence ---
  // Indices below are positions in test_frames, so confidences_ lines up
  // with test_frames. When pruning applies, the sweep covers only the
  // sketch candidates: a refuted frame provably fails the requirements,
  // so in the unindexed walk it would charge a detector call and change
  // no state, and dropping it leaves the returned frames bit-identical.
  const SyntheticVideo& test = *stream_->test_day;
  std::vector<int64_t> test_frames;
  if (pruned) {
    test_frames.reserve(static_cast<size_t>(result.sketch.candidate_frames));
    for (const auto& range : candidates) {
      for (int64_t t = range.begin; t < range.end; ++t) {
        test_frames.push_back(t);
      }
    }
  } else {
    test_frames.resize(static_cast<size_t>(window.end - window.begin));
    std::iota(test_frames.begin(), test_frames.end(), window.begin);
  }
  {
    obs::TraceSpan span(trace_, "sweep", &meter);
    confidences_ = nn.QueryConfidencesForFrames(test, test_frames, min_counts);
    meter.ChargeSpecializedNN(static_cast<int64_t>(test_frames.size()));
  }
  std::vector<int64_t> order(test_frames.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [this](int64_t a, int64_t b) {
    return confidences_[static_cast<size_t>(a)] >
           confidences_[static_cast<size_t>(b)];
  });

  // --- verify candidates with the full detector, best-first ---
  obs::TraceSpan verify_span(trace_, "verify", &meter);
  std::vector<int64_t> accepted_sorted;
  bool limit_reached = false;
  for (int64_t index : order) {
    const int64_t frame = test_frames[static_cast<size_t>(index)];
    if (static_cast<int64_t>(result.frames.size()) >= limit) {
      limit_reached = true;
      break;
    }
    if (!GapAdmissible(accepted_sorted, frame, gap)) continue;
    meter.ChargeDetection();
    if (SatisfiesRequirements(*stream_, frame, reqs)) {
      result.frames.push_back(frame);
      InsertSorted(&accepted_sorted, frame);
    }
  }
  result.limit_satisfied =
      static_cast<int64_t>(result.frames.size()) >= limit;
  result.scan_exhausted = !limit_reached;
  result.indexed_seconds = meter.detection_seconds();
  result.detection_calls = meter.detection_calls();
  result.cost = meter;
  return result;
}

Result<ScrubResult> ScrubbingExecutor::Scan(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, FrameWindow window) {
  if (reqs.empty())
    return Status::InvalidArgument("scrubbing needs at least one class");
  if (limit <= 0) return Status::InvalidArgument("limit must be positive");
  window = ClampFrameWindow(window, stream_->test_day->num_frames());
  obs::SketchStats sketch;
  const std::vector<SketchIndex::FrameRange> candidates =
      SketchCandidates(*stream_, options_.use_store_index, window,
                       RequirementsProbe(reqs), &sketch);
  ScrubResult result = ScanRanges(reqs, limit, gap, candidates);
  result.sketch = sketch;
  return result;
}

ScrubResult ScrubbingExecutor::ScanRanges(
    const std::vector<ClassCountRequirement>& reqs, int64_t limit,
    int64_t gap, const std::vector<SketchIndex::FrameRange>& ranges) {
  CostMeter meter;
  obs::TraceSpan span(trace_, "scan", &meter);
  ScrubResult result;
  std::vector<int64_t> accepted_sorted;
  bool limit_reached = false;
  for (const auto& range : ranges) {
    for (int64_t t = range.begin; t < range.end; ++t) {
      if (static_cast<int64_t>(result.frames.size()) >= limit) {
        limit_reached = true;
        break;
      }
      if (!GapAdmissible(accepted_sorted, t, gap)) continue;
      meter.ChargeDetection();
      if (SatisfiesRequirements(*stream_, t, reqs)) {
        result.frames.push_back(t);
        InsertSorted(&accepted_sorted, t);
      }
    }
    if (limit_reached) break;
  }
  result.limit_satisfied =
      static_cast<int64_t>(result.frames.size()) >= limit;
  result.scan_exhausted = !limit_reached;
  result.indexed_seconds = meter.detection_seconds();
  result.detection_calls = meter.detection_calls();
  result.cost = meter;
  return result;
}

}  // namespace blazeit
