#ifndef BLAZEIT_CORE_OPTIMIZER_H_
#define BLAZEIT_CORE_OPTIMIZER_H_

#include <cstddef>
#include <cstdint>

#include "frameql/analyzer.h"

namespace blazeit {

/// The physical plan that ran a query. BlazeIt's optimizer is rule-based
/// (Section 5), and each rule lives in the executor it governs: Algorithm
/// 1's training-data test in AggregationExecutor, the scrubbing fallback
/// in ScrubbingExecutor, the filter choices in SelectionExecutor. So the
/// plan is known once the query has run, and QueryOutput::plan reports it.
enum class PlanKind {
  kSpecializedAggregation,  // Algorithm 1 (rewrite or control variates)
  kAqpAggregation,          // no training data: plain sampling
  kTrackerCountDistinct,    // detector + IOU tracker over the video
  kImportanceScrubbing,     // specialized-NN-ranked verification
  kScanScrubbing,           // no training instances: sequential scan
  kFilteredSelection,       // filter cascade + detection
  kBinaryDetection,         // NoScope replication (label filter + verify)
  kFullScan,                // exhaustive detection
};

const char* PlanKindName(PlanKind kind);

/// The shared-plan pass of multi-query batching: maps an analyzed query
/// to the key of the batch group it executes in. Two queries get the same
/// key exactly when their plans train the same specialized NN over the
/// same stream (same executor kind and hence train-seed salt, same queried
/// classes and hence training labels) — so running them serially within
/// one group lets the first execution's training run and per-frame sweep
/// feed the rest through the batch's SharedSweepCache, while distinct
/// keys carry no shared NN work and can run concurrently.
///
/// Plans that train nothing (count-distinct, full scans) get a key unique
/// to `query_index`, i.e. a singleton group, maximizing concurrency.
uint64_t SharedSweepGroupKey(const AnalyzedQuery& query, size_t query_index);

}  // namespace blazeit

#endif  // BLAZEIT_CORE_OPTIMIZER_H_
