#ifndef BLAZEIT_CORE_ENGINE_H_
#define BLAZEIT_CORE_ENGINE_H_

#include <memory>
#include <string>
#include <vector>

#include "core/aggregation.h"
#include "core/catalog.h"
#include "core/optimizer.h"
#include "core/scrubbing.h"
#include "core/selection.h"
#include "core/udf.h"
#include "obs/report.h"
#include "sim/cost_model.h"
#include "util/status.h"

namespace blazeit {

class SweepCacheView;

/// Per-query execution options forwarded to the executors.
struct EngineOptions {
  AggregateOptions aggregate;
  ScrubOptions scrub;
  SelectionOptions selection;
  /// Consult the detection store's per-segment sketches (built with
  /// DetectionStore::BuildSketches or `storecli sketch rebuild`) so full
  /// scans, count-distinct, and scrubbing skip provably non-matching
  /// segments without decoding them. Outputs are bit-identical to the
  /// unindexed path (sketch_invariance_test); only the charged detector
  /// and NN calls drop. Off by default so cost accounting stays identical
  /// with and without a store (the store_invariance_test contract); a
  /// no-op for streams without a store or without current sketches.
  bool use_store_index = false;
  /// Attach an obs::ExecutionReport (plan, stage trace, simulated-cost
  /// breakdown, cache/sketch hit rates) to every QueryOutput. Reporting
  /// only observes: query outputs and simulated costs are bit-identical
  /// with it on or off. Off by default — the per-frame cache counting and
  /// span bookkeeping cost a little wall-clock.
  bool collect_reports = false;
  /// Register "engine" and "storage" sections with the process-wide
  /// obs::StatusRegistry (rendered by the debug server's /statusz) for
  /// this engine's lifetime. Off by default so tests and libraries that
  /// build many engines don't pollute the global registry; `storecli
  /// serve --listen` turns it on.
  bool export_statusz = false;
};

/// Everything a FrameQL query can return.
struct QueryOutput {
  QueryKind kind = QueryKind::kExhaustive;
  /// The plan that ran, as the executor that chose it reports it.
  PlanKind plan = PlanKind::kFullScan;
  /// Aggregates: the (frame-averaged or total) count estimate.
  double scalar = 0.0;
  /// Scrubbing / binary selection / exhaustive: matching frames.
  std::vector<int64_t> frames;
  /// Content-based selection: matching (frame, detection) rows.
  std::vector<SelectionRow> rows;
  /// Simulated cost of executing the query.
  CostMeter cost;
  /// Why the executor ran `plan`: the positive or matching training
  /// frames, the held-out error bound against the tolerance, the deployed
  /// filters, the FNR/FPR targets. It cites nothing that store
  /// temperature, the sketch index, the pool size or batching change, so
  /// it is as deterministic as the answer.
  std::string plan_description;
  /// EXPLAIN-style report (null unless EngineOptions::collect_reports).
  /// Shared so outputs stay copyable.
  std::shared_ptr<obs::ExecutionReport> report;
};

/// A parsed + analyzed query bound to its stream, ready to execute — the
/// front half of Execute, split out so the serving layer's AdmissionQueue
/// can prepare queries at admission time and execute them later.
struct PreparedQuery {
  StreamData* stream = nullptr;
  AnalyzedQuery query;
  /// Process-unique id minted at Prepare time, threaded through log lines
  /// (cid=N fields) and the flight recorder so one query's lifecycle can
  /// be grepped end to end. Never part of query outputs or reports — ids
  /// differ across runs, and outputs must not.
  int64_t correlation_id = -1;
};

/// The BlazeIt engine: the public entry point tying everything together.
/// Parse -> analyze -> execute (Figure 2). The optimizer's rules live in
/// the executors, each of which reports the plan it ran.
///
///   VideoCatalog catalog;
///   catalog.AddStream(TaipeiConfig());
///   BlazeItEngine engine(&catalog);
///   auto out = engine.Execute(
///       "SELECT FCOUNT(*) FROM taipei WHERE class = 'car' "
///       "ERROR WITHIN 0.1 AT CONFIDENCE 95%");
class BlazeItEngine {
 public:
  /// `catalog` must outlive the engine.
  explicit BlazeItEngine(VideoCatalog* catalog, EngineOptions options = {});
  ~BlazeItEngine();
  BlazeItEngine(const BlazeItEngine&) = delete;
  BlazeItEngine& operator=(const BlazeItEngine&) = delete;

  /// Parses, analyzes, and executes one FrameQL query.
  Result<QueryOutput> Execute(const std::string& frameql);

  /// Parses, binds, and analyzes one query without executing it. A WHERE
  /// conjunct that the query kind's plans do not evaluate (say, an ROI on
  /// an aggregate) is refused with Unimplemented naming it, rather than
  /// silently dropped. `trace` (nullable) records the parse/analyze spans. Thread-safe: the catalog
  /// is read-only after setup, so concurrent Prepare calls (the serving
  /// layer prepares at admission time) never race.
  Result<PreparedQuery> Prepare(const std::string& frameql,
                                obs::QueryTrace* trace = nullptr);

  /// The back half of Execute: dispatch of a prepared query to the
  /// executor for its kind, which picks the plan. `view` is the executors' artifact cache and `batch_group` the
  /// query's shared-plan group when the admission queue runs it in a
  /// window (so a group shares NN sweeps); standalone execution passes
  /// nullptr and -1, and the executors read the stream's artifact cache —
  /// through a view of this call's own when reports are on. `frameql` and
  /// `trace` feed the ExecutionReport when options().collect_reports is on
  /// (trace is null otherwise); its cache counts are the view's. Output is
  /// bit-identical to Execute for any cache, because every cache hit is
  /// bit-identical to recomputation.
  Result<QueryOutput> ExecutePrepared(const PreparedQuery& prepared,
                                      SweepCacheView* view,
                                      int64_t batch_group,
                                      const std::string& frameql,
                                      std::shared_ptr<obs::QueryTrace> trace);

  /// UDFs available to queries (register custom ones here).
  UdfRegistry* mutable_udfs() { return &udfs_; }
  const UdfRegistry& udfs() const { return udfs_; }

  const EngineOptions& options() const { return options_; }
  EngineOptions* mutable_options() { return &options_; }

 private:
  Result<QueryOutput> ExecuteCountDistinct(StreamData* stream,
                                           const AnalyzedQuery& query,
                                           obs::QueryTrace* trace,
                                           obs::ExecutionReport* report);
  Result<QueryOutput> ExecuteBinarySelect(StreamData* stream,
                                          const AnalyzedQuery& query,
                                          ArtifactCache* sweep_cache,
                                          obs::QueryTrace* trace);
  Result<QueryOutput> ExecuteFullScan(StreamData* stream,
                                      const AnalyzedQuery& query,
                                      obs::QueryTrace* trace,
                                      obs::ExecutionReport* report);

  VideoCatalog* catalog_;
  EngineOptions options_;
  UdfRegistry udfs_;
  /// StatusRegistry tokens held while options_.export_statusz.
  std::vector<int64_t> statusz_tokens_;
};

}  // namespace blazeit

#endif  // BLAZEIT_CORE_ENGINE_H_
