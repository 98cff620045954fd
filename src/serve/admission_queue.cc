#include "serve/admission_queue.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/baselines.h"
#include "core/optimizer.h"
#include "core/scrubbing.h"
#include "exec/thread_pool.h"
#include "obs/debug_server.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "util/string_util.h"

namespace blazeit {
namespace serve {

namespace {

using exec::ThreadPool;

/// Admission counters are functions of the workload and the (virtual-
/// clock) admission schedule, not of pool scheduling, hence kStable; the
/// depth gauge and latency histogram describe queue state over wall
/// interleavings, hence kUnstable.
obs::Counter* SubmittedCounter(const std::string& client) {
  return obs::MetricsRegistry::Global().GetCounter(
      "serve.submitted{client=" + client + "}", obs::Stability::kStable);
}

obs::Counter* RejectedCounter(const char* reason) {
  return obs::MetricsRegistry::Global().GetCounter(
      std::string("serve.rejected{reason=") + reason + "}",
      obs::Stability::kStable);
}

obs::Counter* CancelledCounter() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "serve.cancelled", obs::Stability::kStable);
  return counter;
}

/// Milliseconds elapsed since `start` on the steady clock.
double MsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* gauge = obs::MetricsRegistry::Global().GetGauge(
      "serve.queue_depth", obs::Stability::kUnstable);
  return gauge;
}

obs::Histogram* AdmissionLatencyHistogram() {
  static obs::Histogram* hist = obs::MetricsRegistry::Global().GetHistogram(
      "serve.admission_latency_ticks", {0, 1, 2, 4, 8, 16, 32, 64},
      obs::Stability::kUnstable);
  return hist;
}

}  // namespace

AdmissionQueue::AdmissionQueue(BlazeItEngine* engine, ServeOptions options)
    : engine_(engine), options_(options) {
  statusz_token_ = obs::StatusRegistry::Global().AddSection("serve", [this] {
    util::MutexLock lock(mu_);
    std::string out = StrFormat(
        "{\"options\":{\"window_ticks\":%lld,\"max_queue_depth\":%lld,"
        "\"per_client_quota\":%lld,\"shed_depth\":%lld,"
        "\"wall_clock_tick_ms\":%lld},\"clock\":%lld,\"queue_depth\":%zu,"
        "\"stats\":{\"submitted\":%lld,\"rejected_queue_full\":%lld,"
        "\"rejected_quota\":%lld,\"shed\":%lld,\"cancelled\":%lld,"
        "\"batches\":%lld,\"groups\":%lld,\"coalesced_queries\":%lld,"
        "\"cross_client_groups\":%lld,\"standalone_seconds\":%.6f,"
        "\"batch_seconds\":%.6f},\"clients\":[",
        static_cast<long long>(options_.window_ticks),
        static_cast<long long>(options_.max_queue_depth),
        static_cast<long long>(options_.per_client_quota),
        static_cast<long long>(options_.shed_depth),
        static_cast<long long>(options_.wall_clock_tick_ms),
        static_cast<long long>(clock_), pending_.size(),
        static_cast<long long>(stats_.submitted),
        static_cast<long long>(stats_.rejected_queue_full),
        static_cast<long long>(stats_.rejected_quota),
        static_cast<long long>(stats_.shed),
        static_cast<long long>(stats_.cancelled),
        static_cast<long long>(stats_.batches),
        static_cast<long long>(stats_.groups),
        static_cast<long long>(stats_.coalesced_queries),
        static_cast<long long>(stats_.cross_client_groups),
        stats_.standalone_seconds, stats_.batch_seconds);
    bool first = true;
    for (const auto& [client, counters] : client_counters_) {
      if (!first) out += ",";
      first = false;
      int64_t in_queue = 0;
      auto it = client_pending_.find(client);
      if (it != client_pending_.end()) in_queue = it->second;
      out += StrFormat(
          "{\"client\":\"%s\",\"submitted\":%lld,\"rejected\":%lld,"
          "\"shed\":%lld,\"cancelled\":%lld,\"pending\":%lld}",
          JsonEscape(client).c_str(),
          static_cast<long long>(counters.submitted),
          static_cast<long long>(counters.rejected),
          static_cast<long long>(counters.shed),
          static_cast<long long>(counters.cancelled),
          static_cast<long long>(in_queue));
    }
    out += "]}";
    return out;
  });

  if (options_.wall_clock_tick_ms > 0) {
    ticker_ = std::thread([this] { TickerLoop(); });
  }
}

AdmissionQueue::~AdmissionQueue() {
  if (ticker_.joinable()) {
    {
      util::MutexLock lock(ticker_mu_);
      ticker_stop_ = true;
    }
    ticker_cv_.NotifyAll();
    ticker_.join();
  }
  obs::StatusRegistry::Global().Remove(statusz_token_);
}

Result<int64_t> AdmissionQueue::Submit(const std::string& client,
                                       const std::string& frameql) {
  // The front half runs before admission (and outside the lock): the
  // catalog is read-only, so concurrent Prepare calls are safe, and a
  // parse error must land in the response — the same place serial Execute
  // reports it — not block the admission slot.
  PendingEntry entry;
  entry.client = client;
  entry.frameql = frameql;
  if (engine_->options().collect_reports) {
    entry.trace = std::make_shared<obs::QueryTrace>(frameql);
  }
  auto prepared = engine_->Prepare(frameql, entry.trace.get());
  if (prepared.ok()) {
    entry.prepared = std::move(prepared).value();
    entry.correlation_id = entry.prepared->correlation_id;
  } else {
    entry.prepare_error = prepared.status();
    entry.correlation_id = obs::FlightRecorder::NextCorrelationId();
  }

  util::MutexLock lock(mu_);
  const int64_t depth = static_cast<int64_t>(pending_.size());
  if (depth >= options_.max_queue_depth) {
    ++stats_.rejected_queue_full;
    ++client_counters_[client].rejected;
    RejectedCounter("queue_full")->Add();
    return Status::ResourceExhausted(
        "admission queue full (" + std::to_string(depth) + " pending)");
  }
  if (client_pending_[client] >= options_.per_client_quota) {
    ++stats_.rejected_quota;
    ++client_counters_[client].rejected;
    RejectedCounter("quota")->Add();
    return Status::ResourceExhausted(
        "client '" + client + "' is at its quota (" +
        std::to_string(options_.per_client_quota) + " pending)");
  }
  entry.ticket = next_ticket_++;
  ++client_counters_[client].submitted;
  entry.admitted_tick = clock_;
  entry.shed = options_.shed_depth >= 0 && depth >= options_.shed_depth;
  ++stats_.submitted;
  SubmittedCounter(client)->Add();
  ++client_pending_[client];
  if (pending_.empty()) window_open_tick_ = clock_;
  const int64_t ticket = entry.ticket;
  pending_.push_back(std::move(entry));
  QueueDepthGauge()->Set(static_cast<int64_t>(pending_.size()));
  if (options_.window_ticks == 0) RunPending(lock);
  return ticket;
}

void AdmissionQueue::Advance(int64_t ticks) {
  util::MutexLock lock(mu_);
  clock_ += ticks < 0 ? 0 : ticks;
  if (!pending_.empty() &&
      clock_ - window_open_tick_ >= options_.window_ticks) {
    RunPending(lock);
  }
}

void AdmissionQueue::Drain() {
  util::MutexLock lock(mu_);
  if (!pending_.empty()) RunPending(lock);
}

Status AdmissionQueue::Cancel(int64_t ticket) {
  ServeResponse resp;
  {
    util::MutexLock lock(mu_);
    auto it = std::find_if(
        pending_.begin(), pending_.end(),
        [ticket](const PendingEntry& e) { return e.ticket == ticket; });
    if (it == pending_.end()) {
      return Status::NotFound("ticket " + std::to_string(ticket) +
                              " is not pending (unknown, already executed, "
                              "or its window already cut)");
    }
    resp.ticket = it->ticket;
    resp.correlation_id = it->correlation_id;
    resp.client = it->client;
    resp.frameql = it->frameql;
    resp.admitted_tick = it->admitted_tick;
    resp.executed_tick = clock_;
    resp.output = Status::Cancelled("cancelled before execution");
    // The quota slot frees now — a client may cancel-and-resubmit within
    // one window without tripping its own quota.
    auto pending_it = client_pending_.find(it->client);
    if (pending_it != client_pending_.end() && pending_it->second > 0) {
      --pending_it->second;
    }
    ++stats_.cancelled;
    ++client_counters_[it->client].cancelled;
    CancelledCounter()->Add();
    pending_.erase(it);
    QueueDepthGauge()->Set(static_cast<int64_t>(pending_.size()));
  }
  // Deliver takes mu_ itself.
  Deliver(std::move(resp), /*wall_ms=*/0.0);
  return Status::OK();
}

void AdmissionQueue::TickerLoop() {
  const auto period = std::chrono::milliseconds(options_.wall_clock_tick_ms);
  util::MutexLock lock(ticker_mu_);
  while (!ticker_stop_) {
    if (ticker_cv_.WaitFor(ticker_mu_, period,
                           [this]() BLAZEIT_NO_THREAD_SAFETY_ANALYSIS {
                             return ticker_stop_;
                           })) {
      return;
    }
    // Advance takes mu_ (and may execute a window); drop ticker_mu_ so a
    // concurrent destructor's stop signal never waits on a running batch.
    lock.Unlock();
    Advance(1);
    lock.Lock();
  }
}

std::vector<ServeResponse> AdmissionQueue::TakeCompleted() {
  util::MutexLock lock(mu_);
  std::vector<ServeResponse> out = std::move(completed_);
  completed_.clear();
  return out;
}

int64_t AdmissionQueue::now() const {
  util::MutexLock lock(mu_);
  return clock_;
}

int64_t AdmissionQueue::queue_depth() const {
  util::MutexLock lock(mu_);
  return static_cast<int64_t>(pending_.size());
}

ServerStats AdmissionQueue::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

void AdmissionQueue::Deliver(ServeResponse&& response, double wall_ms) {
  // Flight-record the completed serve query (observe-only: ids and wall
  // times never feed back into outputs or reports).
  obs::FlightRecord record;
  record.correlation_id = response.correlation_id;
  record.client = response.client;
  record.query = response.frameql;
  record.degraded = response.degraded;
  record.wall_ms = wall_ms;
  record.ok = response.output.ok();
  if (response.output.ok()) {
    const QueryOutput& output = response.output.value();
    record.plan = PlanKindName(output.plan);
    record.cost_seconds = output.cost.TotalSeconds();
    if (output.report != nullptr) {
      record.trace = output.report->trace;
      record.accuracy_tier = output.report->accuracy_tier;
    }
    if (record.accuracy_tier.empty()) {
      record.accuracy_tier = response.degraded ? "degraded" : "full";
    }
  } else {
    record.error = response.output.status().ToString();
  }
  obs::FlightRecorder::Global().Record(std::move(record));

  util::MutexLock lock(mu_);
  if (response.degraded) ++client_counters_[response.client].shed;
  AdmissionLatencyHistogram()->Observe(response.executed_tick -
                                       response.admitted_tick);
  completed_.push_back(std::move(response));
}

std::map<std::string, AdmissionQueue::ClientCounters>
AdmissionQueue::client_counters() const {
  util::MutexLock lock(mu_);
  return client_counters_;
}

void AdmissionQueue::RunPending(util::MutexLock& lock) {
  mu_.AssertHeld();
  // Cut the window under mu_, then execute with only exec_mu_ held:
  // submissions keep flowing into the next window while this one runs,
  // and concurrently closed windows execute one at a time in cut order.
  std::vector<PendingEntry> batch = std::move(pending_);
  pending_.clear();
  client_pending_.clear();
  const int64_t executed_tick = clock_;
  QueueDepthGauge()->Set(0);
  lock.Unlock();

  util::MutexLock exec_lock(exec_mu_);
  static obs::Counter* batches_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.batches",
                                                obs::Stability::kStable);
  static obs::Counter* shed_counter =
      obs::MetricsRegistry::Global().GetCounter("serve.shed",
                                                obs::Stability::kStable);
  batches_counter->Add();

  // --- shared-plan pass: prepare errors and shed queries complete here;
  // the rest are grouped by SharedSweepGroupKey over their window
  // position, so with a fixed admission order the grouping — and
  // therefore every output bit — replays exactly. Groups keep
  // first-appearance order and queries keep admission order within a
  // group, so each group's leader (the query that pays for its training
  // run and sweeps) is always the earliest one.
  const size_t n = batch.size();
  std::vector<ServeResponse> responses(n);
  std::vector<std::vector<size_t>> groups;
  std::unordered_map<uint64_t, size_t> key_to_group;
  int64_t shed_this_batch = 0;
  for (size_t i = 0; i < n; ++i) {
    PendingEntry& entry = batch[i];
    ServeResponse& resp = responses[i];
    resp.ticket = entry.ticket;
    resp.correlation_id = entry.correlation_id;
    resp.client = entry.client;
    resp.frameql = entry.frameql;
    resp.admitted_tick = entry.admitted_tick;
    resp.executed_tick = executed_tick;
    if (!entry.prepared.has_value()) {
      resp.output = entry.prepare_error;
      Deliver(std::move(resp), /*wall_ms=*/0.0);
      continue;
    }
    const QueryKind kind = entry.prepared->query.kind;
    if (entry.shed && (kind == QueryKind::kAggregate ||
                       kind == QueryKind::kScrubbing)) {
      shed_counter->Add();
      ++shed_this_batch;
      resp.degraded = true;
      const auto shed_started = std::chrono::steady_clock::now();
      resp.output = RunDegraded(*entry.prepared, entry.frameql);
      Deliver(std::move(resp), MsSince(shed_started));
      continue;
    }
    auto [it, inserted] = key_to_group.emplace(
        SharedSweepGroupKey(entry.prepared->query, i), groups.size());
    if (inserted) groups.emplace_back();
    groups[it->second].push_back(i);
  }

  // --- run the groups concurrently, each group serially ---
  // Each query writes only its own slots, and its output is independent
  // of scheduling because every shared-sweep hit is bit-identical to
  // recomputation (the ArtifactCache contract). With a single group
  // RunShards runs inline on this thread, so the group's NN work keeps
  // full intra-query sharding; with several, the pool parallelizes
  // across groups and each query's inner parallel sections run inline on
  // its group's worker. Each response is delivered as its query finishes;
  // wall times are window-relative (cut to completion), the latency a
  // waiting client saw. `query_stats` keeps each successful query's
  // accounting for the fold below.
  std::vector<std::optional<BatchQueryStats>> query_stats(n);
  const auto batch_started = std::chrono::steady_clock::now();
  ThreadPool::Instance().RunShards(
      static_cast<int64_t>(groups.size()),
      [&](int64_t g, int /*slot*/) {
        for (size_t idx : groups[static_cast<size_t>(g)]) {
          const PendingEntry& entry = batch[idx];
          SweepCacheView view(&sweeps_, entry.prepared->stream->artifact_cache);
          Result<QueryOutput> result = engine_->ExecutePrepared(
              *entry.prepared, &view, g, entry.frameql, entry.trace);
          ServeResponse& resp = responses[idx];
          if (result.ok()) {
            BatchQueryStats& qs = query_stats[idx].emplace();
            qs.group = g;
            qs.shared_nn_frames = view.stats().shared_nn_frames;
            qs.shared_filter_frames = view.stats().shared_filter_frames;
            qs.shared_models = view.stats().shared_models;
            const CostMeter& cost = result.value().cost;
            qs.standalone_seconds = cost.TotalSeconds();
            double saved = static_cast<double>(qs.shared_nn_frames) *
                               cost.profile().specialized_nn_sec_per_frame +
                           static_cast<double>(qs.shared_filter_frames) *
                               cost.profile().filter_sec_per_frame;
            if (qs.shared_models > 0) saved += cost.training_seconds();
            qs.batch_seconds = std::max(0.0, qs.standalone_seconds - saved);
            resp.stats = qs;
          }
          resp.output = std::move(result);
          Deliver(std::move(resp), MsSince(batch_started));
        }
      });

  // Cumulative coalescing accounting, folded serially in window order:
  // which groups spanned clients, and how much charged NN work the shared
  // sweeps absorbed this window.
  std::unordered_map<int64_t, int64_t> group_sizes;
  std::unordered_map<int64_t, std::set<std::string>> group_clients;
  util::MutexLock stats_lock(mu_);
  ++stats_.batches;
  stats_.shed += shed_this_batch;
  stats_.groups += static_cast<int64_t>(groups.size());
  for (size_t i = 0; i < n; ++i) {
    if (!query_stats[i].has_value()) continue;
    const BatchQueryStats& qs = *query_stats[i];
    ++group_sizes[qs.group];
    group_clients[qs.group].insert(batch[i].client);
    stats_.shared_nn_frames += qs.shared_nn_frames;
    stats_.shared_filter_frames += qs.shared_filter_frames;
    stats_.shared_models += qs.shared_models;
    stats_.standalone_seconds += qs.standalone_seconds;
    stats_.batch_seconds += qs.batch_seconds;
  }
  for (const auto& [group, size] : group_sizes) {
    if (size > 1) stats_.coalesced_queries += size;
  }
  for (const auto& [group, clients] : group_clients) {
    if (clients.size() > 1) ++stats_.cross_client_groups;
  }
}

Result<QueryOutput> AdmissionQueue::RunDegraded(const PreparedQuery& prepared,
                                                const std::string& frameql) {
  const AnalyzedQuery& query = prepared.query;
  StreamData* stream = prepared.stream;
  BLAZEIT_ASSIGN_OR_RETURN(
      FrameWindow window,
      ResolveFrameWindow(query, stream->config.fps,
                         stream->test_day->num_frames()));
  QueryOutput out;
  out.kind = query.kind;
  std::shared_ptr<obs::ExecutionReport> report;
  if (engine_->options().collect_reports) {
    report = std::make_shared<obs::ExecutionReport>();
    report->query = frameql;
  }

  if (query.kind == QueryKind::kAggregate) {
    // The paper's plain sampling estimator: no NN training, no sweeps —
    // the cheap path under pressure. It samples the whole test day, so a
    // windowed query's estimate is the day-wide frame average scaled to
    // the window (an accuracy trade the report discloses).
    out.plan = PlanKind::kAqpAggregation;
    out.plan_description =
        "load-shed: sampling estimator, no NN training";
    BLAZEIT_ASSIGN_OR_RETURN(
        AqpResult aqp,
        NaiveAqpAggregate(stream, query.agg_class, query.error,
                          query.confidence,
                          engine_->options().aggregate.seed));
    out.scalar = aqp.estimate;
    if (query.scale_to_total) {
      out.scalar *= static_cast<double>(window.end - window.begin);
    }
    out.cost = aqp.cost;
    if (report != nullptr) report->accuracy_tier = "degraded-sampling";
  } else {
    // Sketch-only scan: the scrubbing executor's ascending scan with no NN
    // ranking; the sketch index (when current) still skips refuted
    // segments, so shedding keeps the index's pruning while dropping the
    // expensive specialized-NN ordering.
    out.plan = PlanKind::kScanScrubbing;
    out.plan_description = "load-shed: sketch-only scan, no NN ranking";
    ScrubbingExecutor executor(stream, ScrubOptions{},
                               /*sweep_cache=*/nullptr, /*trace=*/nullptr,
                               engine_->options().use_store_index);
    BLAZEIT_ASSIGN_OR_RETURN(
        ScrubResult scan,
        executor.Scan(query.requirements, query.limit, query.gap, window));
    out.frames = std::move(scan.frames);
    out.cost = scan.cost;
    if (report != nullptr) {
      report->accuracy_tier = "degraded-scan";
      report->sketch = scan.sketch;
    }
  }

  if (report != nullptr) {
    report->plan = PlanKindName(out.plan);
    report->plan_description = out.plan_description;
    report->cost = out.cost;
    out.report = std::move(report);
  }
  return out;
}

}  // namespace serve
}  // namespace blazeit
