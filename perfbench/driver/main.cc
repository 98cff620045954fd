// perfbench_driver: runs one generated workload through the public engine,
// serving and storage APIs and writes what it observed as one JSON file.
// perfbench/run.py generates the workload, builds the fixture, and turns
// the file into metrics; this program only executes and records.
//
//   perfbench_driver fixture --suite F --store DIR --out REF
//       Cold-ingests the suite into an empty store, flushes, builds the
//       sketches, then records reference digests: the suite replayed once
//       against the finished store, and every serve-mix query executed
//       serially. Fails if the serve-mix references wrote to the store.
//   perfbench_driver run --workload W --suite F --work DIR --out RAW
//       [--store DIR] [--seconds S] [--trace 0|1]
//       W is cold-ingest, restart-replay or serve-mix. restart-replay and
//       serve-mix open the store at --store (a private copy of a fixture).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "driver/probes.h"
#include "driver/suite.h"
#include "exec/thread_pool.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "serve/admission_queue.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "video/datasets.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using blazeit::BlazeItEngine;
using blazeit::EngineOptions;
using blazeit::QueryOutput;
using blazeit::Result;
using blazeit::Status;
using blazeit::StreamData;
using blazeit::VideoCatalog;

// ---------------------------------------------------------------------------
// Options
// ---------------------------------------------------------------------------

/// Exec pool lanes, never more than the cores available. Two, not four: on
/// a 4-vCPU VM whose host steals time, a four-lane pool made cold-ingest's
/// run-to-run spread five times wider (median pass wall range/median 0.44
/// against 0.09 over four interleaved runs each).
constexpr int kPoolLanes = 2;
/// Set-ups per restart-replay / serve-mix run; setup_s is their median.
/// cold-ingest sets up once per pass.
constexpr int kSetups = 5;
/// Latency samples a run collects at least, whatever --seconds says, so
/// p95 has ten samples beyond it.
constexpr size_t kMinSamples = 200;

struct Options {
  std::string mode;
  std::string workload;
  std::string suite_path;
  std::string store_dir;
  std::string work_dir;
  std::string out_path;
  double seconds = 10.0;
  bool trace = false;
};

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver fixture --suite F --store DIR --out REF\n"
               "       perfbench_driver run --workload W --suite F --work DIR "
               "--out RAW [--store DIR]\n"
               "           [--seconds S] [--trace 0|1]\n");
  return 2;
}

int PoolLanes() {
  const int cores = static_cast<int>(std::thread::hardware_concurrency());
  return std::max(1, std::min(kPoolLanes, cores));
}

/// The engine options every workload shares: storecli's (sketch index on)
/// with its --small-nn specialized NN. Reports are on only in traced
/// passes, where they are output-neutral by contract.
EngineOptions BenchEngineOptions() {
  EngineOptions options;
  options.use_store_index = true;
  options.collect_reports = false;
  blazeit::SpecializedNNConfig nn;
  nn.raster_width = 16;
  nn.raster_height = 16;
  nn.hidden_dims = {32};
  options.aggregate.nn = nn;
  options.scrub.nn = nn;
  options.selection.nn = nn;
  return options;
}

// ---------------------------------------------------------------------------
// Output digests
// ---------------------------------------------------------------------------

class Fnv {
 public:
  void Bytes(const void* data, size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ull;
    }
  }
  template <typename T>
  void Pod(const T& v) {
    Bytes(&v, sizeof(v));
  }
  void Str(const std::string& s) {
    Pod(s.size());
    Bytes(s.data(), s.size());
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;
};

/// Everything a query returns except its simulated cost, bit for bit.
uint64_t OutputDigest(const QueryOutput& out) {
  Fnv h;
  h.Pod(static_cast<int>(out.kind));
  h.Pod(static_cast<int>(out.plan));
  h.Pod(out.scalar);
  h.Pod(out.frames.size());
  for (int64_t f : out.frames) h.Pod(f);
  h.Pod(out.rows.size());
  for (const auto& row : out.rows) {
    h.Pod(row.frame);
    h.Pod(row.detection.class_id);
    h.Pod(row.detection.rect.xmin);
    h.Pod(row.detection.rect.ymin);
    h.Pod(row.detection.rect.xmax);
    h.Pod(row.detection.rect.ymax);
    h.Pod(row.detection.score);
    h.Pod(row.detection.features.size());
    for (float v : row.detection.features) h.Pod(v);
  }
  h.Str(out.plan_description);
  return h.value();
}

/// The query's CostMeter, bit for bit.
uint64_t CostDigest(const blazeit::CostMeter& cost) {
  Fnv h;
  h.Pod(cost.detection_calls());
  h.Pod(cost.specialized_nn_calls());
  h.Pod(cost.filter_calls());
  h.Pod(cost.training_frames());
  h.Pod(cost.detection_seconds());
  h.Pod(cost.specialized_nn_seconds());
  h.Pod(cost.filter_seconds());
  h.Pod(cost.training_seconds());
  h.Pod(cost.thresholding_seconds());
  return h.value();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// ---------------------------------------------------------------------------
// Records
// ---------------------------------------------------------------------------

struct QueryRecord {
  int query = -1;
  int pass = 0;
  std::string status = "ok";  // ok | error | refused
  std::string error;
  uint64_t out_digest = 0;
  uint64_t cost_digest = 0;
  double latency_ms = 0.0;
  double sim_s = 0.0;
  int64_t detector_calls = 0;
  int64_t nn_frames = 0;
  double scalar = 0.0;
  /// The returned frames, kept for the first successful execution of each
  /// query only: run.py checks them against the labeled test day, and every
  /// later execution must match that one bit for bit by digest.
  bool has_frames = false;
  std::vector<int64_t> frames;
  /// serve-mix: flight-recorder execution wall time and shared NN frames.
  double exec_wall_ms = -1.0;
  int64_t shared_nn_frames = 0;
};

struct PassRecord {
  bool traced = false;
  int queries = 0;
  double wall_s = 0.0;
  double cpu_s = 0.0;
};

/// Everything a run observed; serialized once at exit.
struct Observations {
  std::vector<double> setup_s;
  std::vector<QueryRecord> queries;
  std::vector<PassRecord> passes;
  std::map<std::string, double> counters;  // traced passes only
  SpanLog spans;
  int64_t store_bytes = 0;
  blazeit::serve::ServerStats serve;
  /// Test-day per-frame counts at the detection threshold, keyed
  /// "stream/class": the labeled answers run.py checks outputs against.
  std::map<std::string, std::vector<int>> labels;
  /// Queries whose frames are already kept.
  std::set<int> framed;
};

double CpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec) *
             1e-6;
}

int64_t PeakRssKb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss;
}

int64_t DirBytes(const std::string& dir) {
  int64_t total = 0;
  std::error_code ec;
  for (const auto& entry : fs::recursive_directory_iterator(dir, ec)) {
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    }
  }
  return total;
}

/// Accumulates registry deltas of one traced pass: counter values and
/// histogram observation counts and sums.
class RegistryDelta {
 public:
  void Begin() { base_ = blazeit::obs::MetricsRegistry::Global().Snapshot(); }
  void End(std::map<std::string, double>* into) const {
    const auto delta =
        blazeit::obs::MetricsRegistry::Global().Snapshot().DeltaFrom(base_);
    using Kind = blazeit::obs::MetricsSnapshot::Kind;
    for (const auto& e : delta.entries) {
      if (e.kind == Kind::kCounter) {
        (*into)[e.name] += static_cast<double>(e.value);
      } else if (e.kind == Kind::kHistogram) {
        (*into)[e.name + ".count"] += static_cast<double>(e.value);
        (*into)[e.name + ".sum"] += static_cast<double>(e.sum);
      }
    }
  }

 private:
  blazeit::obs::MetricsSnapshot base_;
};

// ---------------------------------------------------------------------------
// Set-up: open the store, register the streams, build the labeled sets
// ---------------------------------------------------------------------------

/// A catalog ready to serve queries, plus the traced run's decorators.
/// The decorators are declared first so they outlive the catalog that
/// points at them.
struct Ready {
  std::unique_ptr<TimedArtifactCache> artifacts;
  std::vector<TimedDetector*> detectors;  // owned by the streams
  std::unique_ptr<VideoCatalog> catalog;

  void SetCounting(bool on) {
    if (artifacts != nullptr) artifacts->set_counting(on);
    for (TimedDetector* d : detectors) d->set_counting(on);
  }

  /// Cumulative decorator counts, keyed like registry counters.
  std::map<std::string, double> SeamTotals() const {
    std::map<std::string, double> t;
    auto add = [&t](const std::string& name, const SeamCounter& c) {
      t[name + ".calls"] += static_cast<double>(c.calls.load());
      t[name + ".hits"] += static_cast<double>(c.hits.load());
      t[name + ".ns"] += static_cast<double>(c.ns.load());
    };
    if (artifacts != nullptr) {
      add("seam.artifact_get", artifacts->gets());
      add("seam.artifact_put", artifacts->puts());
    }
    for (const TimedDetector* d : detectors) add("seam.detect", d->detects());
    return t;
  }
};

/// Wraps the stream's detector and artifact cache in timing decorators and
/// rebuilds the three labeled sets over the wrapped detector.
void InstallDecorators(StreamData* stream, Ready* ready) {
  auto timed = std::make_unique<TimedDetector>(std::move(stream->detector));
  ready->detectors.push_back(timed.get());
  stream->detector = std::move(timed);
  const double threshold = stream->config.detection_threshold;
  stream->train_labels = std::make_unique<blazeit::LabeledSet>(
      stream->train_day.get(), stream->detector.get(), threshold);
  stream->held_out_labels = std::make_unique<blazeit::LabeledSet>(
      stream->held_out_day.get(), stream->detector.get(), threshold);
  stream->test_labels = std::make_unique<blazeit::LabeledSet>(
      stream->test_day.get(), stream->detector.get(), threshold);
  if (stream->artifact_cache != nullptr) {
    if (ready->artifacts == nullptr) {
      ready->artifacts =
          std::make_unique<TimedArtifactCache>(stream->artifact_cache);
    }
    stream->artifact_cache = ready->artifacts.get();
  }
}

Result<Ready> SetUp(const Suite& suite, const std::string& store_dir,
                    bool decorate, Observations* obs) {
  SpanLog& spans = obs->spans;
  const int64_t started = SteadyNs();
  ScopedSpan setup_span(&spans, "setup");
  Ready ready;
  ready.catalog = std::make_unique<VideoCatalog>();
  {
    ScopedSpan span(&spans, "store_open", setup_span.index());
    BLAZEIT_RETURN_NOT_OK(ready.catalog->EnableDetectionStore(store_dir));
  }
  blazeit::DayLengths lengths;
  lengths.train = suite.train_frames;
  lengths.held_out = suite.held_out_frames;
  lengths.test = suite.test_frames;
  for (const std::string& name : suite.streams) {
    auto config = blazeit::StreamConfigByName(name);
    BLAZEIT_RETURN_NOT_OK(config.status());
    ScopedSpan span(&spans, "add_stream", setup_span.index());
    BLAZEIT_RETURN_NOT_OK(ready.catalog->AddStream(config.value(), lengths));
  }
  for (const std::string& name : suite.streams) {
    BLAZEIT_ASSIGN_OR_RETURN(StreamData * stream,
                             ready.catalog->GetStream(name));
    if (decorate) InstallDecorators(stream, &ready);
    ScopedSpan span(&spans, "label_build", setup_span.index());
    for (const auto& cls : stream->config.classes) {
      stream->train_labels->Counts(cls.class_id);
      stream->held_out_labels->Counts(cls.class_id);
      stream->test_labels->Counts(cls.class_id);
    }
  }
  obs->setup_s.push_back(static_cast<double>(SteadyNs() - started) * 1e-9);
  if (obs->labels.empty()) {
    for (const std::string& name : suite.streams) {
      BLAZEIT_ASSIGN_OR_RETURN(StreamData * stream,
                               ready.catalog->GetStream(name));
      for (const auto& cls : stream->config.classes) {
        obs->labels[name + "/" + blazeit::ClassName(cls.class_id)] =
            stream->test_labels->Counts(cls.class_id);
      }
    }
  }
  return ready;
}

// ---------------------------------------------------------------------------
// Executing queries
// ---------------------------------------------------------------------------

/// Copies a query's report spans into the span log. The report trace's
/// clock starts when the trace is created, which is at `origin_ns` on the
/// steady clock (the start of the Execute or Submit call that created it).
/// Top-level report spans hang under `parent_of(name)`.
template <typename ParentFn>
void AddReportSpans(const QueryOutput& out, int64_t origin_ns, int query,
                    ParentFn parent_of, SpanLog* spans) {
  if (!spans->enabled() || out.report == nullptr ||
      out.report->trace == nullptr) {
    return;
  }
  const auto trace_spans = out.report->trace->spans();
  std::vector<int> index(trace_spans.size(), -1);
  for (size_t i = 0; i < trace_spans.size(); ++i) {
    const auto& s = trace_spans[i];
    SpanRecord rec;
    rec.name = s.name;
    rec.parent = s.parent >= 0 ? index[static_cast<size_t>(s.parent)]
                               : parent_of(s.name);
    rec.start_ns = origin_ns + s.start_ns;
    rec.end_ns = origin_ns + (s.closed ? s.end_ns : s.start_ns);
    rec.query = query;
    spans->Add(rec);
    index[i] = static_cast<int>(spans->spans().size()) - 1;
  }
}

/// Fills the per-output fields of a record: digests, cost, answer.
void FillFromOutput(const Result<QueryOutput>& result, QueryRecord* rec,
                    Observations* obs) {
  if (!result.ok()) {
    rec->status = "error";
    rec->error = result.status().ToString();
    return;
  }
  const QueryOutput& out = result.value();
  rec->out_digest = OutputDigest(out);
  rec->cost_digest = CostDigest(out.cost);
  rec->sim_s = out.cost.TotalSeconds();
  rec->detector_calls = out.cost.detection_calls();
  rec->nn_frames = out.cost.specialized_nn_calls();
  rec->scalar = out.scalar;
  if (obs->framed.insert(rec->query).second) {
    rec->has_frames = true;
    rec->frames = out.frames;
  }
}

/// One serial Execute of a suite query, timed and recorded.
QueryRecord ExecuteOne(const Suite& suite, int query, int pass,
                       BlazeItEngine* engine, int parent_span,
                       Observations* obs) {
  const Query& q = suite.queries[static_cast<size_t>(query)];
  QueryRecord rec;
  rec.query = query;
  rec.pass = pass;
  const int span = obs->spans.Open("execute", parent_span, query);
  const int64_t started = SteadyNs();
  Result<QueryOutput> result = engine->Execute(q.frameql);
  rec.latency_ms = static_cast<double>(SteadyNs() - started) * 1e-6;
  obs->spans.Close(span);
  if (result.ok()) {
    AddReportSpans(result.value(), started, query,
                   [span](const std::string&) { return span; }, &obs->spans);
  }
  FillFromOutput(result, &rec, obs);
  return rec;
}

/// Builds the sketch index of every stream's test-day detections.
Status BuildSketches(const Suite& suite, VideoCatalog* catalog) {
  for (const std::string& name : suite.streams) {
    BLAZEIT_ASSIGN_OR_RETURN(StreamData * stream, catalog->GetStream(name));
    BLAZEIT_RETURN_NOT_OK(
        catalog->detection_store()->BuildSketches(stream->test_detections_ns));
  }
  return Status::OK();
}

/// Traced runs alternate traced (even) and untraced (odd) passes, so
/// obs.trace_overhead_frac compares passes taken under the same
/// conditions; pass 0, which carries the warm-up, is traced.
bool PassTraced(const Options& opt, int pass) {
  return opt.trace && pass % 2 == 0;
}

bool KeepGoing(const Options& opt, int passes, const Observations& obs,
               int64_t started_ns) {
  if (obs.queries.size() < kMinSamples) return true;
  if (opt.trace && passes < 3) return true;  // one untraced, two traced
  return static_cast<double>(SteadyNs() - started_ns) * 1e-9 < opt.seconds;
}

/// Begins a measured pass: sets reporting and decorator counting.
struct PassScope {
  PassScope(const Options& opt, int pass, BlazeItEngine* engine, Ready* ready,
            Observations* obs)
      : obs_(obs), ready_(ready) {
    rec_.traced = PassTraced(opt, pass);
    engine->mutable_options()->collect_reports = rec_.traced;
    ready->SetCounting(rec_.traced);
    obs->spans.set_enabled(rec_.traced);
    if (rec_.traced) {
      delta_.Begin();
      seams0_ = ready->SeamTotals();
    }
    cpu0_ = CpuSeconds();
    t0_ = SteadyNs();
  }
  void Finish(int queries) {
    rec_.wall_s = static_cast<double>(SteadyNs() - t0_) * 1e-9;
    rec_.cpu_s = CpuSeconds() - cpu0_;
    rec_.queries = queries;
    if (rec_.traced) {
      delta_.End(&obs_->counters);
      for (const auto& [name, total] : ready_->SeamTotals()) {
        obs_->counters[name] += total - seams0_[name];
      }
    }
    ready_->SetCounting(false);
    obs_->passes.push_back(rec_);
  }

 private:
  Observations* obs_;
  Ready* ready_;
  PassRecord rec_;
  RegistryDelta delta_;
  std::map<std::string, double> seams0_;
  double cpu0_ = 0.0;
  int64_t t0_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// cold-ingest: every pass starts from an empty store, registers the
/// streams, and runs the suite once; the flush and sketch build are part
/// of the pass.
Status RunColdIngest(const Options& opt, const Suite& suite,
                     Observations* obs) {
  const int64_t started = SteadyNs();
  for (int pass = 0; KeepGoing(opt, pass, *obs, started); ++pass) {
    const std::string dir = opt.work_dir + "/cold-store";
    fs::remove_all(dir);
    obs->spans.set_enabled(PassTraced(opt, pass));
    BLAZEIT_ASSIGN_OR_RETURN(Ready ready,
                             SetUp(suite, dir, opt.trace, obs));
    BlazeItEngine engine(ready.catalog.get(), BenchEngineOptions());
    PassScope scope(opt, pass, &engine, &ready, obs);
    ScopedSpan pass_span(&obs->spans, "pass");
    for (int q : suite.suite) {
      obs->queries.push_back(
          ExecuteOne(suite, q, pass, &engine, pass_span.index(), obs));
    }
    {
      ScopedSpan span(&obs->spans, "flush", pass_span.index());
      BLAZEIT_RETURN_NOT_OK(ready.catalog->FlushDetectionStore());
    }
    {
      ScopedSpan span(&obs->spans, "sketch_build", pass_span.index());
      BLAZEIT_RETURN_NOT_OK(BuildSketches(suite, ready.catalog.get()));
    }
    scope.Finish(static_cast<int>(suite.suite.size()));
    obs->store_bytes = DirBytes(dir);
  }
  return Status::OK();
}

/// Sets up `opt.setups` times over the fixture copy (reporting each), and
/// keeps the last catalog for the measured phase.
Result<Ready> RepeatedSetUp(const Options& opt, const Suite& suite,
                            Observations* obs) {
  obs->spans.set_enabled(opt.trace);
  for (int k = 1; k < kSetups; ++k) {
    BLAZEIT_ASSIGN_OR_RETURN(Ready discarded,
                             SetUp(suite, opt.store_dir, opt.trace, obs));
  }
  return SetUp(suite, opt.store_dir, opt.trace, obs);
}

/// restart-replay: a fresh catalog and engine over the fixture; one
/// closed-loop client replays the suite serially.
Status RunRestartReplay(const Options& opt, const Suite& suite,
                        Observations* obs) {
  BLAZEIT_ASSIGN_OR_RETURN(Ready ready, RepeatedSetUp(opt, suite, obs));
  BlazeItEngine engine(ready.catalog.get(), BenchEngineOptions());
  const int64_t started = SteadyNs();
  int pass = 0;
  for (; KeepGoing(opt, pass, *obs, started); ++pass) {
    PassScope scope(opt, pass, &engine, &ready, obs);
    ScopedSpan pass_span(&obs->spans, "pass");
    for (int q : suite.suite) {
      obs->queries.push_back(
          ExecuteOne(suite, q, pass, &engine, pass_span.index(), obs));
    }
    scope.Finish(static_cast<int>(suite.suite.size()));
  }
  obs->spans.set_enabled(opt.trace);
  {
    ScopedSpan span(&obs->spans, "flush");
    BLAZEIT_RETURN_NOT_OK(ready.catalog->FlushDetectionStore());
  }
  obs->store_bytes = DirBytes(opt.store_dir);
  return Status::OK();
}

/// serve-mix: eight tenants share one AdmissionQueue driven by this thread
/// on its virtual clock; each tick submits the schedule's queries for that
/// tick and cuts one window.
Status RunServeMix(const Options& opt, const Suite& suite,
                   Observations* obs) {
  if (suite.schedule.empty()) {
    return Status::InvalidArgument("suite has no serve schedule");
  }
  BLAZEIT_ASSIGN_OR_RETURN(Ready ready, RepeatedSetUp(opt, suite, obs));
  BlazeItEngine engine(ready.catalog.get(), BenchEngineOptions());
  blazeit::serve::ServeOptions sopts;
  sopts.window_ticks = 1;
  sopts.shed_depth = -1;
  sopts.max_queue_depth = 1 << 20;
  sopts.per_client_quota = 1 << 20;
  blazeit::serve::AdmissionQueue queue(&engine, sopts);

  struct Pending {
    int query = -1;
    int64_t submitted_ns = 0;
    int submit_span = -1;
  };
  const int64_t started = SteadyNs();
  int pass = 0;
  for (; KeepGoing(opt, pass, *obs, started); ++pass) {
    PassScope scope(opt, pass, &engine, &ready, obs);
    ScopedSpan pass_span(&obs->spans, "pass");
    int in_pass = 0;
    size_t i = 0;
    while (i < suite.schedule.size()) {
      const int64_t tick = suite.schedule[i].tick;
      std::map<int64_t, Pending> pending;  // by ticket
      for (; i < suite.schedule.size() && suite.schedule[i].tick == tick;
           ++i) {
        const Submission& sub = suite.schedule[i];
        Pending p;
        p.query = sub.query;
        p.submit_span =
            obs->spans.Open("submit", pass_span.index(), sub.query);
        p.submitted_ns = SteadyNs();
        auto ticket = queue.Submit(
            sub.client, suite.queries[static_cast<size_t>(sub.query)].frameql);
        obs->spans.Close(p.submit_span);
        ++in_pass;
        if (!ticket.ok()) {
          QueryRecord rec;
          rec.query = sub.query;
          rec.pass = pass;
          rec.status = "refused";
          rec.error = ticket.status().ToString();
          obs->queries.push_back(rec);
          continue;
        }
        pending[ticket.value()] = p;
      }
      int advance_span = -1;
      {
        ScopedSpan span(&obs->spans, "advance", pass_span.index());
        advance_span = span.index();
        queue.Advance(1);
      }
      std::vector<blazeit::serve::ServeResponse> responses;
      {
        ScopedSpan span(&obs->spans, "take_completed", pass_span.index());
        responses = queue.TakeCompleted();
      }
      const int64_t taken = SteadyNs();
      std::map<int64_t, double> exec_wall_ms;  // by correlation id
      if (PassTraced(opt, pass)) {
        for (const auto& r : blazeit::obs::FlightRecorder::Global().Snapshot()) {
          exec_wall_ms.emplace(r.correlation_id, r.wall_ms);
        }
      }
      for (const auto& resp : responses) {
        auto it = pending.find(resp.ticket);
        if (it == pending.end()) continue;
        const Pending& p = it->second;
        QueryRecord rec;
        rec.query = p.query;
        rec.pass = pass;
        rec.latency_ms = static_cast<double>(taken - p.submitted_ns) * 1e-6;
        FillFromOutput(resp.output, &rec, obs);
        if (resp.degraded) {
          rec.status = "error";
          rec.error = "shed to a degraded plan";
        }
        rec.shared_nn_frames = resp.stats.shared_nn_frames;
        auto wall = exec_wall_ms.find(resp.correlation_id);
        if (wall != exec_wall_ms.end()) rec.exec_wall_ms = wall->second;
        if (resp.output.ok()) {
          const int submit_span = p.submit_span;
          AddReportSpans(
              resp.output.value(), p.submitted_ns, p.query,
              [submit_span, advance_span](const std::string& name) {
                return name == "parse" || name == "analyze" ? submit_span
                                                            : advance_span;
              },
              &obs->spans);
        }
        obs->queries.push_back(rec);
        pending.erase(it);
      }
      for (const auto& [ticket, p] : pending) {
        QueryRecord rec;
        rec.query = p.query;
        rec.pass = pass;
        rec.status = "error";
        rec.error = "no response after its window";
        obs->queries.push_back(rec);
      }
    }
    scope.Finish(in_pass);
  }
  obs->serve = queue.stats();
  obs->spans.set_enabled(opt.trace);
  {
    ScopedSpan span(&obs->spans, "flush");
    BLAZEIT_RETURN_NOT_OK(ready.catalog->FlushDetectionStore());
  }
  obs->store_bytes = DirBytes(opt.store_dir);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Fixture
// ---------------------------------------------------------------------------

Status BuildFixture(const Options& opt, const Suite& suite) {
  fs::remove_all(opt.store_dir);
  Observations obs;
  BLAZEIT_ASSIGN_OR_RETURN(Ready ready,
                           SetUp(suite, opt.store_dir, false, &obs));
  VideoCatalog* catalog = ready.catalog.get();
  BlazeItEngine engine(catalog, BenchEngineOptions());
  std::vector<QueryRecord> cold;
  for (int q : suite.suite) {
    cold.push_back(ExecuteOne(suite, q, 0, &engine, -1, &obs));
  }
  BLAZEIT_RETURN_NOT_OK(catalog->FlushDetectionStore());
  BLAZEIT_RETURN_NOT_OK(BuildSketches(suite, catalog));
  const int64_t records = catalog->detection_store()->TotalRecords();

  std::string out = "perfbench-ref\t1\n";
  for (size_t i = 0; i < suite.suite.size(); ++i) {
    // The replay reference: the suite against the finished store, with
    // its sketches, as restart-replay will see it.
    QueryRecord warm = ExecuteOne(suite, suite.suite[i], 0, &engine, -1, &obs);
    const Query& q = suite.queries[static_cast<size_t>(suite.suite[i])];
    out += "suite\t" + q.id + "\t" + warm.status + "\t" +
           Hex(warm.out_digest) + "\t" + Hex(warm.cost_digest) + "\t" +
           cold[i].status + "\t" + Hex(cold[i].out_digest) + "\n";
  }
  std::set<int> serve_queries;
  for (const Submission& sub : suite.schedule) serve_queries.insert(sub.query);
  for (int q : serve_queries) {
    QueryRecord ref = ExecuteOne(suite, q, 0, &engine, -1, &obs);
    out += "serve\t" + suite.queries[static_cast<size_t>(q)].id + "\t" +
           ref.status + "\t" + Hex(ref.out_digest) + "\t" +
           Hex(ref.cost_digest) + "\n";
  }
  BLAZEIT_RETURN_NOT_OK(catalog->FlushDetectionStore());
  const int64_t after = catalog->detection_store()->TotalRecords();
  if (after != records) {
    return Status::FailedPrecondition(
        "the replay or the serve-mix references wrote " +
        std::to_string(after - records) +
        " records: they need artifacts the cold suite never built");
  }
  std::ofstream file(opt.out_path);
  file << out;
  if (!file.good()) return Status::Internal("cannot write " + opt.out_path);
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Raw output
// ---------------------------------------------------------------------------

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ToJson(const Options& opt, const Suite& suite,
                   const Observations& obs) {
  std::string j = "{";
  j += "\"workload\":\"" + JsonEscape(opt.workload) + "\"";
  j += ",\"threads\":" + std::to_string(PoolLanes());
  j += ",\"simd\":\"" + std::string(blazeit::ActiveSimdTierName()) + "\"";
  j += ",\"traced\":" + std::string(opt.trace ? "true" : "false");
  j += ",\"peak_rss_kb\":" + std::to_string(PeakRssKb());
  j += ",\"store_bytes\":" + std::to_string(obs.store_bytes);
  j += ",\"setups\":[";
  for (size_t i = 0; i < obs.setup_s.size(); ++i) {
    if (i) j += ",";
    j += Num(obs.setup_s[i]);
  }
  j += "],\"passes\":[";
  for (size_t i = 0; i < obs.passes.size(); ++i) {
    const PassRecord& p = obs.passes[i];
    if (i) j += ",";
    j += "{\"traced\":" + std::string(p.traced ? "true" : "false") +
         ",\"queries\":" + std::to_string(p.queries) +
         ",\"wall_s\":" + Num(p.wall_s) + ",\"cpu_s\":" + Num(p.cpu_s) + "}";
  }
  j += "],\"queries\":[";
  for (size_t i = 0; i < obs.queries.size(); ++i) {
    const QueryRecord& r = obs.queries[i];
    if (i) j += ",";
    j += "{\"id\":\"" +
         JsonEscape(suite.queries[static_cast<size_t>(r.query)].id) + "\"";
    j += ",\"pass\":" + std::to_string(r.pass);
    j += ",\"status\":\"" + r.status + "\"";
    if (!r.error.empty()) j += ",\"error\":\"" + JsonEscape(r.error) + "\"";
    if (r.status == "ok") {
      j += ",\"out\":\"" + Hex(r.out_digest) + "\"";
      j += ",\"cost\":\"" + Hex(r.cost_digest) + "\"";
      j += ",\"sim_s\":" + Num(r.sim_s);
      j += ",\"det\":" + std::to_string(r.detector_calls);
      j += ",\"nn\":" + std::to_string(r.nn_frames);
      j += ",\"scalar\":" + Num(r.scalar);
    }
    if (r.has_frames) {
      j += ",\"frames\":[";
      for (size_t f = 0; f < r.frames.size(); ++f) {
        if (f) j += ",";
        j += std::to_string(r.frames[f]);
      }
      j += "]";
    }
    j += ",\"lat_ms\":" + Num(r.latency_ms);
    if (r.exec_wall_ms >= 0) j += ",\"exec_wall_ms\":" + Num(r.exec_wall_ms);
    if (r.shared_nn_frames > 0) {
      j += ",\"shared_nn\":" + std::to_string(r.shared_nn_frames);
    }
    j += "}";
  }
  j += "],\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : obs.counters) {
    if (!first) j += ",";
    first = false;
    j += "\"" + JsonEscape(name) + "\":" + Num(value);
  }
  j += "},\"serve\":{";
  j += "\"submitted\":" + std::to_string(obs.serve.submitted);
  j += ",\"batches\":" + std::to_string(obs.serve.batches);
  j += ",\"groups\":" + std::to_string(obs.serve.groups);
  j += ",\"coalesced\":" + std::to_string(obs.serve.coalesced_queries);
  j += "},\"labels\":{";
  first = true;
  for (const auto& [key, counts] : obs.labels) {
    if (!first) j += ",";
    first = false;
    j += "\"" + JsonEscape(key) + "\":[";
    for (size_t f = 0; f < counts.size(); ++f) {
      if (f) j += ",";
      j += std::to_string(counts[f]);
    }
    j += "]";
  }
  j += "},\"spans\":[";
  const auto& spans = obs.spans.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    if (i) j += ",";
    j += "[\"" + JsonEscape(s.name) + "\"," + std::to_string(s.parent) + "," +
         std::to_string(s.start_ns) + "," + std::to_string(s.end_ns) + "," +
         std::to_string(s.query) + "]";
  }
  j += "]}";
  return j;
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------

bool ParseArgs(int argc, char** argv, Options* opt) {
  if (argc < 2) return false;
  opt->mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--suite") {
      opt->suite_path = value;
    } else if (flag == "--store") {
      opt->store_dir = value;
    } else if (flag == "--work") {
      opt->work_dir = value;
    } else if (flag == "--out") {
      opt->out_path = value;
    } else if (flag == "--seconds") {
      opt->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      opt->trace = value == "1";
    } else {
      return false;
    }
  }
  return !opt->suite_path.empty() && !opt->out_path.empty();
}

int Main(int argc, char** argv) {
  blazeit::Logger::set_level(blazeit::LogLevel::kWarning);
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return Usage();
  auto suite = LoadSuite(opt.suite_path);
  if (!suite.ok()) {
    std::fprintf(stderr, "error: %s\n", suite.status().ToString().c_str());
    return 1;
  }
  blazeit::exec::ThreadPool::Instance().Reconfigure(PoolLanes());

  if (opt.mode == "fixture") {
    if (opt.store_dir.empty()) return Usage();
    Status built = BuildFixture(opt, suite.value());
    if (!built.ok()) {
      std::fprintf(stderr, "error: %s\n", built.ToString().c_str());
      return 1;
    }
    return 0;
  }
  if (opt.mode != "run" || opt.work_dir.empty()) return Usage();

  Observations obs;
  Status ran = Status::OK();
  if (opt.workload == "cold-ingest") {
    ran = RunColdIngest(opt, suite.value(), &obs);
  } else if (opt.workload == "restart-replay" && !opt.store_dir.empty()) {
    ran = RunRestartReplay(opt, suite.value(), &obs);
  } else if (opt.workload == "serve-mix" && !opt.store_dir.empty()) {
    ran = RunServeMix(opt, suite.value(), &obs);
  } else {
    return Usage();
  }
  if (!ran.ok()) {
    std::fprintf(stderr, "error: %s\n", ran.ToString().c_str());
    return 1;
  }
  std::ofstream file(opt.out_path);
  file << ToJson(opt, suite.value(), obs);
  return file.good() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
