// storecli: build, inspect, and verify persistent detection-store
// directories and segment files (src/storage/).
//
//   storecli build <store-dir> <stream> <day> [frames]
//       Precomputes detections of one generated day of a named stream
//       (train|held_out|test) into the store, so later engine/test/bench
//       runs start warm. `frames` overrides the default day length.
//   storecli ls <store-dir>
//       Lists every record namespace with its record count.
//   storecli stats <store-dir> [--json]
//       Per-namespace inventory (segments, records, pending, shadowed
//       duplicates, repair generation) plus sketch coverage and staleness;
//       --json emits one machine-readable object.
//   storecli inspect <segment-file>
//       Prints the segment header and per-record summary stats.
//   storecli verify <store-dir>
//       Full open: validates magic, version, and every record CRC of every
//       segment; exits non-zero with the failing segment's error.
//   storecli compact <store-dir>
//       Rewrites every namespace with multiple segments or first-write-
//       wins-shadowed duplicate records into one fresh segment per
//       namespace, dropping the shadowed duplicates; record resolution is
//       unchanged (the surviving payload per frame is the one reads
//       already returned).
//   storecli repair <store-dir>
//       Reads every record and drops those whose payload no engine codec
//       decodes (CRC-valid but semantically malformed), rewriting the
//       affected namespaces in place. A dropped record becomes a plain
//       miss, so the next engine run recomputes and re-stores it once
//       instead of warning on every run.
//   storecli sketch ls <store-dir>
//       Lists every sketched namespace with block count and staleness.
//   storecli sketch verify <store-dir>
//       Loads every sketch index the way the engine would and exits
//       non-zero if any is stale or unloadable.
//   storecli sketch rebuild <store-dir> [namespace-hex]
//       (Re)builds segment sketches for one detections namespace, or for
//       every detections namespace in the store when omitted.
//   storecli sketch drop <store-dir> <namespace-hex>
//       Removes a namespace's sketches; it stops being indexed.
//   storecli query <store-dir> <stream> <frameql> [options]
//       Executes one FrameQL query against the store with reporting on
//       and prints its ExecutionReport (EXPLAIN-style plan + stage trace
//       + simulated-cost breakdown + cache/sketch hit rates). Options:
//       --json (report as JSON), --trace FILE (write the Chrome
//       trace_event JSON; load in chrome://tracing), --metrics FILE
//       (write the process metrics snapshot JSON), --train/--held/--test N
//       (day lengths; defaults are the paper-scale days), --small-nn
//       (the test suites' small specialized NN, so a store the test lane
//       warmed is reused), --repeat N (run the query N times against the
//       same engine; the report printed is the last run's, prefixed by a
//       per-run summary line), --concurrency N (run the repeats from N
//       client threads concurrently; outputs stay bit-identical to
//       serial because engine execution is determinism-contracted).
//   storecli serve <store-dir> <workload-file> [options]
//       Replays a query workload against the multi-tenant serving core
//       (serve::AdmissionQueue): each workload line is `client frameql`
//       (blank lines and # comments skipped), submitted in file order,
//       then the queue is drained. Prints one JSON object with per-query
//       reports (sorted by ticket), rejected submissions, and the
//       server's cumulative stats. Options: --stream S (register stream
//       S; repeatable, default taipei), --window T / --max-queue N /
//       --quota N / --shed-depth N (ServeOptions knobs), --tick-every K
//       (advance the virtual clock after every K submissions, closing
//       admission windows mid-replay; 0 = drain-only), --repeat N
//       (replay the workload N times), --prom FILE (write the final
//       metrics registry snapshot in Prometheus text format),
//       --small-nn / --train / --held / --test as for `query`.
//       Debug server: --listen PORT starts the HTTP observability front
//       end on 127.0.0.1:PORT (0 = ephemeral pick; the bound port goes to
//       stderr and to --port-file FILE when given) serving /metrics,
//       /healthz, /statusz, /tracez, /varz; --linger-ms N keeps the
//       process (and the endpoints) alive N ms after the replay JSON
//       prints, so scrapers can read post-run state; --wall-clock-ms N
//       drives the admission clock from a real timer (one tick every N
//       ms) instead of --tick-every's virtual schedule.
//
// Every numeric argument must be a whole integer in its range (namespaces
// in hex); anything else is a usage error (exit 2).
#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/catalog.h"
#include "core/engine.h"
#include "detect/cached_detector.h"
#include "detect/simulated_detector.h"
#include "obs/debug_server.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "obs/report.h"
#include "serve/admission_queue.h"
#include "storage/detection_store.h"
#include "storage/record_format.h"
#include "storage/segment_sketch.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "video/datasets.h"

namespace blazeit {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  storecli build <store-dir> <stream> <day> [frames]\n"
               "  storecli ls <store-dir>\n"
               "  storecli inspect <segment-file>\n"
               "  storecli verify <store-dir>\n"
               "  storecli compact <store-dir>\n"
               "  storecli repair <store-dir>\n"
               "  storecli sketch ls <store-dir>\n"
               "  storecli sketch verify <store-dir>\n"
               "  storecli sketch rebuild <store-dir> [namespace-hex]\n"
               "  storecli sketch drop <store-dir> <namespace-hex>\n"
               "  storecli query <store-dir> <stream> <frameql> [--json]\n"
               "      [--trace FILE] [--metrics FILE] [--small-nn]\n"
               "      [--train N] [--held N] [--test N]\n"
               "      [--repeat N] [--concurrency N]\n"
               "  storecli serve <store-dir> <workload-file> [--stream S]...\n"
               "      [--window T] [--max-queue N] [--quota N]\n"
               "      [--shed-depth N] [--tick-every K] [--repeat N]\n"
               "      [--prom FILE] [--small-nn] [--train N] [--held N]\n"
               "      [--test N] [--listen PORT] [--port-file FILE]\n"
               "      [--linger-ms N] [--wall-clock-ms N]\n"
               "streams: taipei night-street rialto grand-canal amsterdam "
               "archie\ndays: train held_out test\n");
  return 2;
}

constexpr int64_t kNoLimit = std::numeric_limits<int64_t>::max();

/// The one parser for numeric arguments: all of `text` must be an integer
/// in [lo, hi], in decimal or (base 16, for namespaces) bare hex digits.
/// Empty text, trailing junk, a sign the type cannot hold, overflow and
/// out-of-range values all return false.
template <typename T>
bool ParseNumber(const std::string& text, std::type_identity_t<T> lo,
                 std::type_identity_t<T> hi, T* out, int base = 10) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
  if (ec != std::errc() || ptr != end || value < lo || value > hi) {
    return false;
  }
  *out = value;
  return true;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int RunBuild(const std::string& dir, const std::string& stream,
             const std::string& day, int64_t frames_override) {
  auto config = StreamConfigByName(stream);
  if (!config.ok()) return Fail(config.status());

  uint64_t seed = 0;
  int64_t frames = 0;
  if (day == "train") {
    seed = kTrainDaySeed;
    frames = kDefaultTrainFrames;
  } else if (day == "held_out") {
    seed = kThresholdDaySeed;
    frames = kDefaultHeldOutFrames;
  } else if (day == "test") {
    seed = kTestDaySeed;
    frames = kDefaultTestFrames;
  } else {
    return Usage();
  }
  if (frames_override > 0) frames = frames_override;

  auto video = SyntheticVideo::Create(config.value(), seed, frames);
  if (!video.ok()) return Fail(video.status());
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());

  SimulatedDetector inner;
  CachedDetector detector(&inner, store.value().get());
  for (int64_t t = 0; t < frames; ++t) {
    (void)detector.Detect(*video.value(), t);
  }
  Status flush = store.value()->Flush();
  if (!flush.ok()) return Fail(flush);
  std::printf(
      "built %s/%s: %lld frames into namespace %016llx (%lld computed, "
      "%lld already stored)\n",
      stream.c_str(), day.c_str(), static_cast<long long>(frames),
      static_cast<unsigned long long>(
          DetectionNamespace(*video.value(), inner)),
      static_cast<long long>(detector.store_misses()),
      static_cast<long long>(detector.store_hits()));
  return 0;
}

int RunLs(const std::string& dir) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  std::printf("%-18s %s\n", "namespace", "records");
  int64_t total = 0;
  for (uint64_t ns : store.value()->Namespaces()) {
    const int64_t records = store.value()->RecordCount(ns);
    std::printf("%016llx   %lld\n", static_cast<unsigned long long>(ns),
                static_cast<long long>(records));
    total += records;
  }
  std::printf("%lld records in %zu namespaces\n",
              static_cast<long long>(total),
              store.value()->Namespaces().size());
  return 0;
}

int RunStats(const std::string& dir, bool json) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  const auto namespaces = store.value()->PerNamespaceStats();
  auto sketches = store.value()->ListSketches();
  if (!sketches.ok()) return Fail(sketches.status());

  if (json) {
    std::string out =
        "{\"dir\":\"" + JsonEscape(dir) + "\",\"namespaces\":[";
    bool first = true;
    for (const auto& ns : namespaces) {
      if (!first) out += ",";
      first = false;
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "{\"ns\":\"%016llx\",\"segments\":%lld,\"records\":%lld,"
          "\"pending\":%lld,\"shadowed\":%lld,\"repair_generation\":%llu}",
          static_cast<unsigned long long>(ns.ns),
          static_cast<long long>(ns.segments),
          static_cast<long long>(ns.records),
          static_cast<long long>(ns.pending),
          static_cast<long long>(ns.shadowed),
          static_cast<unsigned long long>(ns.repair_generation));
      out += buf;
    }
    out += "],\"sketches\":[";
    first = true;
    for (const auto& info : sketches.value()) {
      if (!first) out += ",";
      first = false;
      char buf[256];
      std::snprintf(
          buf, sizeof(buf),
          "{\"base_ns\":\"%016llx\",\"blocks\":%lld,"
          "\"base_records_at_build\":%lld,\"base_records_now\":%lld,"
          "\"current\":%s}",
          static_cast<unsigned long long>(info.base_ns),
          static_cast<long long>(info.blocks),
          static_cast<long long>(info.base_records_at_build),
          static_cast<long long>(info.base_records_now),
          info.current ? "true" : "false");
      out += buf;
    }
    out += "]}";
    std::printf("%s\n", out.c_str());
    return 0;
  }

  std::printf("%-18s %8s %10s %8s %9s %6s\n", "namespace", "segments",
              "records", "pending", "shadowed", "repgen");
  int64_t records = 0, segments = 0, shadowed = 0;
  for (const auto& ns : namespaces) {
    std::printf("%016llx   %8lld %10lld %8lld %9lld %6llu\n",
                static_cast<unsigned long long>(ns.ns),
                static_cast<long long>(ns.segments),
                static_cast<long long>(ns.records),
                static_cast<long long>(ns.pending),
                static_cast<long long>(ns.shadowed),
                static_cast<unsigned long long>(ns.repair_generation));
    records += ns.records;
    segments += ns.segments;
    shadowed += ns.shadowed;
  }
  std::printf("%lld records in %zu namespaces (%lld segments, %lld "
              "shadowed duplicates)\n",
              static_cast<long long>(records), namespaces.size(),
              static_cast<long long>(segments),
              static_cast<long long>(shadowed));
  int64_t current = 0;
  for (const auto& info : sketches.value()) {
    if (info.current) ++current;
  }
  std::printf("sketches: %zu namespaces indexed, %lld current, %lld stale\n",
              sketches.value().size(), static_cast<long long>(current),
              static_cast<long long>(
                  static_cast<int64_t>(sketches.value().size()) - current));
  return 0;
}

int WriteFileOrFail(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
    return 1;
  }
  const bool written =
      std::fwrite(content.data(), 1, content.size(), f) == content.size();
  // fclose flushes the stdio buffer, so a full disk often shows only here.
  if (std::fclose(f) != 0 || !written) {
    std::fprintf(stderr, "error: short write to %s\n", path.c_str());
    return 1;
  }
  return 0;
}

struct QueryArgs {
  std::string dir;
  std::string stream;
  std::string frameql;
  bool json = false;
  std::string trace_path;
  std::string metrics_path;
  int64_t train = kDefaultTrainFrames;
  int64_t held = kDefaultHeldOutFrames;
  int64_t test = kDefaultTestFrames;
  bool small_nn = false;
  int64_t repeat = 1;
  int64_t concurrency = 1;
};

EngineOptions ToolEngineOptions(bool small_nn) {
  EngineOptions options;
  options.collect_reports = true;
  options.use_store_index = true;
  if (small_nn) {
    // Mirror the test suites' SmallNN so their warm store replays.
    SpecializedNNConfig nn;
    nn.raster_width = 16;
    nn.raster_height = 16;
    nn.hidden_dims = {32};
    options.aggregate.nn = nn;
    options.scrub.nn = nn;
    options.selection.nn = nn;
  }
  return options;
}

int RunQuery(const QueryArgs& args) {
  auto config = StreamConfigByName(args.stream);
  if (!config.ok()) return Fail(config.status());

  VideoCatalog catalog;
  Status enabled = catalog.EnableDetectionStore(args.dir);
  if (!enabled.ok()) return Fail(enabled);
  DayLengths lengths;
  lengths.train = args.train;
  lengths.held_out = args.held;
  lengths.test = args.test;
  Status added = catalog.AddStream(config.value(), lengths);
  if (!added.ok()) return Fail(added);

  BlazeItEngine engine(&catalog, ToolEngineOptions(args.small_nn));
  const int64_t repeat = args.repeat;
  const int64_t concurrency = std::min(args.concurrency, repeat);
  Result<QueryOutput> out = Status::Internal("no run executed");
  if (concurrency <= 1) {
    for (int64_t r = 0; r < repeat; ++r) {
      out = engine.Execute(args.frameql);
      if (!out.ok()) return Fail(out.status());
    }
  } else {
    // Repeats are spread over client threads; execution stays
    // determinism-contracted, so the kept (last-indexed) output is
    // bit-identical to a serial run of the same query.
    std::vector<Result<QueryOutput>> runs(
        static_cast<size_t>(repeat), Result<QueryOutput>(Status::Internal("")));
    std::atomic<int64_t> next{0};
    std::vector<std::thread> threads;
    for (int64_t c = 0; c < concurrency; ++c) {
      threads.emplace_back([&] {
        for (int64_t r = next.fetch_add(1); r < repeat;
             r = next.fetch_add(1)) {
          runs[static_cast<size_t>(r)] = engine.Execute(args.frameql);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (const auto& run : runs) {
      if (!run.ok()) return Fail(run.status());
    }
    out = std::move(runs.back());
  }
  if (repeat > 1) {
    std::printf("%lld runs x %lld threads completed\n",
                static_cast<long long>(repeat),
                static_cast<long long>(concurrency));
  }
  Status flushed = catalog.FlushDetectionStore();
  if (!flushed.ok()) return Fail(flushed);

  const obs::ExecutionReport* report = out.value().report.get();
  if (report == nullptr) {
    std::fprintf(stderr, "error: engine produced no execution report\n");
    return 1;
  }
  if (args.json) {
    std::printf("%s\n", report->ToJson().c_str());
  } else {
    std::printf("%s", report->ToText().c_str());
  }
  if (!args.trace_path.empty()) {
    if (report->trace == nullptr) {
      std::fprintf(stderr, "error: report carries no trace\n");
      return 1;
    }
    const int rc =
        WriteFileOrFail(args.trace_path, report->trace->ToChromeJson());
    if (rc != 0) return rc;
  }
  if (!args.metrics_path.empty()) {
    const int rc = WriteFileOrFail(
        args.metrics_path, obs::MetricsRegistry::Global().Snapshot().ToJson());
    if (rc != 0) return rc;
  }
  return 0;
}

struct ServeArgs {
  std::string dir;
  std::string workload;
  std::vector<std::string> streams;
  int64_t window = 1;
  int64_t max_queue = 256;
  int64_t quota = 32;
  int64_t shed_depth = -1;
  int64_t tick_every = 0;
  int64_t repeat = 1;
  std::string prom_path;
  bool small_nn = false;
  int64_t train = kDefaultTrainFrames;
  int64_t held = kDefaultHeldOutFrames;
  int64_t test = kDefaultTestFrames;
  /// Debug server: < 0 = off; 0 = ephemeral port; > 0 = fixed port.
  int64_t listen_port = -1;
  /// File the bound port is written to (scrapers poll this).
  std::string port_file;
  /// Keep the process alive this long after printing the replay JSON.
  int64_t linger_ms = 0;
  /// ServeOptions::wall_clock_tick_ms (real-time window driver).
  int64_t wall_clock_ms = 0;
};

int RunServe(const ServeArgs& args) {
  // One workload line is `client frameql`; the first whitespace run splits
  // them, so queries keep their internal spaces.
  struct WorkItem {
    std::string client;
    std::string frameql;
  };
  std::vector<WorkItem> workload;
  {
    std::ifstream in(args.workload);
    if (!in) {
      std::fprintf(stderr, "error: cannot read workload %s\n",
                   args.workload.c_str());
      return 1;
    }
    std::string line;
    while (std::getline(in, line)) {
      const size_t first = line.find_first_not_of(" \t");
      if (first == std::string::npos || line[first] == '#') continue;
      const size_t space = line.find_first_of(" \t", first);
      if (space == std::string::npos) {
        std::fprintf(stderr, "error: workload line has no query: %s\n",
                     line.c_str());
        return 1;
      }
      const size_t query = line.find_first_not_of(" \t", space);
      if (query == std::string::npos) {
        std::fprintf(stderr, "error: workload line has no query: %s\n",
                     line.c_str());
        return 1;
      }
      workload.push_back(
          {line.substr(first, space - first), line.substr(query)});
    }
  }

  VideoCatalog catalog;
  Status enabled = catalog.EnableDetectionStore(args.dir);
  if (!enabled.ok()) return Fail(enabled);
  DayLengths lengths;
  lengths.train = args.train;
  lengths.held_out = args.held;
  lengths.test = args.test;
  std::vector<std::string> streams = args.streams;
  if (streams.empty()) streams.push_back("taipei");
  for (const std::string& stream : streams) {
    auto config = StreamConfigByName(stream);
    if (!config.ok()) return Fail(config.status());
    Status added = catalog.AddStream(config.value(), lengths);
    if (!added.ok()) return Fail(added);
  }

  EngineOptions eopts = ToolEngineOptions(args.small_nn);
  eopts.export_statusz = args.listen_port >= 0;
  BlazeItEngine engine(&catalog, eopts);
  serve::ServeOptions sopts;
  sopts.window_ticks = args.window;
  sopts.max_queue_depth = args.max_queue;
  sopts.per_client_quota = args.quota;
  sopts.shed_depth = args.shed_depth;
  sopts.wall_clock_tick_ms = args.wall_clock_ms;
  serve::AdmissionQueue queue(&engine, sopts);

  // Debug server + store health check. Declared after the catalog/queue
  // so teardown removes the health callback and stops the server before
  // the state they read dies.
  struct HealthTokenGuard {
    int64_t token = 0;
    ~HealthTokenGuard() {
      if (token != 0) obs::StatusRegistry::Global().Remove(token);
    }
  };
  std::unique_ptr<obs::DebugServer> debug;
  HealthTokenGuard health;
  if (args.listen_port >= 0) {
    obs::DebugServer::Options dopts;
    dopts.http.port = static_cast<int>(args.listen_port);
    debug = std::make_unique<obs::DebugServer>(dopts);
    health.token = obs::StatusRegistry::Global().AddHealthCheck(
        "store", [&catalog]() -> Result<std::string> {
          DetectionStore* store = catalog.detection_store();
          if (store == nullptr) {
            return Status::FailedPrecondition("no detection store enabled");
          }
          std::string detail =
              std::to_string(store->TotalRecords()) + " records, " +
              std::to_string(store->pending_records()) + " pending";
          auto sketches = store->ListSketches();
          if (!sketches.ok()) return sketches.status();
          int64_t stale = 0;
          for (const auto& info : sketches.value()) {
            if (!info.current) ++stale;
          }
          // Stale sketches degrade pruning, not correctness — report the
          // staleness in the detail but stay healthy.
          if (stale > 0) {
            detail += ", " + std::to_string(stale) +
                      " stale sketch namespace(s)";
          }
          return detail;
        });
    Status started = debug->Start();
    if (!started.ok()) return Fail(started);
    std::fprintf(stderr, "debug server listening on 127.0.0.1:%d\n",
                 debug->port());
    if (!args.port_file.empty()) {
      const int rc =
          WriteFileOrFail(args.port_file, std::to_string(debug->port()) + "\n");
      if (rc != 0) return rc;
    }
  }

  struct Rejection {
    std::string client;
    std::string frameql;
    std::string error;
  };
  std::vector<Rejection> rejected;
  int64_t since_tick = 0;
  for (int64_t rep = 0; rep < args.repeat; ++rep) {
    for (const WorkItem& item : workload) {
      auto ticket = queue.Submit(item.client, item.frameql);
      if (!ticket.ok()) {
        rejected.push_back(
            {item.client, item.frameql, ticket.status().ToString()});
      }
      if (args.tick_every > 0 && ++since_tick >= args.tick_every) {
        since_tick = 0;
        queue.Advance();
      }
    }
  }
  queue.Drain();
  Status flushed = catalog.FlushDetectionStore();
  if (!flushed.ok()) return Fail(flushed);

  std::vector<serve::ServeResponse> responses = queue.TakeCompleted();
  std::sort(responses.begin(), responses.end(),
            [](const serve::ServeResponse& a, const serve::ServeResponse& b) {
              return a.ticket < b.ticket;
            });

  std::string out = "{\"responses\":[";
  bool first = true;
  for (const serve::ServeResponse& r : responses) {
    if (!first) out += ",";
    first = false;
    out += "{\"ticket\":" + std::to_string(r.ticket);
    out += ",\"client\":\"" + JsonEscape(r.client) + "\"";
    out += ",\"frameql\":\"" + JsonEscape(r.frameql) + "\"";
    out += ",\"admitted_tick\":" + std::to_string(r.admitted_tick);
    out += ",\"executed_tick\":" + std::to_string(r.executed_tick);
    out += std::string(",\"degraded\":") + (r.degraded ? "true" : "false");
    out += std::string(",\"ok\":") + (r.output.ok() ? "true" : "false");
    if (r.output.ok()) {
      out += ",\"group\":" + std::to_string(r.stats.group);
      out +=
          ",\"shared_nn_frames\":" + std::to_string(r.stats.shared_nn_frames);
      out += ",\"shared_models\":" + std::to_string(r.stats.shared_models);
      if (r.output.value().report != nullptr) {
        out += ",\"report\":" + r.output.value().report->ToJson();
      }
    } else {
      out += ",\"error\":\"" + JsonEscape(r.output.status().ToString()) +
             "\"";
    }
    out += "}";
  }
  out += "],\"rejected\":[";
  first = true;
  for (const Rejection& r : rejected) {
    if (!first) out += ",";
    first = false;
    out += "{\"client\":\"" + JsonEscape(r.client) + "\"";
    out += ",\"frameql\":\"" + JsonEscape(r.frameql) + "\"";
    out += ",\"error\":\"" + JsonEscape(r.error) + "\"}";
  }
  const serve::ServerStats stats = queue.stats();
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "],\"stats\":{\"submitted\":%lld,\"rejected_queue_full\":%lld,"
      "\"rejected_quota\":%lld,\"shed\":%lld,\"batches\":%lld,"
      "\"groups\":%lld,\"coalesced_queries\":%lld,"
      "\"cross_client_groups\":%lld,\"shared_nn_frames\":%lld,"
      "\"shared_filter_frames\":%lld,\"shared_models\":%lld,"
      "\"standalone_seconds\":%.6f,\"batch_seconds\":%.6f}}",
      static_cast<long long>(stats.submitted),
      static_cast<long long>(stats.rejected_queue_full),
      static_cast<long long>(stats.rejected_quota),
      static_cast<long long>(stats.shed),
      static_cast<long long>(stats.batches),
      static_cast<long long>(stats.groups),
      static_cast<long long>(stats.coalesced_queries),
      static_cast<long long>(stats.cross_client_groups),
      static_cast<long long>(stats.shared_nn_frames),
      static_cast<long long>(stats.shared_filter_frames),
      static_cast<long long>(stats.shared_models),
      stats.standalone_seconds, stats.batch_seconds);
  out += buf;
  std::printf("%s\n", out.c_str());

  if (!args.prom_path.empty()) {
    const int rc = WriteFileOrFail(args.prom_path, obs::PrometheusText());
    if (rc != 0) return rc;
  }
  if (debug != nullptr && args.linger_ms > 0) {
    // The replay JSON is printed; hold the endpoints open so scrapers can
    // read post-run /metrics, /statusz, and /tracez.
    std::fflush(stdout);
    std::this_thread::sleep_for(std::chrono::milliseconds(args.linger_ms));
  }
  return 0;
}

int RunInspect(const std::string& path) {
  auto reader = StoreReader::Open(path);
  if (!reader.ok()) return Fail(reader.status());
  int64_t min_frame = 0, max_frame = 0;
  bool first = true;
  size_t payload_bytes = 0;
  for (const auto& [frame, offset] : reader.value()->index()) {
    auto payload = reader.value()->ReadPayloadAt(offset);
    if (!payload.ok()) return Fail(payload.status());
    payload_bytes += payload.value().size();
    if (first || frame < min_frame) min_frame = frame;
    if (first || frame > max_frame) max_frame = frame;
    first = false;
  }
  std::printf("segment:    %s\n", path.c_str());
  std::printf("format:     v%u (magic OK, all record CRCs OK)\n",
              kStoreFormatVersion);
  std::printf("namespace:  %016llx\n",
              static_cast<unsigned long long>(
                  reader.value()->record_namespace()));
  std::printf("records:    %zu\n", reader.value()->index().size());
  if (!first) {
    std::printf("frames:     [%lld, %lld]\n",
                static_cast<long long>(min_frame),
                static_cast<long long>(max_frame));
  }
  std::printf("payload:    %zu bytes\n", payload_bytes);
  return 0;
}

int RunVerify(const std::string& dir) {
  // Open() CRC-scans every record of every segment and rejects anything
  // stale, truncated, or corrupt.
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  std::printf("OK: %lld records in %zu namespaces verified\n",
              static_cast<long long>(store.value()->TotalRecords()),
              store.value()->Namespaces().size());
  return 0;
}

int RunCompact(const std::string& dir) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  const int64_t shadowed_before = store.value()->ShadowedRecords();
  auto stats = store.value()->Compact();
  if (!stats.ok()) return Fail(stats.status());
  std::printf(
      "compacted %lld of %zu namespaces: segments %lld -> %lld, "
      "%lld records kept, %lld shadowed duplicates dropped (%lld before)\n",
      static_cast<long long>(stats.value().namespaces_compacted),
      store.value()->Namespaces().size(),
      static_cast<long long>(stats.value().segments_before),
      static_cast<long long>(stats.value().segments_after),
      static_cast<long long>(stats.value().records_kept),
      static_cast<long long>(stats.value().duplicates_dropped),
      static_cast<long long>(shadowed_before));
  return 0;
}

int RunRepair(const std::string& dir) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  auto stats = store.value()->Repair();
  if (!stats.ok()) return Fail(stats.status());
  std::printf(
      "repaired %s: %lld records scanned in %lld namespaces, "
      "%lld malformed records dropped, %lld namespaces rewritten\n",
      dir.c_str(), static_cast<long long>(stats.value().records_scanned),
      static_cast<long long>(stats.value().namespaces_scanned),
      static_cast<long long>(stats.value().malformed_dropped),
      static_cast<long long>(stats.value().namespaces_rewritten));
  if (stats.value().malformed_dropped > 0) {
    std::printf(
        "dropped records are recomputed and re-stored by the next engine "
        "run that needs them\n");
  }
  return 0;
}

int RunSketchLs(const std::string& dir) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  auto infos = store.value()->ListSketches();
  if (!infos.ok()) return Fail(infos.status());
  std::printf("%-18s %-18s %8s %10s %10s %s\n", "base", "sketch", "blocks",
              "built-at", "now", "state");
  for (const auto& info : infos.value()) {
    std::printf("%016llx   %016llx   %8lld %10lld %10lld %s\n",
                static_cast<unsigned long long>(info.base_ns),
                static_cast<unsigned long long>(info.sketch_ns),
                static_cast<long long>(info.blocks),
                static_cast<long long>(info.base_records_at_build),
                static_cast<long long>(info.base_records_now),
                info.current ? "current" : "STALE");
  }
  std::printf("%zu sketched namespaces\n", infos.value().size());
  return 0;
}

int RunSketchVerify(const std::string& dir) {
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  auto infos = store.value()->ListSketches();
  if (!infos.ok()) return Fail(infos.status());
  int failures = 0;
  for (const auto& info : infos.value()) {
    // Load the index exactly the way the engine's executors do; a stale or
    // malformed index loads as invalid and the engine falls back to the
    // unindexed path, so "invalid" here means "sketches are dead weight",
    // not "queries return wrong answers".
    SketchIndex index = SketchIndex::Load(store.value().get(), info.base_ns);
    if (index.valid()) {
      std::printf("%016llx: OK (%zu blocks)\n",
                  static_cast<unsigned long long>(info.base_ns),
                  index.blocks().size());
    } else {
      std::printf("%016llx: INVALID (stale or malformed; run "
                  "`storecli sketch rebuild`)\n",
                  static_cast<unsigned long long>(info.base_ns));
      ++failures;
    }
  }
  if (infos.value().empty()) std::printf("no sketched namespaces\n");
  return failures == 0 ? 0 : 1;
}

int RunSketchRebuild(const std::string& dir, const std::string& ns_hex) {
  uint64_t ns = 0;
  if (!ns_hex.empty() &&
      !ParseNumber(ns_hex, 0, std::numeric_limits<uint64_t>::max(), &ns, 16)) {
    return Usage();
  }
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  if (!ns_hex.empty()) {
    Status built = store.value()->BuildSketches(ns);
    if (!built.ok()) return Fail(built);
    std::printf("rebuilt sketches for %016llx\n",
                static_cast<unsigned long long>(ns));
    return 0;
  }
  // No namespace given: sketch every detections namespace. Non-detections
  // namespaces (artifact blobs, the sketches themselves) refuse with
  // InvalidArgument, which is the expected skip, not an error.
  int64_t built_count = 0, skipped = 0;
  for (uint64_t ns : store.value()->Namespaces()) {
    Status built = store.value()->BuildSketches(ns);
    if (built.ok()) {
      std::printf("rebuilt sketches for %016llx\n",
                  static_cast<unsigned long long>(ns));
      ++built_count;
    } else if (built.code() == StatusCode::kInvalidArgument) {
      ++skipped;
    } else {
      return Fail(built);
    }
  }
  std::printf("%lld namespaces sketched, %lld non-detections skipped\n",
              static_cast<long long>(built_count),
              static_cast<long long>(skipped));
  return 0;
}

int RunSketchDrop(const std::string& dir, const std::string& ns_hex) {
  uint64_t ns = 0;
  if (!ParseNumber(ns_hex, 0, std::numeric_limits<uint64_t>::max(), &ns, 16)) {
    return Usage();
  }
  auto store = DetectionStore::Open(dir);
  if (!store.ok()) return Fail(store.status());
  Status dropped = store.value()->DropSketches(ns);
  if (!dropped.ok()) return Fail(dropped);
  std::printf("dropped sketches for %016llx\n",
              static_cast<unsigned long long>(ns));
  return 0;
}

int Main(int argc, char** argv) {
  Logger::set_level(LogLevel::kWarning);
  if (argc < 3) return Usage();
  const std::string command = argv[1];
  if (command == "build") {
    if (argc < 5) return Usage();
    int64_t frames = 0;  // the day's default length
    if (argc > 5 && !ParseNumber(argv[5], 1, kNoLimit, &frames)) {
      return Usage();
    }
    return RunBuild(argv[2], argv[3], argv[4], frames);
  }
  if (command == "ls") return RunLs(argv[2]);
  if (command == "stats") {
    const bool json = argc > 3 && std::strcmp(argv[3], "--json") == 0;
    return RunStats(argv[2], json);
  }
  if (command == "query") {
    if (argc < 5) return Usage();
    QueryArgs args;
    args.dir = argv[2];
    args.stream = argv[3];
    args.frameql = argv[4];
    bool ok = true;  // every numeric value parsed
    for (int i = 5; ok && i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--json") {
        args.json = true;
      } else if (flag == "--small-nn") {
        args.small_nn = true;
      } else if (flag == "--trace" && i + 1 < argc) {
        args.trace_path = argv[++i];
      } else if (flag == "--metrics" && i + 1 < argc) {
        args.metrics_path = argv[++i];
      } else if (flag == "--train" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.train);
      } else if (flag == "--held" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.held);
      } else if (flag == "--test" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.test);
      } else if (flag == "--repeat" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.repeat);
      } else if (flag == "--concurrency" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.concurrency);
      } else {
        return Usage();
      }
    }
    if (!ok) return Usage();
    return RunQuery(args);
  }
  if (command == "serve") {
    if (argc < 4) return Usage();
    ServeArgs args;
    args.dir = argv[2];
    args.workload = argv[3];
    bool ok = true;  // every numeric value parsed
    for (int i = 4; ok && i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--stream" && i + 1 < argc) {
        args.streams.push_back(argv[++i]);
      } else if (flag == "--window" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 0, kNoLimit, &args.window);
      } else if (flag == "--max-queue" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.max_queue);
      } else if (flag == "--quota" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.quota);
      } else if (flag == "--shed-depth" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], -1, kNoLimit, &args.shed_depth);
      } else if (flag == "--tick-every" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 0, kNoLimit, &args.tick_every);
      } else if (flag == "--repeat" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.repeat);
      } else if (flag == "--prom" && i + 1 < argc) {
        args.prom_path = argv[++i];
      } else if (flag == "--small-nn") {
        args.small_nn = true;
      } else if (flag == "--train" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.train);
      } else if (flag == "--held" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.held);
      } else if (flag == "--test" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 1, kNoLimit, &args.test);
      } else if (flag == "--listen" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 0, 65535, &args.listen_port);
      } else if (flag == "--port-file" && i + 1 < argc) {
        args.port_file = argv[++i];
      } else if (flag == "--linger-ms" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 0, kNoLimit, &args.linger_ms);
      } else if (flag == "--wall-clock-ms" && i + 1 < argc) {
        ok = ParseNumber(argv[++i], 0, kNoLimit, &args.wall_clock_ms);
      } else {
        return Usage();
      }
    }
    if (!ok) return Usage();
    return RunServe(args);
  }
  if (command == "inspect") return RunInspect(argv[2]);
  if (command == "verify") return RunVerify(argv[2]);
  if (command == "compact") return RunCompact(argv[2]);
  if (command == "repair") return RunRepair(argv[2]);
  if (command == "sketch") {
    if (argc < 4) return Usage();
    const std::string sub = argv[2];
    if (sub == "ls") return RunSketchLs(argv[3]);
    if (sub == "verify") return RunSketchVerify(argv[3]);
    if (sub == "rebuild") {
      return RunSketchRebuild(argv[3], argc > 4 ? argv[4] : "");
    }
    if (sub == "drop" && argc > 4) return RunSketchDrop(argv[3], argv[4]);
    return Usage();
  }
  return Usage();
}

}  // namespace
}  // namespace blazeit

int main(int argc, char** argv) { return blazeit::Main(argc, argv); }
