#ifndef BLAZEIT_OBS_DEBUG_SERVER_H_
#define BLAZEIT_OBS_DEBUG_SERVER_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/http_server.h"
#include "util/mutex.h"
#include "util/status.h"

namespace blazeit {
namespace obs {

/// Process-wide registry the layers publish their introspection through:
/// each subsystem (storage, exec, serve, engine, obs itself) registers a
/// /statusz *section* — a callback returning one JSON object — and
/// optionally a /healthz *check* — a callback returning a detail string
/// on success or a failing Status. The debug server renders whatever is
/// registered, so a layer showing up in /statusz is one AddSection call,
/// not a debug-server edit.
///
/// Lifetime: Add* returns a token; Remove(token) must run before the
/// state the callback captures dies (AdmissionQueue and BlazeItEngine do
/// this in their destructors). Callbacks are invoked while the registry
/// lock is held, so Remove never returns with a call still in flight.
class StatusRegistry {
 public:
  /// Returns one JSON object (rendered under "status" in the section).
  using SectionFn = std::function<std::string()>;
  /// OK -> detail string for the healthz body; error -> endpoint is 503.
  using HealthFn = std::function<Result<std::string>()>;

  static StatusRegistry& Global();

  StatusRegistry() = default;
  StatusRegistry(const StatusRegistry&) = delete;
  StatusRegistry& operator=(const StatusRegistry&) = delete;

  int64_t AddSection(const std::string& name, SectionFn fn)
      BLAZEIT_EXCLUDES(mu_);
  int64_t AddHealthCheck(const std::string& name, HealthFn fn)
      BLAZEIT_EXCLUDES(mu_);
  void Remove(int64_t token) BLAZEIT_EXCLUDES(mu_);

  /// Every registered section, in registration order: (name, JSON body).
  /// Invokes the callbacks.
  std::vector<std::pair<std::string, std::string>> RenderSections() const
      BLAZEIT_EXCLUDES(mu_);

  struct HealthResult {
    std::string name;
    bool ok = true;
    std::string detail;  // success detail or the failing Status string
  };
  std::vector<HealthResult> RunHealthChecks() const;

 private:
  struct Entry {
    int64_t token = 0;
    std::string name;
    SectionFn section;  // exactly one of section/health is set
    HealthFn health;
  };

  mutable util::Mutex mu_;
  int64_t next_token_ BLAZEIT_GUARDED_BY(mu_) = 1;
  std::vector<Entry> entries_ BLAZEIT_GUARDED_BY(mu_);
};

/// The HTTP observability front end: binds net::HttpServer to the
/// process's telemetry. Endpoints:
///
///   /          tiny HTML index
///   /metrics   Prometheus text exposition (obs::PrometheusText)
///   /varz      metrics snapshot as JSON
///   /healthz   liveness + registered health checks (503 if any fails)
///   /statusz   build info, uptime, and every registered section
///              (JSON; ?format=html for the human page)
///   /tracez    flight recorder: recent + slowest completed queries
///              (obs::FlightRecorder::Global)
///
/// The server contributes its own sections: "process" (build info,
/// uptime), "exec" (pool size), and "obs" (flight recorder occupancy).
/// It runs entirely on its own small net worker pool and only ever
/// *reads* telemetry, so it is output-neutral by construction.
class DebugServer {
 public:
  struct Options {
    net::HttpServer::Options http;
  };

  DebugServer() : DebugServer(Options{}) {}
  explicit DebugServer(Options options);
  ~DebugServer();
  DebugServer(const DebugServer&) = delete;
  DebugServer& operator=(const DebugServer&) = delete;

  Status Start();
  void Stop();
  /// Bound port after Start() (ephemeral pick when options.http.port==0).
  int port() const { return http_.port(); }
  bool running() const { return http_.running(); }

 private:
  net::HttpResponse HandleIndex(const net::HttpRequest& request);
  net::HttpResponse HandleMetrics(const net::HttpRequest& request);
  net::HttpResponse HandleVarz(const net::HttpRequest& request);
  net::HttpResponse HandleHealthz(const net::HttpRequest& request);
  net::HttpResponse HandleStatusz(const net::HttpRequest& request);
  net::HttpResponse HandleTracez(const net::HttpRequest& request);

  double UptimeSeconds() const;

  Options options_;
  net::HttpServer http_;
  std::vector<int64_t> tokens_;
  std::chrono::steady_clock::time_point started_at_;
};

/// Build/version line shown in /statusz and the index page.
std::string BuildInfo();

}  // namespace obs
}  // namespace blazeit

#endif  // BLAZEIT_OBS_DEBUG_SERVER_H_
