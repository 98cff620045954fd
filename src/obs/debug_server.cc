#include "obs/debug_server.h"

#include <algorithm>

#include "exec/thread_pool.h"
#include "net/http.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/prometheus.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace blazeit {
namespace obs {

namespace {

using net::HttpRequest;
using net::HttpResponse;

const char kJsonType[] = "application/json; charset=utf-8";
const char kHtmlType[] = "text/html; charset=utf-8";
/// The Prometheus text exposition content type (format version 0.0.4).
const char kPromType[] = "text/plain; version=0.0.4; charset=utf-8";

HttpResponse JsonResponse(std::string body) {
  HttpResponse response;
  response.content_type = kJsonType;
  response.body = std::move(body);
  response.body += "\n";
  return response;
}

}  // namespace

// ---------------------------------------------------------------------------
// StatusRegistry

StatusRegistry& StatusRegistry::Global() {
  static StatusRegistry* registry = new StatusRegistry();
  return *registry;
}

int64_t StatusRegistry::AddSection(const std::string& name, SectionFn fn) {
  util::MutexLock lock(mu_);
  Entry entry;
  entry.token = next_token_++;
  entry.name = name;
  entry.section = std::move(fn);
  entries_.push_back(std::move(entry));
  return entries_.back().token;
}

int64_t StatusRegistry::AddHealthCheck(const std::string& name, HealthFn fn) {
  util::MutexLock lock(mu_);
  Entry entry;
  entry.token = next_token_++;
  entry.name = name;
  entry.health = std::move(fn);
  entries_.push_back(std::move(entry));
  return entries_.back().token;
}

void StatusRegistry::Remove(int64_t token) {
  util::MutexLock lock(mu_);
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [token](const Entry& e) {
                                  return e.token == token;
                                }),
                 entries_.end());
}

std::vector<std::pair<std::string, std::string>>
StatusRegistry::RenderSections() const {
  // Callbacks run under mu_ on purpose: Remove() then cannot return while
  // a callback still touches the owner's state (the un-registration
  // contract the providers' destructors rely on).
  std::vector<std::pair<std::string, std::string>> out;
  util::MutexLock lock(mu_);
  for (const Entry& entry : entries_) {
    if (entry.section) out.emplace_back(entry.name, entry.section());
  }
  return out;
}

std::vector<StatusRegistry::HealthResult> StatusRegistry::RunHealthChecks()
    const {
  std::vector<HealthResult> out;
  util::MutexLock lock(mu_);
  for (const Entry& entry : entries_) {
    if (!entry.health) continue;
    HealthResult result;
    result.name = entry.name;
    Result<std::string> run = entry.health();
    result.ok = run.ok();
    result.detail = run.ok() ? run.value() : run.status().ToString();
    out.push_back(std::move(result));
  }
  return out;
}

// ---------------------------------------------------------------------------
// DebugServer

std::string BuildInfo() {
  return StrFormat("blazeit debug server (C++%ld, %s)",
                   static_cast<long>(__cplusplus / 100 % 100),
#if defined(__clang__)
                   "clang " __clang_version__
#elif defined(__GNUC__)
                   "gcc " __VERSION__
#else
                   "unknown compiler"
#endif
  );  // NOLINT(whitespace/parens)
}

DebugServer::DebugServer(Options options)
    : options_(std::move(options)), http_(options_.http) {}

DebugServer::~DebugServer() { Stop(); }

Status DebugServer::Start() {
  started_at_ = std::chrono::steady_clock::now();

  http_.Handle("/", [this](const HttpRequest& r) { return HandleIndex(r); });
  http_.Handle("/metrics",
               [this](const HttpRequest& r) { return HandleMetrics(r); });
  http_.Handle("/varz",
               [this](const HttpRequest& r) { return HandleVarz(r); });
  http_.Handle("/healthz",
               [this](const HttpRequest& r) { return HandleHealthz(r); });
  http_.Handle("/statusz",
               [this](const HttpRequest& r) { return HandleStatusz(r); });
  http_.Handle("/tracez",
               [this](const HttpRequest& r) { return HandleTracez(r); });

  StatusRegistry& registry = StatusRegistry::Global();
  tokens_.push_back(registry.AddSection("process", [this] {
    return StrFormat("{\"build\":\"%s\",\"uptime_seconds\":%.1f}",
                     net::JsonEscape(BuildInfo()).c_str(), UptimeSeconds());
  }));
  tokens_.push_back(registry.AddSection("exec", [] {
    return StrFormat("{\"max_parallelism\":%d}",
                     exec::ThreadPool::Instance().max_parallelism());
  }));
  tokens_.push_back(registry.AddSection("obs", [] {
    const FlightRecorder& recorder = FlightRecorder::Global();
    return StrFormat(
        "{\"flight_recorder\":{\"total_recorded\":%lld,\"capacity\":%lld,"
        "\"slowest_k\":%lld},\"metrics_instruments\":%zu}",
        static_cast<long long>(recorder.total_recorded()),
        static_cast<long long>(recorder.options().capacity),
        static_cast<long long>(recorder.options().slowest_k),
        MetricsRegistry::Global().Snapshot().entries.size());
  }));

  Status started = http_.Start();
  if (!started.ok()) {
    Stop();
    return started;
  }
  BLAZEIT_LOG(kInfo) << "debug server listening on "
                     << options_.http.bind_address << ":" << http_.port();
  return Status::OK();
}

void DebugServer::Stop() {
  http_.Stop();
  for (int64_t token : tokens_) StatusRegistry::Global().Remove(token);
  tokens_.clear();
}

double DebugServer::UptimeSeconds() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       started_at_)
      .count();
}

HttpResponse DebugServer::HandleIndex(const HttpRequest&) {
  HttpResponse response;
  response.content_type = kHtmlType;
  response.body =
      "<!doctype html><html><head><title>blazeit</title></head><body>"
      "<h1>blazeit debug server</h1><p>" +
      net::HtmlEscape(BuildInfo()) +
      "</p><ul>"
      "<li><a href=\"/metrics\">/metrics</a> — Prometheus exposition</li>"
      "<li><a href=\"/varz\">/varz</a> — metrics snapshot (JSON)</li>"
      "<li><a href=\"/healthz\">/healthz</a> — liveness + checks</li>"
      "<li><a href=\"/statusz\">/statusz</a> — per-layer status "
      "(<a href=\"/statusz?format=html\">html</a>)</li>"
      "<li><a href=\"/tracez\">/tracez</a> — recent + slowest query "
      "traces</li>"
      "</ul></body></html>\n";
  return response;
}

HttpResponse DebugServer::HandleMetrics(const HttpRequest&) {
  HttpResponse response;
  response.content_type = kPromType;
  response.body = PrometheusText();
  return response;
}

HttpResponse DebugServer::HandleVarz(const HttpRequest&) {
  return JsonResponse(MetricsRegistry::Global().Snapshot().ToJson());
}

HttpResponse DebugServer::HandleHealthz(const HttpRequest&) {
  const std::vector<StatusRegistry::HealthResult> checks =
      StatusRegistry::Global().RunHealthChecks();
  bool healthy = true;
  std::string body = "{\"checks\":[";
  bool first = true;
  for (const StatusRegistry::HealthResult& check : checks) {
    healthy = healthy && check.ok;
    if (!first) body += ",";
    first = false;
    body += "{\"name\":\"" + net::JsonEscape(check.name) + "\",\"ok\":" +
            (check.ok ? "true" : "false") + ",\"detail\":\"" +
            net::JsonEscape(check.detail) + "\"}";
  }
  body += StrFormat("],\"uptime_seconds\":%.1f,\"status\":\"%s\"}",
                    UptimeSeconds(), healthy ? "ok" : "unhealthy");
  HttpResponse response = JsonResponse(std::move(body));
  if (!healthy) response.status = 503;
  return response;
}

HttpResponse DebugServer::HandleStatusz(const HttpRequest& request) {
  const std::vector<std::pair<std::string, std::string>> sections =
      StatusRegistry::Global().RenderSections();

  const std::string* accept = request.FindHeader("accept");
  const bool html =
      request.QueryParam("format", "") == "html" ||
      (accept != nullptr && accept->find("text/html") != std::string::npos &&
       request.query.find("format") == request.query.end());

  if (html) {
    std::string body =
        "<!doctype html><html><head><title>statusz</title></head><body>"
        "<h1>blazeit /statusz</h1><p>" +
        net::HtmlEscape(BuildInfo()) +
        StrFormat(" — up %.1fs</p>", UptimeSeconds());
    for (const auto& [name, json] : sections) {
      body += "<h2>" + net::HtmlEscape(name) + "</h2><pre>" +
              net::HtmlEscape(json) + "</pre>";
    }
    body += "</body></html>\n";
    HttpResponse response;
    response.content_type = kHtmlType;
    response.body = std::move(body);
    return response;
  }

  std::string body = StrFormat(
      "{\"build\":\"%s\",\"uptime_seconds\":%.1f,\"sections\":[",
      net::JsonEscape(BuildInfo()).c_str(), UptimeSeconds());
  bool first = true;
  for (const auto& [name, json] : sections) {
    if (!first) body += ",";
    first = false;
    body += "{\"section\":\"" + net::JsonEscape(name) + "\",\"status\":" +
            json + "}";
  }
  body += "]}";
  return JsonResponse(std::move(body));
}

HttpResponse DebugServer::HandleTracez(const HttpRequest&) {
  return JsonResponse(FlightRecorder::Global().ToJson());
}

}  // namespace obs
}  // namespace blazeit
