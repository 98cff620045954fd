// The debug server in process: every endpoint fetched over a loopback
// socket, against the /statusz sections a live engine (with a store) and
// admission queue register. Outputs are JSON where the endpoint promises
// JSON, and the sections come and go with their owners.
#include "obs/debug_server.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "serve/admission_queue.h"
#include "testing/json_util.h"
#include "testing/raw_http.h"
#include "testing/test_util.h"
#include "util/string_util.h"

namespace blazeit {
namespace {

namespace fs = std::filesystem;

using testutil::JsonValidator;
using testutil::RawRequest;
using testutil::StatusLine;

/// A client name that JSON must escape: a quote and a backslash.
constexpr char kOddClient[] = "a\"b\\c";

struct Reply {
  std::string status;
  std::string head;
  std::string body;
};

Reply Get(int port, const std::string& target) {
  const std::string wire = RawRequest(
      port, "GET " + target + " HTTP/1.1\r\nHost: localhost\r\n\r\n");
  Reply reply;
  reply.status = StatusLine(wire);
  const size_t split = wire.find("\r\n\r\n");
  reply.head = wire.substr(0, split);
  if (split != std::string::npos) reply.body = wire.substr(split + 4);
  return reply;
}

std::vector<std::string> SectionNames() {
  std::vector<std::string> names;
  for (const auto& [name, json] :
       obs::StatusRegistry::Global().RenderSections()) {
    names.push_back(name);
  }
  return names;
}

bool Has(const std::vector<std::string>& names, const std::string& name) {
  return std::find(names.begin(), names.end(), name) != names.end();
}

class DebugServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = (fs::path(::testing::TempDir()) / "blazeit-debug-server").string();
    fs::remove_all(dir_);
    catalog_ = std::make_unique<VideoCatalog>();
    BLAZEIT_ASSERT_OK(catalog_->EnableDetectionStore(dir_));
    BLAZEIT_ASSERT_OK(catalog_->AddStream(TaipeiConfig(),
                                          testutil::SmallDays(300, 300, 600)));
    EngineOptions options = testutil::SmallEngineOptions();
    options.export_statusz = true;
    engine_ = std::make_unique<BlazeItEngine>(catalog_.get(), options);
    queue_ = std::make_unique<serve::AdmissionQueue>(engine_.get());
  }
  void TearDown() override {
    queue_.reset();
    engine_.reset();
    catalog_.reset();  // flushes the store before its directory goes
    fs::remove_all(dir_);
  }

  std::string dir_;
  std::unique_ptr<VideoCatalog> catalog_;
  std::unique_ptr<BlazeItEngine> engine_;
  std::unique_ptr<serve::AdmissionQueue> queue_;
};

TEST_F(DebugServerTest, EveryEndpointAnswers) {
  // One query straight through the engine (it lands in the flight
  // recorder behind /tracez) and one through the queue, from a client
  // whose name the serve section must escape.
  BLAZEIT_ASSERT_OK(
      engine_->Execute("SELECT timestamp FROM taipei WHERE class = 'bus'"));
  BLAZEIT_ASSERT_OK(queue_->Submit(
      kOddClient, "SELECT timestamp FROM taipei WHERE class = 'car'"));
  queue_->Drain();
  ASSERT_EQ(queue_->TakeCompleted().size(), 1u);

  obs::DebugServer server;
  BLAZEIT_ASSERT_OK(server.Start());
  ASSERT_TRUE(server.running());
  const int port = server.port();
  ASSERT_GT(port, 0);

  const Reply index = Get(port, "/");
  EXPECT_EQ(index.status, "HTTP/1.1 200 OK");
  EXPECT_NE(index.head.find("text/html"), std::string::npos);
  EXPECT_NE(index.body.find("/statusz"), std::string::npos);

  const Reply metrics = Get(port, "/metrics");
  EXPECT_EQ(metrics.status, "HTTP/1.1 200 OK");
  EXPECT_NE(metrics.head.find("version=0.0.4"), std::string::npos);
  EXPECT_NE(metrics.body.find("# TYPE blazeit_"), std::string::npos)
      << metrics.body.substr(0, 500);

  const Reply varz = Get(port, "/varz");
  EXPECT_EQ(varz.status, "HTTP/1.1 200 OK");
  EXPECT_TRUE(JsonValidator::Valid(varz.body)) << varz.body.substr(0, 500);

  const Reply tracez = Get(port, "/tracez");
  EXPECT_EQ(tracez.status, "HTTP/1.1 200 OK");
  EXPECT_TRUE(JsonValidator::Valid(tracez.body))
      << tracez.body.substr(0, 500);
  EXPECT_NE(tracez.body.find("class = 'bus'"), std::string::npos);

  const Reply statusz = Get(port, "/statusz");
  EXPECT_EQ(statusz.status, "HTTP/1.1 200 OK");
  ASSERT_TRUE(JsonValidator::Valid(statusz.body)) << statusz.body;
  for (const char* section :
       {"engine", "storage", "serve", "process", "exec", "obs"}) {
    EXPECT_NE(statusz.body.find(std::string("{\"section\":\"") + section +
                                "\""),
              std::string::npos)
        << section << " missing from " << statusz.body;
  }
  EXPECT_NE(statusz.body.find("\"client\":\"a\\\"b\\\\c\""),
            std::string::npos)
      << statusz.body;
  EXPECT_NE(statusz.body.find(JsonEscape(dir_)), std::string::npos)
      << statusz.body;

  const Reply statusz_html = Get(port, "/statusz?format=html");
  EXPECT_EQ(statusz_html.status, "HTTP/1.1 200 OK");
  EXPECT_NE(statusz_html.head.find("text/html"), std::string::npos);
  EXPECT_NE(statusz_html.body.find("<h2>serve</h2>"), std::string::npos);
  EXPECT_NE(statusz_html.body.find("a\\&quot;b\\\\c"), std::string::npos)
      << statusz_html.body;

  server.Stop();
  EXPECT_FALSE(server.running());
}

TEST_F(DebugServerTest, HealthzTurnsUnhealthyWithAFailingCheck) {
  obs::DebugServer server;
  BLAZEIT_ASSERT_OK(server.Start());
  const Reply healthy = Get(server.port(), "/healthz");
  EXPECT_EQ(healthy.status, "HTTP/1.1 200 OK");
  ASSERT_TRUE(JsonValidator::Valid(healthy.body)) << healthy.body;
  EXPECT_NE(healthy.body.find("\"status\":\"ok\""), std::string::npos);

  obs::StatusRegistry& registry = obs::StatusRegistry::Global();
  const int64_t token = registry.AddHealthCheck(
      "disk", []() -> Result<std::string> {
        return Status::ResourceExhausted("disk \"full\"");
      });
  const Reply unhealthy = Get(server.port(), "/healthz");
  EXPECT_EQ(unhealthy.status, "HTTP/1.1 503 Service Unavailable");
  ASSERT_TRUE(JsonValidator::Valid(unhealthy.body)) << unhealthy.body;
  EXPECT_NE(unhealthy.body.find("\"name\":\"disk\",\"ok\":false"),
            std::string::npos)
      << unhealthy.body;

  registry.Remove(token);
  EXPECT_EQ(Get(server.port(), "/healthz").status, "HTTP/1.1 200 OK");
}

TEST_F(DebugServerTest, SectionsLeaveWithTheirOwners) {
  obs::DebugServer server;
  BLAZEIT_ASSERT_OK(server.Start());
  std::vector<std::string> names = SectionNames();
  for (const char* name :
       {"engine", "storage", "serve", "process", "exec", "obs"}) {
    EXPECT_TRUE(Has(names, name)) << name;
  }

  // Stop() takes the server's own sections and leaves the others.
  server.Stop();
  names = SectionNames();
  EXPECT_FALSE(Has(names, "process"));
  EXPECT_FALSE(Has(names, "exec"));
  EXPECT_FALSE(Has(names, "obs"));
  EXPECT_TRUE(Has(names, "engine"));
  EXPECT_TRUE(Has(names, "serve"));

  queue_.reset();
  engine_.reset();
  EXPECT_TRUE(SectionNames().empty());
}

}  // namespace
}  // namespace blazeit
