// Tests for the dependency-free HTTP front end behind the debug server:
// the request-head parser (syntax, limits, query decoding) and the
// blocking socket server (routing, error statuses, bounded inputs,
// concurrent scrapes), exercised through a raw loopback socket client so
// the full accept -> parse -> dispatch -> serialize path runs.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "net/http.h"
#include "net/http_server.h"
#include "testing/raw_http.h"
#include "util/string_util.h"

namespace blazeit {
namespace net {
namespace {

// ---------------------------------------------------------------------------
// Parser

TEST(HttpParseTest, ParsesRequestLineHeadersAndQuery) {
  HttpLimits limits;
  auto parsed = ParseRequestHead(
      "GET /statusz?format=html&name=a%20b+c&flag HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "Accept:  text/html \r\n",
      limits);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const HttpRequest& req = parsed.value();
  EXPECT_EQ(req.method, "GET");
  EXPECT_EQ(req.path, "/statusz");
  EXPECT_EQ(req.target, "/statusz?format=html&name=a%20b+c&flag");
  EXPECT_EQ(req.version, "HTTP/1.1");
  EXPECT_EQ(req.QueryParam("format", ""), "html");
  // Percent and '+' decoding both land in the query map.
  EXPECT_EQ(req.QueryParam("name", ""), "a b c");
  // Bare flag parameter exists with an empty value.
  EXPECT_EQ(req.query.count("flag"), 1u);
  EXPECT_EQ(req.QueryParam("missing", "fallback"), "fallback");
  // Header names are lower-cased, values trimmed.
  ASSERT_NE(req.FindHeader("accept"), nullptr);
  EXPECT_EQ(*req.FindHeader("accept"), "text/html");
  EXPECT_EQ(req.FindHeader("x-absent"), nullptr);
}

TEST(HttpParseTest, RejectsMalformedRequestLines) {
  HttpLimits limits;
  EXPECT_FALSE(ParseRequestHead("", limits).ok());
  EXPECT_FALSE(ParseRequestHead("GET/HTTP/1.1\r\n", limits).ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/1.1 extra\r\n", limits).ok());
  EXPECT_FALSE(ParseRequestHead("GET /x HTTP/2.0\r\n", limits).ok());
  // Target must be origin-form.
  EXPECT_FALSE(
      ParseRequestHead("GET http://x/ HTTP/1.1\r\n", limits).ok());
  // Method must be token characters.
  EXPECT_FALSE(ParseRequestHead("G@T /x HTTP/1.1\r\n", limits).ok());
}

TEST(HttpParseTest, RejectsMalformedHeaders) {
  HttpLimits limits;
  auto no_colon =
      ParseRequestHead("GET / HTTP/1.1\r\nnot a header\r\n", limits);
  ASSERT_FALSE(no_colon.ok());
  EXPECT_EQ(no_colon.status().code(), StatusCode::kInvalidArgument);
  auto bad_name =
      ParseRequestHead("GET / HTTP/1.1\r\nbad name: v\r\n", limits);
  EXPECT_FALSE(bad_name.ok());
}

TEST(HttpParseTest, EnforcesHeaderCountLimit) {
  HttpLimits limits;
  limits.max_headers = 2;
  auto parsed = ParseRequestHead(
      "GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\nC: 3\r\n", limits);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().code(), StatusCode::kResourceExhausted);
}

TEST(HttpParseTest, ToleratesBareLfLineEndings) {
  HttpLimits limits;
  auto parsed = ParseRequestHead("GET /healthz HTTP/1.0\nHost: x\n", limits);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().path, "/healthz");
  EXPECT_EQ(parsed.value().version, "HTTP/1.0");
}

TEST(HttpSerializeTest, AddsContentLengthAndConnectionClose) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "missing";
  resp.extra_headers.emplace_back("X-Debug", "1");
  const std::string wire = SerializeResponse(resp);
  EXPECT_EQ(wire.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u) << wire;
  EXPECT_NE(wire.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_NE(wire.find("Connection: close\r\n"), std::string::npos);
  EXPECT_NE(wire.find("X-Debug: 1\r\n"), std::string::npos);
  EXPECT_EQ(wire.substr(wire.size() - 7), "missing");
}

TEST(HttpEscapeTest, EscapersCoverControlAndMarkupCharacters) {
  EXPECT_EQ(UrlDecode("a%2Fb+c%zz"), "a/b c%zz");  // bad escape passes through
  EXPECT_EQ(HtmlEscape("<a href=\"x\">&"), "&lt;a href=&quot;x&quot;&gt;&amp;");
  EXPECT_EQ(JsonEscape("a\"b\\c\nd\x01\r\t"),
            "a\\\"b\\\\c\\nd\\u0001\\r\\t");
}

// ---------------------------------------------------------------------------
// Server, through a raw loopback client

using testutil::RawRequest;
using testutil::StatusLine;

class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(HttpServer::Options options = HttpServer::Options()) {
    server_ = std::make_unique<HttpServer>(options);
    server_->Handle("/ping", [](const HttpRequest&) {
      HttpResponse resp;
      resp.body = "pong";
      return resp;
    });
    server_->Handle("/echo", [](const HttpRequest& req) {
      HttpResponse resp;
      resp.body = req.method + " " + req.QueryParam("q", "-");
      return resp;
    });
    server_->Handle("/throw", [](const HttpRequest&) -> HttpResponse {
      throw std::runtime_error("handler exploded");
    });
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_GT(server_->port(), 0);
  }

  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesRegisteredPath) {
  StartServer();
  const std::string wire =
      RawRequest(server_->port(), "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 200 OK");
  EXPECT_EQ(wire.substr(wire.size() - 4), "pong");
}

TEST_F(HttpServerTest, QueryStringReachesHandlerButNotRouting) {
  StartServer();
  const std::string wire = RawRequest(
      server_->port(), "GET /echo?q=hi HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 200 OK");
  EXPECT_NE(wire.find("GET hi"), std::string::npos) << wire;
}

TEST_F(HttpServerTest, UnknownPathIs404) {
  StartServer();
  const std::string wire =
      RawRequest(server_->port(), "GET /nope HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 404 Not Found");
}

TEST_F(HttpServerTest, MalformedRequestIs400) {
  StartServer();
  const std::string wire = RawRequest(server_->port(), "BOGUS\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 400 Bad Request");
}

TEST_F(HttpServerTest, NonGetMethodIs405) {
  StartServer();
  const std::string wire = RawRequest(
      server_->port(),
      "PUT /ping HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 405 Method Not Allowed");
}

TEST_F(HttpServerTest, HeadGetsHeadersWithoutBody) {
  StartServer();
  const std::string wire =
      RawRequest(server_->port(), "HEAD /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 200 OK");
  // Content-Length reflects the suppressed body.
  EXPECT_NE(wire.find("Content-Length: 4\r\n"), std::string::npos) << wire;
  EXPECT_EQ(wire.find("pong"), std::string::npos) << wire;
}

TEST_F(HttpServerTest, OversizedHeadIs431) {
  HttpServer::Options options;
  options.limits.max_head_bytes = 256;
  StartServer(options);
  // No terminating blank line: the server must bail on the size bound
  // rather than buffer an unbounded head waiting for one.
  const std::string wire = RawRequest(
      server_->port(),
      "GET /ping HTTP/1.1\r\nX-Pad: " + std::string(512, 'a') + "\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 431 Request Header Fields Too Large");
}

TEST_F(HttpServerTest, TooManyHeadersIs431) {
  HttpServer::Options options;
  options.limits.max_headers = 4;
  StartServer(options);
  std::string request = "GET /ping HTTP/1.1\r\n";
  for (int i = 0; i < 8; ++i) {
    request += "X-H" + std::to_string(i) + ": v\r\n";
  }
  request += "\r\n";
  const std::string wire = RawRequest(server_->port(), request);
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 431 Request Header Fields Too Large");
}

TEST_F(HttpServerTest, OversizedDeclaredBodyIs413) {
  HttpServer::Options options;
  options.limits.max_body_bytes = 64;
  StartServer(options);
  const std::string wire = RawRequest(
      server_->port(),
      "GET /ping HTTP/1.1\r\nHost: x\r\nContent-Length: 4096\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 413 Payload Too Large");
}

TEST_F(HttpServerTest, ThrowingHandlerIs500NotACrash) {
  StartServer();
  const std::string wire =
      RawRequest(server_->port(), "GET /throw HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(wire), "HTTP/1.1 500 Internal Server Error");
  // Server survives the throw and keeps serving.
  const std::string again =
      RawRequest(server_->port(), "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
  EXPECT_EQ(StatusLine(again), "HTTP/1.1 200 OK");
}

TEST_F(HttpServerTest, ConcurrentRequestsAllSucceed) {
  StartServer();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 4;
  std::vector<int> ok_counts(kThreads, 0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([this, t, &ok_counts] {
      for (int i = 0; i < kPerThread; ++i) {
        const std::string wire = RawRequest(
            server_->port(), "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n");
        if (StatusLine(wire) == "HTTP/1.1 200 OK") ++ok_counts[t];
      }
    });
  }
  for (auto& th : threads) th.join();
  int total = 0;
  for (int c : ok_counts) total += c;
  // The pending queue is bounded, so a burst larger than the bound could
  // legally shed with 503 — but 8 clients against the default bound of 16
  // must all land.
  EXPECT_EQ(total, kThreads * kPerThread);
}

TEST_F(HttpServerTest, StopIsIdempotentAndRefusesNewConnections) {
  StartServer();
  const int port = server_->port();
  server_->Stop();
  server_->Stop();
  EXPECT_FALSE(server_->running());
  EXPECT_EQ(RawRequest(port, "GET /ping HTTP/1.1\r\nHost: x\r\n\r\n"), "");
}

}  // namespace
}  // namespace net
}  // namespace blazeit
