#ifndef BLAZEIT_NET_HTTP_H_
#define BLAZEIT_NET_HTTP_H_

#include <cstddef>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "util/status.h"

namespace blazeit {
namespace net {

/// Parse-time bounds of the debug server's tiny HTTP/1.1 front end. The
/// server refuses anything past a bound with a 4xx instead of buffering
/// unboundedly, so a misbehaving scraper cannot balloon memory.
struct HttpLimits {
  /// Request line + headers, bytes (the read loop stops here).
  size_t max_head_bytes = 16 * 1024;
  /// Declared Content-Length bound; beyond it is 413.
  size_t max_body_bytes = 256 * 1024;
  /// Header count bound; beyond it is 431.
  size_t max_headers = 64;
};

/// One parsed request. Header names are lower-cased at parse time;
/// values keep their bytes (outer whitespace trimmed).
struct HttpRequest {
  std::string method;   // "GET", "HEAD", "POST" (upper-case)
  std::string target;   // raw request target, e.g. "/tracez?slowest=1"
  std::string path;     // target up to '?'
  std::string version;  // "HTTP/1.0" or "HTTP/1.1"
  std::map<std::string, std::string> query;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// First header with `name` (lower-case), or nullptr.
  const std::string* FindHeader(const std::string& name) const;
  /// Query parameter or `fallback`.
  const std::string& QueryParam(const std::string& name,
                                const std::string& fallback) const;
};

/// One response. The serializer adds Content-Length and
/// `Connection: close` (the debug server is deliberately one
/// request per connection).
struct HttpResponse {
  int status = 200;
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  std::vector<std::pair<std::string, std::string>> extra_headers;
};

/// Parses everything up to (not including) the blank line: the request
/// line plus headers. `head` must not contain the body. Returns
/// InvalidArgument on malformed syntax and ResourceExhausted when
/// `limits.max_headers` is exceeded; the body (if any) is read by the
/// caller using the returned Content-Length header.
Result<HttpRequest> ParseRequestHead(const std::string& head,
                                     const HttpLimits& limits);

/// Renders status line + headers + body, HTTP/1.1, Connection: close.
std::string SerializeResponse(const HttpResponse& response);

/// Canonical reason phrase ("OK", "Not Found", ...); "Unknown" otherwise.
const char* StatusReason(int code);

/// Percent-decodes a query component ('+' becomes space; bad escapes pass
/// through verbatim rather than failing the request).
std::string UrlDecode(const std::string& s);

/// Minimal escaping for embedding text in the debug pages.
std::string HtmlEscape(const std::string& s);

}  // namespace net
}  // namespace blazeit

#endif  // BLAZEIT_NET_HTTP_H_
