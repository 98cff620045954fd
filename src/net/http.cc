#include "net/http.h"

#include <cctype>

#include "util/string_util.h"

namespace blazeit {
namespace net {

namespace {

const std::string kEmpty;

bool IsTokenChar(char c) {
  // RFC 7230 tchar, the characters legal in methods and header names.
  if (std::isalnum(static_cast<unsigned char>(c)) != 0) return true;
  switch (c) {
    case '!': case '#': case '$': case '%': case '&': case '\'': case '*':
    case '+': case '-': case '.': case '^': case '_': case '`': case '|':
    case '~':
      return true;
    default:
      return false;
  }
}

int HexVal(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

void ParseQueryString(const std::string& raw,
                      std::map<std::string, std::string>* out) {
  size_t start = 0;
  while (start <= raw.size()) {
    size_t amp = raw.find('&', start);
    if (amp == std::string::npos) amp = raw.size();
    const std::string pair = raw.substr(start, amp - start);
    if (!pair.empty()) {
      const size_t eq = pair.find('=');
      if (eq == std::string::npos) {
        (*out)[UrlDecode(pair)];  // bare flag, empty value
      } else {
        (*out)[UrlDecode(pair.substr(0, eq))] = UrlDecode(pair.substr(eq + 1));
      }
    }
    start = amp + 1;
  }
}

}  // namespace

const std::string* HttpRequest::FindHeader(const std::string& name) const {
  for (const auto& [key, value] : headers) {
    if (key == name) return &value;
  }
  return nullptr;
}

const std::string& HttpRequest::QueryParam(const std::string& name,
                                           const std::string& fallback) const {
  auto it = query.find(name);
  return it == query.end() ? fallback : it->second;
}

Result<HttpRequest> ParseRequestHead(const std::string& head,
                                     const HttpLimits& limits) {
  HttpRequest request;

  // Lines split on CRLF; a bare LF is tolerated (curl never sends one,
  // but hand-typed netcat probes do).
  std::vector<std::string> lines;
  size_t pos = 0;
  while (pos < head.size()) {
    size_t nl = head.find('\n', pos);
    if (nl == std::string::npos) {
      lines.push_back(head.substr(pos));
      break;
    }
    size_t end = nl;
    if (end > pos && head[end - 1] == '\r') --end;
    lines.push_back(head.substr(pos, end - pos));
    pos = nl + 1;
  }
  while (!lines.empty() && lines.back().empty()) lines.pop_back();
  if (lines.empty()) return Status::InvalidArgument("empty request");

  // Request line: METHOD SP target SP HTTP/x.y
  const std::string& line = lines[0];
  const size_t sp1 = line.find(' ');
  const size_t sp2 = sp1 == std::string::npos ? std::string::npos
                                              : line.find(' ', sp1 + 1);
  if (sp1 == std::string::npos || sp2 == std::string::npos ||
      line.find(' ', sp2 + 1) != std::string::npos) {
    return Status::InvalidArgument("malformed request line: '" + line + "'");
  }
  request.method = ToUpper(line.substr(0, sp1));
  request.target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  request.version = line.substr(sp2 + 1);
  if (request.method.empty() || request.target.empty()) {
    return Status::InvalidArgument("malformed request line: '" + line + "'");
  }
  for (char c : request.method) {
    if (!IsTokenChar(c)) {
      return Status::InvalidArgument("malformed method: '" + request.method +
                                     "'");
    }
  }
  if (request.version != "HTTP/1.1" && request.version != "HTTP/1.0") {
    return Status::InvalidArgument("unsupported protocol: '" +
                                   request.version + "'");
  }
  if (request.target[0] != '/') {
    return Status::InvalidArgument("request target must be origin-form: '" +
                                   request.target + "'");
  }

  const size_t qmark = request.target.find('?');
  if (qmark == std::string::npos) {
    request.path = request.target;
  } else {
    request.path = request.target.substr(0, qmark);
    ParseQueryString(request.target.substr(qmark + 1), &request.query);
  }

  // Header fields: name ":" OWS value OWS.
  for (size_t i = 1; i < lines.size(); ++i) {
    if (lines[i].empty()) break;  // blank line = end of head
    if (request.headers.size() >= limits.max_headers) {
      return Status::ResourceExhausted(
          "too many headers (limit " + std::to_string(limits.max_headers) +
          ")");
    }
    const size_t colon = lines[i].find(':');
    if (colon == std::string::npos || colon == 0) {
      return Status::InvalidArgument("malformed header: '" + lines[i] + "'");
    }
    std::string name = lines[i].substr(0, colon);
    for (char c : name) {
      if (!IsTokenChar(c)) {
        return Status::InvalidArgument("malformed header name: '" + name +
                                       "'");
      }
    }
    request.headers.emplace_back(ToLower(name),
                                 Trim(lines[i].substr(colon + 1)));
  }
  return request;
}

std::string SerializeResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " " +
                    StatusReason(response.status) + "\r\n";
  out += "Content-Type: " + response.content_type + "\r\n";
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  for (const auto& [name, value] : response.extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "Connection: close\r\n\r\n";
  out += response.body;
  return out;
}

const char* StatusReason(int code) {
  switch (code) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 413: return "Payload Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 503: return "Service Unavailable";
    default:  return "Unknown";
  }
}

std::string UrlDecode(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (size_t i = 0; i < s.size(); ++i) {
    if (s[i] == '+') {
      out.push_back(' ');
    } else if (s[i] == '%' && i + 2 < s.size() && HexVal(s[i + 1]) >= 0 &&
               HexVal(s[i + 2]) >= 0) {
      out.push_back(static_cast<char>(HexVal(s[i + 1]) * 16 +
                                      HexVal(s[i + 2])));
      i += 2;
    } else {
      out.push_back(s[i]);
    }
  }
  return out;
}

std::string HtmlEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      default: out.push_back(c);
    }
  }
  return out;
}

}  // namespace net
}  // namespace blazeit
