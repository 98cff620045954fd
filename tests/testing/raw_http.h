#ifndef BLAZEIT_TESTS_TESTING_RAW_HTTP_H_
#define BLAZEIT_TESTS_TESTING_RAW_HTTP_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <cstring>
#include <string>

namespace blazeit {
namespace testutil {

/// Sends `request` bytes to 127.0.0.1:`port` and returns everything the
/// server wrote before closing ("" if the connection failed). A raw
/// loopback client, so tests drive the server's whole accept -> parse ->
/// dispatch -> serialize path.
inline std::string RawRequest(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return "";
  sockaddr_in addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return "";
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string out;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return out;
}

/// The status line of a raw response ("HTTP/1.1 200 OK").
inline std::string StatusLine(const std::string& wire) {
  return wire.substr(0, wire.find("\r\n"));
}

}  // namespace testutil
}  // namespace blazeit

#endif  // BLAZEIT_TESTS_TESTING_RAW_HTTP_H_
