#include "transport/socket.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace dsi::transport {

namespace {

bool ParsePort(const std::string& s, uint16_t* port) {
  if (s.empty() || s.size() > 5) return false;
  uint32_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint32_t>(c - '0');
  }
  if (v > 65535) return false;
  *port = static_cast<uint16_t>(v);
  return true;
}

bool WaitFor(int fd, short events, int timeout_ms) {
  pollfd p{};
  p.fd = fd;
  p.events = events;
  for (;;) {
    const int rc = poll(&p, 1, timeout_ms <= 0 ? -1 : timeout_ms);
    if (rc > 0) return (p.revents & (events | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

}  // namespace

bool ParseEndpoint(const std::string& spec, Endpoint* out,
                   std::string* error) {
  if (spec.rfind("unix:", 0) == 0) {
    out->kind = Endpoint::Kind::kUnix;
    out->path = spec.substr(5);
    if (out->path.empty() || out->path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      if (error != nullptr) *error = "bad unix socket path: " + spec;
      return false;
    }
    return true;
  }
  if (spec.rfind("tcp:", 0) == 0) {
    out->kind = Endpoint::Kind::kTcp;
    const std::string rest = spec.substr(4);
    const size_t colon = rest.rfind(':');
    const std::string host =
        colon == std::string::npos ? "127.0.0.1" : rest.substr(0, colon);
    const std::string port_str =
        colon == std::string::npos ? rest : rest.substr(colon + 1);
    if (!ParsePort(port_str, &out->port) || host.empty()) {
      if (error != nullptr) *error = "bad tcp endpoint: " + spec;
      return false;
    }
    out->host = host;
    return true;
  }
  if (error != nullptr) {
    *error = "endpoint must be tcp:[HOST:]PORT or unix:PATH, got: " + spec;
  }
  return false;
}

SocketFd& SocketFd::operator=(SocketFd&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void SocketFd::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

SocketFd ListenOn(Endpoint* ep, std::string* error) {
  if (ep->kind == Endpoint::Kind::kUnix) {
    // The socket file appears at bind, before listen: a client waiting for
    // the path could connect in between and be refused. Bind and listen
    // under a temporary name in the same directory, then rename it into
    // place (replacing any stale socket), so the path only ever names a
    // listening socket.
    const std::string tmp =
        ep->path + "." + std::to_string(::getpid()) + ".tmp";
    sockaddr_un addr{};
    if (tmp.size() >= sizeof(addr.sun_path)) {
      *error = "listen " + ep->path + ": path too long (" +
               std::to_string(tmp.size()) +
               " bytes with the temporary suffix, max " +
               std::to_string(sizeof(addr.sun_path) - 1) + ")";
      return {};
    }
    SocketFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!fd.valid()) {
      *error = std::string("socket: ") + std::strerror(errno);
      return {};
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, tmp.c_str(), tmp.size() + 1);
    ::unlink(tmp.c_str());
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
            0 ||
        ::listen(fd.get(), 16) != 0 ||
        ::rename(tmp.c_str(), ep->path.c_str()) != 0) {
      *error = "listen " + ep->path + ": " + std::strerror(errno);
      ::unlink(tmp.c_str());
      return {};
    }
    return fd;
  }
  SocketFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = std::string("socket: ") + std::strerror(errno);
    return {};
  }
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(ep->port);
  if (::inet_pton(AF_INET, ep->host.c_str(), &addr.sin_addr) != 1) {
    *error = "bad listen host: " + ep->host;
    return {};
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
          0 ||
      ::listen(fd.get(), 16) != 0) {
    *error = "listen tcp:" + std::to_string(ep->port) + ": " +
             std::strerror(errno);
    return {};
  }
  if (ep->port == 0) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) ==
        0) {
      ep->port = ntohs(bound.sin_port);
    }
  }
  return fd;
}

SocketFd AcceptOn(const SocketFd& listener, int timeout_ms) {
  if (!WaitFor(listener.get(), POLLIN, timeout_ms)) return {};
  const int fd = ::accept(listener.get(), nullptr, nullptr);
  if (fd < 0) return {};
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return SocketFd(fd);
}

SocketFd ConnectTo(const Endpoint& ep, int timeout_ms, std::string* error) {
  SocketFd fd(::socket(
      ep.kind == Endpoint::Kind::kUnix ? AF_UNIX : AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = std::string("socket: ") + std::strerror(errno);
    return {};
  }
  const int flags = ::fcntl(fd.get(), F_GETFL, 0);
  ::fcntl(fd.get(), F_SETFL, flags | O_NONBLOCK);

  int rc;
  if (ep.kind == Endpoint::Kind::kUnix) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, ep.path.c_str(), sizeof(addr.sun_path) - 1);
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } else {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(ep.port);
    if (::inet_pton(AF_INET, ep.host.c_str(), &addr.sin_addr) != 1) {
      *error = "bad host: " + ep.host;
      return {};
    }
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  }
  if (rc != 0 && errno == EINPROGRESS) {
    if (!WaitFor(fd.get(), POLLOUT, timeout_ms)) {
      *error = "connect timed out";
      return {};
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    ::getsockopt(fd.get(), SOL_SOCKET, SO_ERROR, &soerr, &len);
    if (soerr != 0) {
      *error = std::string("connect: ") + std::strerror(soerr);
      return {};
    }
  } else if (rc != 0) {
    *error = std::string("connect: ") + std::strerror(errno);
    return {};
  }
  ::fcntl(fd.get(), F_SETFL, flags);
  const int one = 1;
  ::setsockopt(fd.get(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(const SocketFd& fd, const uint8_t* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n =
        ::send(fd.get(), data + sent, size - sent, MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

size_t RecvSome(const SocketFd& fd, uint8_t* data, size_t capacity,
                int timeout_ms, std::string* error) {
  for (;;) {
    if (!WaitFor(fd.get(), POLLIN, timeout_ms)) {
      *error = "receive timed out";
      return 0;
    }
    const ssize_t n = ::recv(fd.get(), data, capacity, 0);
    if (n > 0) return static_cast<size_t>(n);
    if (n < 0 && errno == EINTR) continue;
    *error = n == 0 ? "connection closed"
                    : std::string("recv: ") + std::strerror(errno);
    return 0;
  }
}

}  // namespace dsi::transport
