#pragma once

/// \file socket.hpp
/// \brief Minimal POSIX socket plumbing for the live broadcast pair:
/// endpoint parsing ("tcp:PORT", "tcp:HOST:PORT", "unix:PATH"), RAII fds,
/// listen/accept/connect, a length-exact send and a bulk recv with a
/// deadline.
/// Everything above this file speaks frames (wire/framing.hpp); everything
/// below is errno.

#include <cstdint>
#include <string>
#include <vector>

namespace dsi::transport {

/// A parsed listen/connect endpoint.
struct Endpoint {
  enum class Kind { kTcp, kUnix } kind = Kind::kTcp;
  std::string host = "127.0.0.1";  ///< TCP only; listeners bind it too.
  uint16_t port = 0;               ///< TCP only; 0 = ephemeral (listen).
  std::string path;                ///< Unix only.
};

/// Parses "tcp:PORT", "tcp:HOST:PORT" or "unix:PATH". Returns false (with
/// \p error set) on anything else.
bool ParseEndpoint(const std::string& spec, Endpoint* out, std::string* error);

/// Owning socket fd. Move-only; closes on destruction.
class SocketFd {
 public:
  SocketFd() = default;
  explicit SocketFd(int fd) : fd_(fd) {}
  SocketFd(SocketFd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  SocketFd& operator=(SocketFd&& other) noexcept;
  SocketFd(const SocketFd&) = delete;
  SocketFd& operator=(const SocketFd&) = delete;
  ~SocketFd() { Close(); }

  bool valid() const { return fd_ >= 0; }
  int get() const { return fd_; }
  void Close();

 private:
  int fd_ = -1;
};

/// Binds + listens on \p ep. For TCP with port 0 the kernel picks a port
/// and \p ep->port is updated to it. A Unix socket is bound and listening
/// under a temporary name before it is renamed onto the path (replacing any
/// stale file), so once the path exists a connect succeeds; a path too long
/// for the temporary name is an error. Invalid SocketFd (with \p error
/// set) on failure.
SocketFd ListenOn(Endpoint* ep, std::string* error);

/// Accepts one connection; blocks up to \p timeout_ms (<= 0 = forever).
/// Invalid on timeout/error/shutdown of the listener.
SocketFd AcceptOn(const SocketFd& listener, int timeout_ms);

/// Connects to \p ep with a deadline. Invalid SocketFd + \p error on
/// refusal or timeout.
SocketFd ConnectTo(const Endpoint& ep, int timeout_ms, std::string* error);

/// Sends exactly \p size bytes (retrying short writes). False on any error.
bool SendAll(const SocketFd& fd, const uint8_t* data, size_t size);

/// Waits up to \p timeout_ms for data, then receives what one recv returns,
/// at most \p capacity bytes. Returns the count; 0 on EOF, timeout or error
/// (\p error says which).
size_t RecvSome(const SocketFd& fd, uint8_t* data, size_t capacity,
                int timeout_ms, std::string* error);

}  // namespace dsi::transport
