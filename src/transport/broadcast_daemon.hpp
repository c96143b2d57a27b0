#pragma once

/// \file broadcast_daemon.hpp
/// \brief The live broadcast server: airs a LiveSource over stream sockets.
///
/// One daemon owns one broadcast (one hello recipe). Every accepted
/// connection gets its own streaming thread that speaks the wire framing:
///
///   kHello (recipe + this connection's tune-in packet)
///   kProgram x num_generations (the full timetable up front)
///   kBucket ... (in on-air order from the tune-in instant, honoring
///                generation spans and coded-parity interleaves)
///   kShutdown (only on a clean Stop, at a cycle boundary)
///
/// Time: at packets_per_second > 0 the daemon paces bucket frames against a
/// real monotonic timer (a bucket of k packets occupies k/pps seconds of
/// wall time), and a connection's tune-in packet is the clock's current
/// position — tuning in mid-cycle is the normal case, exactly like a real
/// receiver. At pps = 0 the channel is unthrottled (tests): frames go out
/// as fast as the socket drains. Either way a connection writes each due
/// frame in place into one send batch and flushes the batch with one send
/// when it reaches 64 KiB, before the pacer sleeps for a frame that is not
/// due yet, and before the shutdown return — so a paced frame never leaves
/// before its air time, and both modes share one code path. The air
/// position handed to the next connection is the furthest packet flushed
/// to a socket.
///
/// Shutdown: Stop() (or SIGINT/SIGTERM in tools/broadcastd) stops
/// accepting, lets every connection finish its CURRENT cycle, then sends
/// kShutdown stamped with the boundary packet and closes. Clients see a
/// complete final cycle, never a torn bucket.
///
/// The daemon is a library class (this file) so the loopback parity test
/// can run server and client in one process; tools/broadcastd is the thin
/// CLI over it.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "transport/live_source.hpp"
#include "transport/socket.hpp"
#include "wire/framing.hpp"

namespace dsi::transport {

class BroadcastDaemon {
 public:
  /// Builds the broadcast from \p recipe (now_packet ignored).
  /// \p packets_per_second = 0 streams unthrottled.
  BroadcastDaemon(const wire::HelloPayload& recipe, double packets_per_second);
  ~BroadcastDaemon();

  BroadcastDaemon(const BroadcastDaemon&) = delete;
  BroadcastDaemon& operator=(const BroadcastDaemon&) = delete;

  /// Binds \p endpoint_spec ("tcp:[HOST:]PORT" or "unix:PATH"; tcp port 0
  /// picks an ephemeral port, readable via endpoint().port). False + error
  /// when the endpoint is bad, the bind fails, or the broadcast is empty
  /// (zero objects -> zero-cycle program: nothing to air).
  bool Listen(const std::string& endpoint_spec, std::string* error);

  /// Starts the accept loop on a background thread. Listen() must have
  /// succeeded.
  void Start();

  /// Clean final-cycle shutdown: stop accepting, finish every connection's
  /// current cycle, send kShutdown, join all threads. Idempotent and safe
  /// to call from several threads at once: later callers wait for the
  /// first to finish, then return.
  void Stop();

  const Endpoint& endpoint() const { return endpoint_; }
  const LiveSource& source() const { return source_; }

  /// Test hook: fast-forwards the air position (the tune-in packet handed
  /// to the NEXT connection) to \p packet if it is ahead. Lets tests place
  /// joins mid-cycle or across a generation switch deterministically.
  void AdvanceAirTo(uint64_t packet);

  /// Test hook: connection threads not yet reaped. A finished connection's
  /// thread is joined by the accept loop within one poll interval.
  size_t connection_threads() const;

 private:
  /// One served connection; done is set as its thread's last act.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  /// Joins and drops finished connections. Caller holds conn_mu_.
  void ReapFinished();
  void AcceptLoop();
  void ServeConnection(SocketFd fd);
  /// Current air position in packets (clock-derived when paced).
  uint64_t AirPosition() const;
  /// True once \p packet is due: always when unthrottled, else when the
  /// channel clock has reached it.
  bool Aired(uint64_t packet) const;
  /// Blocks until the channel clock reaches \p packet (paced mode only).
  void PaceTo(uint64_t packet);

  LiveSource source_;
  double pps_;
  Endpoint endpoint_;
  SocketFd listener_;
  std::mutex stop_mu_;  ///< Serializes Stop(); guards the shutdown joins.
  std::atomic<bool> stopping_{false};
  std::atomic<uint64_t> air_pos_{0};
  std::chrono::steady_clock::time_point epoch_;
  std::thread accept_thread_;
  mutable std::mutex conn_mu_;
  std::list<Connection> conns_;
};

}  // namespace dsi::transport
