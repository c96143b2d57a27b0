#pragma once

/// \file stream_transport.hpp
/// \brief The live channel substrate: a Transport whose timetable arrives
/// over a socket from tools/broadcastd and whose Doze/Listen calls consume
/// real length-framed bucket frames.
///
/// Connection sequence (see wire/framing.hpp): the daemon's kHello carries
/// the build recipe and this connection's tune-in packet; the client
/// rebuilds the identical broadcast in-process (LiveSource) and then
/// VERIFIES the daemon against it — every kProgram announcement must match
/// the locally derived timetable, and every bucket the session listens to
/// must carry exactly the locally computed encoding. A
/// daemon that drifts from its own recipe is a protocol error, not silent
/// corruption.
///
/// Sim/Stream parity: ClientSession's byte metrics are a pure function of
/// the timetable, and the timetable is a pure function of the hello — so a
/// session driven through this transport produces bit-identical results
/// and metrics to one driven through SimTransport over the same hello and
/// tune-in (the transport parity test pins this per family).
///
/// Errors are thrown as TransportError (timeouts, version mismatch, torn
/// frames, timetable drift, shutdown mid-query): a live client cannot
/// return partial byte-accounting as if the channel were healthy.

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "transport/live_source.hpp"
#include "transport/socket.hpp"
#include "transport/transport.hpp"
#include "wire/framing.hpp"

namespace dsi::transport {

/// Any live-channel failure: connect/receive timeout, protocol violation,
/// version mismatch, daemon drift, shutdown while packets were still
/// needed.
class TransportError : public std::runtime_error {
 public:
  explicit TransportError(const std::string& what)
      : std::runtime_error(what) {}
};

class StreamTransport final : public Transport {
 public:
  struct Options {
    int timeout_ms = 5000;  ///< Per connect and per receive-buffer refill.
  };

  /// Connects to \p endpoint_spec ("tcp:[HOST:]PORT" or "unix:PATH"),
  /// performs the hello handshake and rebuilds the broadcast. Returns null
  /// with \p error set when no daemon is reachable within the timeout, the
  /// daemon speaks a different protocol version, or the handshake is
  /// malformed.
  static std::unique_ptr<StreamTransport> Connect(
      const std::string& endpoint_spec, const Options& options,
      std::string* error);

  const wire::HelloPayload& hello() const { return hello_; }
  /// The absolute packet this connection tuned in at — construct the
  /// ClientSession with exactly this.
  uint64_t tune_in_packet() const { return hello_.now_packet; }
  const LiveSource& source() const { return *source_; }

  // Transport timetable view (from the locally rebuilt, daemon-verified
  // schedule).
  uint64_t GenerationAt(uint64_t packet) const override;
  const broadcast::BroadcastProgram& ProgramOf(uint64_t gen) const override;
  uint64_t StartOf(uint64_t gen) const override;
  uint64_t EndOf(uint64_t gen) const override;

  /// Discards frames the radio slept through; frames at/after \p to stay
  /// buffered for the next Listen.
  void Doze(uint64_t from, uint64_t to) override;
  /// Receives (and validates) the frames covering [start, start+packets),
  /// blocking on the daemon's real timer.
  void Listen(uint64_t start, uint64_t packets) override;
  bool shareable() const override { return false; }
  WallStats wall() const override { return wall_; }

  /// Set once the daemon announced a clean shutdown; final_packet is the
  /// cycle boundary nothing will air past.
  bool shutdown_seen() const { return final_packet_.has_value(); }
  uint64_t final_packet() const { return *final_packet_; }

 private:
  StreamTransport(SocketFd fd, const Options& options);

  /// Makes at least \p bytes unparsed bytes available in the receive
  /// buffer, with one poll + recv per refill of up to 64 KiB.
  void Fill(size_t bytes);
  /// Parses the next frame in place; \p payload stays valid until the next
  /// Fill.
  wire::FrameType RecvFrame(std::span<const uint8_t>* payload);
  /// Pulls the next bucket frame into pending_ (unless shutdown arrives).
  void PullFrame();
  /// Consumes pending_ into coverage, validating its position and — when
  /// \p validate, i.e. the session listened to it — its content.
  void ConsumePending(bool validate);

  SocketFd fd_;
  Options options_;
  wire::HelloPayload hello_;
  std::unique_ptr<LiveSource> source_;
  /// Receive buffer: [rx_begin_, rx_end_) is received but not yet parsed.
  std::vector<uint8_t> rx_;
  size_t rx_begin_ = 0;
  size_t rx_end_ = 0;
  /// One-frame lookahead: the next not-yet-consumed bucket frame, whose
  /// content views the receive buffer.
  std::optional<wire::BucketFields> pending_;
  std::span<const uint8_t> pending_content_;
  /// The local rebuild of a listened frame's content.
  std::vector<uint8_t> expected_;
  /// Everything before this absolute packet has been received (frames are
  /// contiguous; coverage starts at the first streamed bucket's start).
  uint64_t cover_end_ = 0;
  bool first_frame_ = true;
  std::optional<uint64_t> final_packet_;
  WallStats wall_;
};

}  // namespace dsi::transport
