#pragma once

/// \file transport.hpp
/// \brief The channel substrate behind broadcast::ClientSession: where
/// packets come from and what "time passes" means.
///
/// The session owns every piece of PROTOCOL logic — doze accounting, loss
/// coins, erasure repair, generation re-synchronization — but it obtains
/// the broadcast timetable and advances time only through a Transport:
///
///  * SimTransport (this file): the in-process simulator path. The
///    timetable is the caller's BroadcastProgram / GenerationSchedule and
///    time is nothing but the session's packet counter — Doze/Listen are
///    pure accounting, so a simulated sweep over millions of clients costs
///    no wall-clock beyond the arithmetic. This is byte-identical to the
///    pre-refactor session: every θ=0 golden and conformance seed pins it.
///
///  * StreamTransport (stream_transport.hpp): a live byte stream. The
///    timetable is learned from wire announcements, Doze/Listen block
///    until the daemon's real timer has actually aired the packets, and
///    the received length-framed buckets are validated against the
///    announced program. The identical protocol code runs over both.
///
/// Sim time vs wall time: all Transport methods speak SIM time (the global
/// packet counter — the paper's byte metrics derive from it alone). Wall
/// time is a per-transport side channel reported via wall(); the simulator
/// reports zeros.

#include <cstdint>

#include "broadcast/generation.hpp"
#include "broadcast/program.hpp"

namespace dsi::transport {

/// Wall-clock accounting of one transport, reported next to the paper's
/// byte metrics. All zero on SimTransport.
struct WallStats {
  /// Wall time blocked refilling the receive buffer (poll + recv); frame
  /// parsing and content validation are not counted.
  uint64_t wait_nanos = 0;
  uint64_t frames = 0;       ///< Bucket frames received off the wire.
  uint64_t frame_bytes = 0;  ///< Total frame payload bytes received.
};

/// Abstract channel substrate. The generation/timetable view is expressed
/// in absolute packet time exactly like broadcast::GenerationSchedule:
/// generation g airs ProgramOf(g) over [StartOf(g), EndOf(g)), the last
/// generation airs forever (EndOf == UINT64_MAX), and a static broadcast
/// is the single generation 0.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Generation live at the given absolute packet (the switch instant
  /// belongs to the incoming generation).
  virtual uint64_t GenerationAt(uint64_t packet) const = 0;
  /// The finalized on-air program of generation \p gen. The reference is
  /// stable for the transport's lifetime.
  virtual const broadcast::BroadcastProgram& ProgramOf(uint64_t gen) const = 0;
  /// Absolute packet at which generation \p gen starts airing.
  virtual uint64_t StartOf(uint64_t gen) const = 0;
  /// Absolute end (exclusive); UINT64_MAX for the last generation.
  virtual uint64_t EndOf(uint64_t gen) const = 0;

  /// Radio off over [from, to): sim time passes, nothing is received. A
  /// live transport blocks until the channel has aired packet to - 1 (and
  /// discards the frames that went by — the receiver was not listening).
  virtual void Doze(uint64_t from, uint64_t to) = 0;
  /// Radio on over [start, start + packets): a live transport receives (and
  /// validates) the frames covering the span. The session charges tuning
  /// bytes itself; the transport only moves data and wall time.
  virtual void Listen(uint64_t start, uint64_t packets) = 0;

  /// Whether several sessions may drive this transport concurrently.
  /// True only for stateless views (SimTransport): a live stream has one
  /// read position, so warm/cold session forking requires a shareable
  /// transport (ClientSession::ForkColdSession asserts it).
  virtual bool shareable() const { return false; }

  /// Wall-clock side channel (zeros for the simulator).
  virtual WallStats wall() const { return {}; }
};

/// The simulator substrate: a zero-cost view over an in-process
/// BroadcastProgram or GenerationSchedule. Trivially copyable and
/// stateless, so any number of sessions/threads can share one instance.
class SimTransport final : public Transport {
 public:
  /// Unset view; using it before Reset is undefined (internal default for
  /// ClientSession's embedded member).
  SimTransport() = default;
  explicit SimTransport(const broadcast::BroadcastProgram& program)
      : program_(&program) {}
  explicit SimTransport(const broadcast::GenerationSchedule& schedule)
      : schedule_(&schedule) {}

  uint64_t GenerationAt(uint64_t packet) const override {
    return schedule_ != nullptr ? schedule_->GenerationAt(packet) : 0;
  }
  const broadcast::BroadcastProgram& ProgramOf(uint64_t gen) const override {
    return schedule_ != nullptr ? schedule_->program(gen) : *program_;
  }
  uint64_t StartOf(uint64_t gen) const override {
    return schedule_ != nullptr ? schedule_->start_packet(gen) : 0;
  }
  uint64_t EndOf(uint64_t gen) const override {
    return schedule_ != nullptr ? schedule_->end_packet(gen) : UINT64_MAX;
  }

  void Doze(uint64_t /*from*/, uint64_t /*to*/) override {}
  void Listen(uint64_t /*start*/, uint64_t /*packets*/) override {}
  bool shareable() const override { return true; }

  /// The wrapped schedule (null for single-program views); lets
  /// ClientSession::ForkColdSession rebuild an equivalent owned view.
  const broadcast::GenerationSchedule* schedule() const { return schedule_; }
  /// The wrapped single program (null for schedule views).
  const broadcast::BroadcastProgram* single_program() const {
    return program_;
  }

 private:
  const broadcast::BroadcastProgram* program_ = nullptr;
  const broadcast::GenerationSchedule* schedule_ = nullptr;
};

}  // namespace dsi::transport
