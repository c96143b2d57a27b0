#include "transport/stream_transport.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>

namespace dsi::transport {

namespace {

/// Bytes one refill of the receive buffer asks the socket for.
constexpr size_t kRecvBytes = 64 * 1024;

/// Structural program equality: the daemon's announced timetable must be
/// exactly the local rebuild.
bool SamePrograms(const broadcast::BroadcastProgram& a,
                  const broadcast::BroadcastProgram& b) {
  if (a.packet_capacity() != b.packet_capacity() ||
      a.num_buckets() != b.num_buckets() ||
      a.coding_group() != b.coding_group() ||
      a.coding_parity() != b.coding_parity() ||
      a.num_data_buckets() != b.num_data_buckets()) {
    return false;
  }
  for (size_t s = 0; s < a.num_buckets(); ++s) {
    const broadcast::Bucket& x = a.bucket(s);
    const broadcast::Bucket& y = b.bucket(s);
    if (x.kind != y.kind || x.payload != y.payload ||
        x.size_bytes != y.size_bytes) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::unique_ptr<StreamTransport> StreamTransport::Connect(
    const std::string& endpoint_spec, const Options& options,
    std::string* error) {
  Endpoint ep;
  if (!ParseEndpoint(endpoint_spec, &ep, error)) return nullptr;
  SocketFd fd = ConnectTo(ep, options.timeout_ms, error);
  if (!fd.valid()) {
    *error = "no daemon reachable at " + endpoint_spec + " (" + *error + ")";
    return nullptr;
  }
  try {
    // Private constructor performs the handshake and throws TransportError
    // on anything the daemon got wrong.
    return std::unique_ptr<StreamTransport>(
        new StreamTransport(std::move(fd), options));
  } catch (const TransportError& e) {
    *error = e.what();
    return nullptr;
  }
}

StreamTransport::StreamTransport(SocketFd fd, const Options& options)
    : fd_(std::move(fd)), options_(options) {
  std::span<const uint8_t> payload;
  wire::FrameType type = RecvFrame(&payload);
  if (type != wire::FrameType::kHello) {
    throw TransportError("protocol error: expected hello, got frame type " +
                         std::to_string(static_cast<int>(type)));
  }
  if (!wire::DecodeHello(payload, &hello_)) {
    throw TransportError("protocol error: malformed hello");
  }
  source_ = std::make_unique<LiveSource>(hello_);
  if (!source_->airable()) {
    throw TransportError("daemon serves an empty broadcast (zero objects)");
  }

  // The full timetable follows; verify each announcement against the local
  // rebuild.
  for (size_t g = 0; g < source_->num_generations(); ++g) {
    type = RecvFrame(&payload);
    if (type != wire::FrameType::kProgram) {
      throw TransportError("protocol error: expected program announcement " +
                           std::to_string(g));
    }
    wire::ProgramMeta meta;
    std::optional<broadcast::BroadcastProgram> announced;
    if (!wire::DecodeProgramAnnouncement(payload, &meta, &announced)) {
      throw TransportError("protocol error: malformed program announcement");
    }
    const broadcast::GenerationSchedule& schedule = source_->schedule();
    if (meta.generation != g ||
        meta.start_packet != schedule.start_packet(g) ||
        meta.end_packet != schedule.end_packet(g) ||
        !SamePrograms(*announced, source_->program(g))) {
      throw TransportError(
          "daemon drift: announced program of generation " +
          std::to_string(g) + " does not match the hello-derived rebuild");
    }
  }
  cover_end_ = hello_.now_packet;
}

void StreamTransport::Fill(size_t bytes) {
  while (rx_end_ - rx_begin_ < bytes) {
    // Refill after the unparsed tail, moved to the front; a frame larger
    // than the buffer grows it.
    if (rx_begin_ > 0) {
      std::memmove(rx_.data(), rx_.data() + rx_begin_, rx_end_ - rx_begin_);
      rx_end_ -= rx_begin_;
      rx_begin_ = 0;
    }
    rx_.resize(std::max({rx_.size(), kRecvBytes, bytes}));
    const auto t0 = std::chrono::steady_clock::now();
    std::string error;
    const size_t got = RecvSome(fd_, rx_.data() + rx_end_,
                                rx_.size() - rx_end_, options_.timeout_ms,
                                &error);
    wall_.wait_nanos += static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - t0)
            .count());
    if (got == 0) {
      throw TransportError(rx_end_ > 0
                               ? "live channel: torn frame (" + error + ")"
                               : "live channel: " + error);
    }
    rx_end_ += got;
  }
}

wire::FrameType StreamTransport::RecvFrame(std::span<const uint8_t>* payload) {
  Fill(wire::kFrameHeaderBytes);
  wire::FrameHeader header;
  switch (wire::DecodeFrameHeader(rx_.data() + rx_begin_,
                                  rx_end_ - rx_begin_, &header)) {
    case wire::FrameStatus::kOk:
      break;
    case wire::FrameStatus::kBadMagic:
      throw TransportError(
          "not a DSI broadcast daemon (bad frame magic) — is something else "
          "listening on this endpoint?");
    case wire::FrameStatus::kBadVersion:
      throw TransportError(
          "daemon speaks an incompatible protocol version (expected v" +
          std::to_string(wire::kFrameVersion) + ") — upgrade one side");
    case wire::FrameStatus::kBadType:
      throw TransportError("protocol error: unknown frame type");
    case wire::FrameStatus::kOversized:
      throw TransportError("protocol error: oversized frame");
    case wire::FrameStatus::kNeedMore:
      throw TransportError("protocol error: short frame header");
  }
  const size_t frame_bytes = wire::kFrameHeaderBytes + header.payload_bytes;
  Fill(frame_bytes);
  *payload = {rx_.data() + rx_begin_ + wire::kFrameHeaderBytes,
              header.payload_bytes};
  rx_begin_ += frame_bytes;
  wall_.frames += 1;
  wall_.frame_bytes += frame_bytes;
  return header.type;
}

void StreamTransport::PullFrame() {
  if (pending_.has_value()) return;
  if (final_packet_.has_value()) {
    throw TransportError(
        "daemon shut down at packet " + std::to_string(*final_packet_) +
        " but the session still needs the channel");
  }
  std::span<const uint8_t> payload;
  const wire::FrameType type = RecvFrame(&payload);
  if (type == wire::FrameType::kShutdown) {
    uint64_t final_packet = 0;
    if (!wire::DecodeShutdown(payload, &final_packet)) {
      throw TransportError("protocol error: malformed shutdown frame");
    }
    final_packet_ = final_packet;
    return;
  }
  if (type != wire::FrameType::kBucket) {
    throw TransportError("protocol error: unexpected mid-stream frame type");
  }
  wire::BucketFields fields;
  if (!wire::ParseBucketFrame(payload, &fields, &pending_content_)) {
    throw TransportError("protocol error: malformed bucket frame");
  }
  pending_ = fields;
}

void StreamTransport::ConsumePending(bool validate) {
  const wire::BucketFields& frame = *pending_;
  const broadcast::GenerationSchedule& schedule = source_->schedule();
  // Position check: the frame must sit exactly where the timetable says the
  // channel is (contiguous with everything received so far).
  const uint64_t gen = schedule.GenerationAt(frame.start_packet);
  const broadcast::BroadcastProgram& program = schedule.program(gen);
  if (frame.phys_slot >= program.num_buckets()) {
    throw TransportError("daemon drift: bucket frame names slot " +
                         std::to_string(frame.phys_slot) +
                         " past the announced program");
  }
  const broadcast::Bucket& bucket = program.bucket(frame.phys_slot);
  const uint64_t gen_start = schedule.start_packet(gen);
  const uint64_t expected_start =
      gen_start +
      ((frame.start_packet - gen_start) / program.cycle_packets()) *
          program.cycle_packets() +
      bucket.start_packet;
  if (frame.generation != gen || frame.start_packet != expected_start ||
      (!first_frame_ && frame.start_packet != cover_end_)) {
    throw TransportError("daemon drift: bucket frame at packet " +
                         std::to_string(frame.start_packet) +
                         " is off the announced timetable");
  }
  if (frame.kind != bucket.kind || frame.payload_id != bucket.payload) {
    throw TransportError("daemon drift: bucket frame metadata mismatch");
  }
  if (validate) {
    expected_.clear();
    source_->AppendBucketContent(gen, frame.phys_slot, &expected_);
    if (!std::ranges::equal(pending_content_, expected_)) {
      throw TransportError("daemon drift: bucket content mismatch at slot " +
                           std::to_string(frame.phys_slot) +
                           " of generation " + std::to_string(gen));
    }
  }
  first_frame_ = false;
  cover_end_ = frame.start_packet + bucket.packets;
  pending_.reset();
}

void StreamTransport::Doze(uint64_t /*from*/, uint64_t to) {
  // Radio off: everything the channel airs strictly before `to` went by
  // unheard. Frames starting at/after `to` stay pending for Listen.
  for (;;) {
    if (cover_end_ >= to) return;
    PullFrame();
    if (final_packet_.has_value()) {
      // Clean daemon shutdown while dozing is fine only if the session
      // never listens again; leave the decision to the next Listen.
      return;
    }
    if (pending_->start_packet >= to) return;
    // Discarded, not validated: the receiver was not listening. Positions
    // still advance so coverage stays contiguous.
    ConsumePending(/*validate=*/false);
  }
}

void StreamTransport::Listen(uint64_t start, uint64_t packets) {
  const uint64_t until = start + packets;
  while (cover_end_ < until) {
    PullFrame();
    if (final_packet_.has_value()) {
      throw TransportError(
          "daemon shut down at packet " + std::to_string(*final_packet_) +
          " while the session was listening at packet " +
          std::to_string(start));
    }
    ConsumePending(/*validate=*/true);
  }
}

uint64_t StreamTransport::GenerationAt(uint64_t packet) const {
  return source_->schedule().GenerationAt(packet);
}
const broadcast::BroadcastProgram& StreamTransport::ProgramOf(
    uint64_t gen) const {
  return source_->schedule().program(gen);
}
uint64_t StreamTransport::StartOf(uint64_t gen) const {
  return source_->schedule().start_packet(gen);
}
uint64_t StreamTransport::EndOf(uint64_t gen) const {
  return source_->schedule().end_packet(gen);
}

}  // namespace dsi::transport
