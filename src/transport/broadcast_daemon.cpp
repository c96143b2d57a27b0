#include "transport/broadcast_daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <vector>

namespace dsi::transport {

namespace {

/// A connection's frames go to the socket in sends of about this size.
constexpr size_t kBatchBytes = 64 * 1024;

}  // namespace

BroadcastDaemon::BroadcastDaemon(const wire::HelloPayload& recipe,
                                 double packets_per_second)
    : source_(recipe), pps_(packets_per_second) {}

BroadcastDaemon::~BroadcastDaemon() { Stop(); }

bool BroadcastDaemon::Listen(const std::string& endpoint_spec,
                             std::string* error) {
  if (!source_.airable()) {
    if (error != nullptr) {
      *error = "refusing to serve an empty broadcast (zero-cycle program)";
    }
    return false;
  }
  if (!ParseEndpoint(endpoint_spec, &endpoint_, error)) return false;
  listener_ = ListenOn(&endpoint_, error);
  return listener_.valid();
}

void BroadcastDaemon::Start() {
  epoch_ = std::chrono::steady_clock::now();
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void BroadcastDaemon::Stop() {
  // Serialized: a concurrent later caller blocks here until the first has
  // joined every thread, then finds the flag set and returns — two callers
  // never join the same thread.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  if (stopping_.exchange(true)) return;
  if (accept_thread_.joinable()) accept_thread_.join();
  std::list<Connection> conns;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    conns.swap(conns_);
  }
  for (Connection& c : conns) c.thread.join();
  listener_.Close();
  if (endpoint_.kind == Endpoint::Kind::kUnix && !endpoint_.path.empty()) {
    ::unlink(endpoint_.path.c_str());
  }
}

void BroadcastDaemon::AdvanceAirTo(uint64_t packet) {
  uint64_t cur = air_pos_.load();
  while (packet > cur && !air_pos_.compare_exchange_weak(cur, packet)) {
  }
}

bool BroadcastDaemon::Aired(uint64_t packet) const {
  return pps_ <= 0 || AirPosition() >= packet;
}

uint64_t BroadcastDaemon::AirPosition() const {
  if (pps_ > 0) {
    const auto elapsed = std::chrono::steady_clock::now() - epoch_;
    const double secs =
        std::chrono::duration_cast<std::chrono::duration<double>>(elapsed)
            .count();
    return static_cast<uint64_t>(secs * pps_);
  }
  return air_pos_.load();
}

void BroadcastDaemon::PaceTo(uint64_t packet) {
  const auto target =
      epoch_ + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(packet) / pps_));
  std::this_thread::sleep_until(target);
}

size_t BroadcastDaemon::connection_threads() const {
  std::lock_guard<std::mutex> lock(conn_mu_);
  return conns_.size();
}

void BroadcastDaemon::ReapFinished() {
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done.load()) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
}

void BroadcastDaemon::AcceptLoop() {
  while (!stopping_.load()) {
    // The accept poll bounds how long a finished connection stays unjoined.
    SocketFd conn = AcceptOn(listener_, /*timeout_ms=*/100);
    std::lock_guard<std::mutex> lock(conn_mu_);
    ReapFinished();
    if (!conn.valid()) continue;
    Connection& c = conns_.emplace_back();
    c.thread = std::thread([this, &c, fd = std::move(conn)]() mutable {
      ServeConnection(std::move(fd));
      c.done.store(true);
    });
  }
}

void BroadcastDaemon::ServeConnection(SocketFd fd) {
  const broadcast::GenerationSchedule& schedule = source_.schedule();
  const uint64_t tune_in = std::max(AirPosition(), air_pos_.load());

  // Every frame is written in place into one batch, which goes to the
  // socket in one send. pos is the end of the last frame in the batch.
  std::vector<uint8_t> batch;
  batch.reserve(2 * kBatchBytes);
  uint64_t pos = tune_in;
  auto flush = [&] {
    if (!SendAll(fd, batch.data(), batch.size())) return false;
    batch.clear();
    AdvanceAirTo(pos);
    return true;
  };

  // Hello + the complete timetable up front: the client owns every
  // generation's program before the first bucket arrives.
  wire::HelloPayload hello = source_.hello();
  hello.now_packet = tune_in;
  wire::AppendFrame(wire::FrameType::kHello, wire::EncodeHello(hello), &batch);
  for (size_t g = 0; g < source_.num_generations(); ++g) {
    wire::ProgramMeta meta;
    meta.generation = g;
    meta.start_packet = schedule.start_packet(g);
    meta.end_packet = schedule.end_packet(g);
    wire::AppendFrame(wire::FrameType::kProgram,
                      wire::EncodeProgramAnnouncement(meta, source_.program(g)),
                      &batch);
  }

  // Stream buckets from the one covering the tune-in packet, forever (or
  // until a clean stop finishes the current cycle). Each frame is a pure
  // function of its absolute packet position.
  for (;;) {
    const uint64_t gen = schedule.GenerationAt(pos);
    const broadcast::BroadcastProgram& program = schedule.program(gen);
    const uint64_t gen_start = schedule.start_packet(gen);
    const uint64_t gen_end = schedule.end_packet(gen);
    const uint64_t cycle = program.cycle_packets();
    const uint64_t cycle_base =
        gen_start + ((pos - gen_start) / cycle) * cycle;
    const size_t slot = program.SlotAtPacket((pos - gen_start) % cycle);
    const broadcast::Bucket& bucket = program.bucket(slot);
    const uint64_t frame_start = cycle_base + bucket.start_packet;

    // Paced: the frame is not due yet. Hand over what is, then sleep.
    if (!Aired(frame_start)) {
      if (!flush()) return;  // client went away
      PaceTo(frame_start);
    }
    wire::BucketFields fields;
    fields.generation = gen;
    fields.phys_slot = slot;
    fields.start_packet = frame_start;
    fields.kind = bucket.kind;
    fields.payload_id = bucket.payload;
    wire::AppendBucketFrameHead(fields, bucket.size_bytes, &batch);
    source_.AppendBucketContent(gen, slot, &batch);

    pos = frame_start + bucket.packets;
    if (pos >= gen_end) pos = gen_end;  // switch instant: next generation

    // Clean shutdown at the next cycle boundary of the live generation.
    if (stopping_.load() && (pos - gen_start) % cycle == 0) {
      wire::AppendFrame(wire::FrameType::kShutdown, wire::EncodeShutdown(pos),
                        &batch);
      flush();
      return;
    }
    if (batch.size() >= kBatchBytes && !flush()) return;
  }
}

}  // namespace dsi::transport
