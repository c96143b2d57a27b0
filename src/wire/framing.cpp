#include "wire/framing.hpp"

#include <cassert>
#include <cstring>
#include <iterator>

#include "broadcast/coding.hpp"
#include "wire/buffer.hpp"

namespace dsi::wire {

namespace {

/// generation, phys_slot, start_packet u64; kind u8; payload id, content
/// length u32.
constexpr size_t kBucketFieldsBytes = 8 * 3 + 1 + 4 + 4;

void WriteBucketFields(const BucketFields& f, size_t content_bytes,
                       ByteWriter& w) {
  w.WriteUint(f.generation, 8);
  w.WriteUint(f.phys_slot, 8);
  w.WriteUint(f.start_packet, 8);
  w.WriteUint(static_cast<uint64_t>(f.kind), 1);
  w.WriteUint(f.payload_id, 4);
  w.WriteUint(content_bytes, 4);
}

/// Appends the stream header of a frame with \p payload_bytes of payload;
/// the caller appends exactly that payload next.
void AppendFrameHeader(FrameType type, size_t payload_bytes,
                       std::vector<uint8_t>* out) {
  assert(payload_bytes <= kMaxFramePayloadBytes);
  ByteWriter w(out);
  w.WriteUint(kFrameMagic, 4);
  w.WriteUint(kFrameVersion, 2);
  w.WriteUint(static_cast<uint64_t>(type), 1);
  w.WriteUint(payload_bytes, 4);
}

bool ValidKind(uint64_t kind) {
  return kind <= static_cast<uint64_t>(broadcast::BucketKind::kParity);
}

}  // namespace

void AppendFrame(FrameType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out) {
  AppendFrameHeader(type, payload.size(), out);
  out->insert(out->end(), payload.begin(), payload.end());
}

FrameStatus DecodeFrameHeader(const uint8_t* data, size_t size,
                              FrameHeader* header) {
  if (size < kFrameHeaderBytes) return FrameStatus::kNeedMore;
  ByteReader r(data, size);
  if (r.ReadUint(4) != kFrameMagic) return FrameStatus::kBadMagic;
  if (r.ReadUint(2) != kFrameVersion) return FrameStatus::kBadVersion;
  const uint64_t type = r.ReadUint(1);
  if (type < static_cast<uint64_t>(FrameType::kHello) ||
      type > static_cast<uint64_t>(FrameType::kShutdown)) {
    return FrameStatus::kBadType;
  }
  const uint64_t length = r.ReadUint(4);
  if (length > kMaxFramePayloadBytes) return FrameStatus::kOversized;
  header->type = static_cast<FrameType>(type);
  header->payload_bytes = static_cast<uint32_t>(length);
  return FrameStatus::kOk;
}

// --- hello ------------------------------------------------------------------

std::vector<uint8_t> EncodeHello(const HelloPayload& hello) {
  ByteWriter w;
  w.Reserve(1 + 8 + 4 * 8 + 4 * 2 + 8 + 8);
  w.WriteUint(static_cast<uint64_t>(hello.family), 1);
  w.WriteUint(hello.seed, 8);
  w.WriteUint(hello.num_objects, 4);
  w.WriteUint(hello.packet_capacity, 4);
  w.WriteUint(hello.hilbert_order, 4);
  w.WriteUint(hello.num_segments, 4);
  w.WriteUint(hello.coding_group, 4);
  w.WriteUint(hello.coding_parity, 4);
  w.WriteUint(hello.num_generations, 4);
  w.WriteUint(hello.updates_per_gen, 4);
  w.WriteUint(hello.gen_cycles, 8);
  w.WriteUint(hello.now_packet, 8);
  return w.bytes();
}

bool DecodeHello(std::span<const uint8_t> bytes, HelloPayload* hello) {
  ByteReader r(bytes);
  hello->family = static_cast<FamilyId>(r.ReadUint(1));
  hello->seed = r.ReadUint(8);
  hello->num_objects = static_cast<uint32_t>(r.ReadUint(4));
  hello->packet_capacity = static_cast<uint32_t>(r.ReadUint(4));
  hello->hilbert_order = static_cast<uint32_t>(r.ReadUint(4));
  hello->num_segments = static_cast<uint32_t>(r.ReadUint(4));
  hello->coding_group = static_cast<uint32_t>(r.ReadUint(4));
  hello->coding_parity = static_cast<uint32_t>(r.ReadUint(4));
  hello->num_generations = static_cast<uint32_t>(r.ReadUint(4));
  hello->updates_per_gen = static_cast<uint32_t>(r.ReadUint(4));
  hello->gen_cycles = r.ReadUint(8);
  hello->now_packet = r.ReadUint(8);
  // A hello that decodes but cannot build a broadcast is rejected here,
  // not deep inside the index constructors.
  return r.ok() && r.remaining() == 0 && RecipeError(*hello).empty();
}

std::string RecipeError(const HelloPayload& hello) {
  if (static_cast<size_t>(hello.family) >= std::size(air::kFamilies)) {
    return "unknown family id";
  }
  const size_t min_capacity = air::MinPacketCapacity(hello.family);
  if (hello.packet_capacity < min_capacity) {
    return "packet capacity " + std::to_string(hello.packet_capacity) +
           " is below the " + std::string(air::FamilyName(hello.family)) +
           " minimum of " + std::to_string(min_capacity);
  }
  if (hello.hilbert_order == 0 || hello.hilbert_order > 16) {
    return "Hilbert order must be in [1, 16]";
  }
  if (hello.num_segments == 0) return "segment count must be >= 1";
  if (hello.num_generations == 0) return "generation count must be >= 1";
  if (hello.gen_cycles == 0) return "cycles per generation must be >= 1";
  if ((hello.coding_group == 0) != (hello.coding_parity == 0)) {
    return "coding group and parity must both be 0 or both be >= 1";
  }
  if (uint64_t{hello.coding_group} + hello.coding_parity > 64) {
    return "coding group + parity must be <= 64";
  }
  return "";
}

// --- program announcement ---------------------------------------------------

std::vector<uint8_t> EncodeProgramAnnouncement(
    const ProgramMeta& meta, const broadcast::BroadcastProgram& program) {
  assert(program.finalized());
  ByteWriter w;
  w.Reserve(8 * 3 + 4 * 3 + 8 * 2 + program.num_buckets() * 9);
  w.WriteUint(meta.generation, 8);
  w.WriteUint(meta.start_packet, 8);
  w.WriteUint(meta.end_packet, 8);
  w.WriteUint(program.packet_capacity(), 4);
  w.WriteUint(program.coding_group(), 4);
  w.WriteUint(program.coding_parity(), 4);
  w.WriteUint(program.num_data_buckets(), 8);
  w.WriteUint(program.num_buckets(), 8);
  for (size_t s = 0; s < program.num_buckets(); ++s) {
    const broadcast::Bucket& b = program.bucket(s);
    w.WriteUint(static_cast<uint64_t>(b.kind), 1);
    w.WriteUint(b.payload, 4);
    w.WriteUint(b.size_bytes, 4);
  }
  return w.bytes();
}

bool DecodeProgramAnnouncement(
    std::span<const uint8_t> bytes, ProgramMeta* meta,
    std::optional<broadcast::BroadcastProgram>* program) {
  ByteReader r(bytes);
  meta->generation = r.ReadUint(8);
  meta->start_packet = r.ReadUint(8);
  meta->end_packet = r.ReadUint(8);
  const uint64_t capacity = r.ReadUint(4);
  const uint64_t group = r.ReadUint(4);
  const uint64_t parity = r.ReadUint(4);
  const uint64_t num_data = r.ReadUint(8);
  const uint64_t num_buckets = r.ReadUint(8);
  if (!r.ok()) return false;
  if (capacity == 0) return false;
  if ((group == 0) != (parity == 0)) return false;
  if (group + parity > 64) return false;
  if (num_buckets > (uint64_t{1} << 24)) return false;  // corrupt count
  if (meta->end_packet <= meta->start_packet) return false;
  // Exact length check up front: 9 bytes per bucket, nothing trailing.
  if (r.remaining() != num_buckets * 9) return false;
  // The layout is derived, not trusted: the coding builder re-runs over the
  // announced data buckets, and a second pass over the table requires the
  // announcement to be its output bucket for bucket (parity placement,
  // group index and padded size).
  const size_t table = bytes.size() - r.remaining();
  broadcast::BroadcastProgram data(static_cast<size_t>(capacity));
  for (uint64_t s = 0; s < num_buckets; ++s) {
    const uint64_t kind = r.ReadUint(1);
    const uint64_t payload = r.ReadUint(4);
    const uint64_t size_bytes = r.ReadUint(4);
    if (!r.ok() || !ValidKind(kind)) return false;
    if (kind != static_cast<uint64_t>(broadcast::BucketKind::kParity)) {
      data.AddBucket(static_cast<broadcast::BucketKind>(kind),
                     static_cast<uint32_t>(payload),
                     static_cast<uint32_t>(size_bytes));
    }
  }
  data.Finalize();
  if (data.num_data_buckets() != num_data) return false;
  broadcast::BroadcastProgram decoded = broadcast::MakeCodedProgram(
      std::move(data), broadcast::CodingConfig{static_cast<uint32_t>(group),
                                               static_cast<uint32_t>(parity)});
  if (decoded.num_buckets() != num_buckets) return false;
  ByteReader again(bytes.data() + table, bytes.size() - table);
  for (size_t s = 0; s < decoded.num_buckets(); ++s) {
    const broadcast::Bucket& b = decoded.bucket(s);
    if (again.ReadUint(1) != static_cast<uint64_t>(b.kind) ||
        again.ReadUint(4) != b.payload || again.ReadUint(4) != b.size_bytes) {
      return false;
    }
  }
  program->emplace(std::move(decoded));
  return true;
}

// --- bucket frame -----------------------------------------------------------

void AppendBucketFrameHead(const BucketFields& fields, size_t content_bytes,
                           std::vector<uint8_t>* out) {
  AppendFrameHeader(FrameType::kBucket, kBucketFieldsBytes + content_bytes,
                    out);
  ByteWriter w(out);
  WriteBucketFields(fields, content_bytes, w);
}

std::vector<uint8_t> EncodeBucketFrame(const BucketFrame& frame) {
  ByteWriter w;
  w.Reserve(kBucketFieldsBytes + frame.content.size());
  WriteBucketFields(frame, frame.content.size(), w);
  w.WriteBytes(frame.content.data(), frame.content.size());
  return w.bytes();
}

bool ParseBucketFrame(std::span<const uint8_t> bytes, BucketFields* fields,
                      std::span<const uint8_t>* content) {
  ByteReader r(bytes);
  fields->generation = r.ReadUint(8);
  fields->phys_slot = r.ReadUint(8);
  fields->start_packet = r.ReadUint(8);
  const uint64_t kind = r.ReadUint(1);
  fields->payload_id = static_cast<uint32_t>(r.ReadUint(4));
  const uint64_t content_bytes = r.ReadUint(4);
  if (!r.ok() || !ValidKind(kind)) return false;
  fields->kind = static_cast<broadcast::BucketKind>(kind);
  if (r.remaining() != content_bytes) return false;  // torn / padded frame
  const size_t n = static_cast<size_t>(content_bytes);
  *content = {r.ReadBytes(n), n};
  return true;
}

bool DecodeBucketFrame(std::span<const uint8_t> bytes, BucketFrame* frame) {
  std::span<const uint8_t> content;
  if (!ParseBucketFrame(bytes, frame, &content)) return false;
  frame->content.assign(content.begin(), content.end());
  return true;
}

// --- shutdown ---------------------------------------------------------------

std::vector<uint8_t> EncodeShutdown(uint64_t final_packet) {
  ByteWriter w;
  w.WriteUint(final_packet, 8);
  return w.bytes();
}

bool DecodeShutdown(std::span<const uint8_t> bytes, uint64_t* final_packet) {
  ByteReader r(bytes);
  *final_packet = r.ReadUint(8);
  return r.ok() && r.remaining() == 0;
}

}  // namespace dsi::wire
