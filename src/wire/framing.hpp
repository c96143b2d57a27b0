#pragma once

/// \file framing.hpp
/// \brief Length-framed stream protocol for live broadcast: what actually
/// crosses a socket between tools/broadcastd and a StreamTransport client.
///
/// Layering is deliberate: the IN-SIM packet header (bucket-boundary
/// offset, generation stamp, coding schedule) is an accounting fiction that
/// rides free — changing it would drift every byte metric. The stream
/// framing here wraps whole buckets AFTER that accounting, so the goldens
/// and conformance seeds never see it. Every frame:
///
///   magic   u32   "DSIB" (little endian 0x42495344)
///   version u16   protocol version; receivers REJECT mismatches
///   type    u8    FrameType
///   length  u32   payload bytes that follow
///   payload ...
///
/// Frame payloads:
///  * kHello — the daemon's build recipe (family, dataset seed, index
///    parameters): both ends derive the identical broadcast from it, which
///    is how a thin client can validate every received bucket against the
///    timetable. Carries the absolute packet time of the first frame the
///    connection will stream (the client's tune-in instant).
///  * kProgram — one generation's timetable: [start, end) packet span plus
///    the full slot table (kind, payload id, size per bucket) and coding
///    schedule. Decoding rebuilds a finalized broadcast::BroadcastProgram.
///  * kBucket — one on-air bucket: generation, physical slot, absolute
///    start packet, and the bucket's serialized content (the real
///    wire/codecs.hpp encodings).
///  * kShutdown — clean end of transmission at a cycle boundary.
///
/// Decoders never trust input: truncated, oversized or out-of-range fields
/// fail the decode (and DecodeFrameHeader distinguishes "not ours" /
/// "wrong version" from "keep reading" so clients can report a mismatched
/// daemon instead of hanging).

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "air/family.hpp"
#include "broadcast/program.hpp"

namespace dsi::wire {

/// "DSIB" when the u32 is written little-endian.
inline constexpr uint32_t kFrameMagic = 0x42495344u;
/// Bumped on any incompatible framing/payload change.
inline constexpr uint16_t kFrameVersion = 1;
/// magic u32 + version u16 + type u8 + length u32.
inline constexpr size_t kFrameHeaderBytes = 11;
/// Sanity cap on a single frame payload (a bucket is ~1 KiB; a program
/// announcement is ~9 B per bucket). Anything larger is a corrupt length.
inline constexpr uint32_t kMaxFramePayloadBytes = 1u << 26;

enum class FrameType : uint8_t {
  kHello = 1,
  kProgram = 2,
  kBucket = 3,
  kShutdown = 4,
};

/// Outcome of parsing a frame header.
enum class FrameStatus : uint8_t {
  kOk,          ///< Header valid; payload_bytes of payload follow.
  kNeedMore,    ///< Fewer than kFrameHeaderBytes available — read more.
  kBadMagic,    ///< Not a DSIB stream (wrong daemon / garbage).
  kBadVersion,  ///< DSIB stream speaking an incompatible version.
  kBadType,     ///< Unknown frame type.
  kOversized,   ///< Length field beyond kMaxFramePayloadBytes.
};

struct FrameHeader {
  FrameType type = FrameType::kHello;
  uint32_t payload_bytes = 0;
};

/// Appends header + payload to \p out (which may already hold frames).
void AppendFrame(FrameType type, const std::vector<uint8_t>& payload,
                 std::vector<uint8_t>* out);

/// Parses one frame header from the FRONT of [data, data+size).
FrameStatus DecodeFrameHeader(const uint8_t* data, size_t size,
                              FrameHeader* header);

// --- hello ------------------------------------------------------------------

/// Index family carried in the hello: the family module's enum, whose
/// values are the protocol's.
using FamilyId = air::Family;

/// The daemon's build recipe plus the connection's tune-in instant. Every
/// field feeds transport::LiveSource; two processes constructing from equal
/// hellos own bit-identical broadcasts.
struct HelloPayload {
  FamilyId family = FamilyId::kDsi;
  uint64_t seed = 0;              ///< Dataset / update-stream seed.
  uint32_t num_objects = 0;
  uint32_t packet_capacity = 64;  ///< Channel packet size in bytes.
  uint32_t hilbert_order = 6;
  uint32_t num_segments = 1;      ///< DSI m.
  uint32_t coding_group = 0;      ///< Erasure coding (0 = uncoded).
  uint32_t coding_parity = 0;
  uint32_t num_generations = 1;
  uint32_t updates_per_gen = 0;
  uint64_t gen_cycles = 4;        ///< Airtime per generation, in cycles.
  uint64_t now_packet = 0;        ///< Absolute packet of the next frame.
};

std::vector<uint8_t> EncodeHello(const HelloPayload& hello);
/// Decodes a hello and rejects it unless RecipeError accepts it.
bool DecodeHello(std::span<const uint8_t> bytes, HelloPayload* hello);

/// Why \p hello cannot build a broadcast, or an empty string when it can.
/// The one recipe check: DecodeHello applies it to every received hello
/// and the daemon to its own recipe before it builds, so a daemon never
/// serves a recipe its clients reject.
std::string RecipeError(const HelloPayload& hello);

// --- program announcement ---------------------------------------------------

/// Generation timetable metadata (the program itself decodes separately).
struct ProgramMeta {
  uint64_t generation = 0;
  uint64_t start_packet = 0;
  uint64_t end_packet = UINT64_MAX;  ///< Exclusive; UINT64_MAX = forever.
};

/// Serializes generation \p meta.generation's finalized \p program.
std::vector<uint8_t> EncodeProgramAnnouncement(
    const ProgramMeta& meta, const broadcast::BroadcastProgram& program);

/// Rebuilds a finalized program from an announcement by re-running the
/// coding builder over its data buckets. Returns false on any malformed
/// field, including a declared data count or coding layout that is not
/// what the builder produces; \p program is emplaced only on success.
bool DecodeProgramAnnouncement(std::span<const uint8_t> bytes,
                               ProgramMeta* meta,
                               std::optional<broadcast::BroadcastProgram>* program);

// --- bucket frame -----------------------------------------------------------

/// The fixed fields of a bucket frame, everything before its content.
/// \p start_packet is absolute (generation start + occurrence * cycle +
/// slot offset), so a receiver can verify the daemon's timetable frame by
/// frame.
struct BucketFields {
  uint64_t generation = 0;
  uint64_t phys_slot = 0;     ///< Physical slot in the (coded) cycle.
  uint64_t start_packet = 0;  ///< Absolute first packet of this airing.
  broadcast::BucketKind kind = broadcast::BucketKind::kDataObject;
  uint32_t payload_id = 0;
};

/// One on-air bucket as it crosses the socket.
struct BucketFrame : BucketFields {
  std::vector<uint8_t> content;  ///< Exactly the bucket's size_bytes.
};

/// Appends a whole kBucket frame up to its content: stream header, fields
/// and content length. The caller appends exactly \p content_bytes of
/// content next, so a sender builds frames in place in its send buffer.
void AppendBucketFrameHead(const BucketFields& fields, size_t content_bytes,
                           std::vector<uint8_t>* out);

std::vector<uint8_t> EncodeBucketFrame(const BucketFrame& frame);
bool DecodeBucketFrame(std::span<const uint8_t> bytes, BucketFrame* frame);

/// DecodeBucketFrame without the copy: \p content views the content inside
/// \p bytes.
bool ParseBucketFrame(std::span<const uint8_t> bytes, BucketFields* fields,
                      std::span<const uint8_t>* content);

// --- shutdown ---------------------------------------------------------------

/// Clean end of transmission: the daemon stops at \p final_packet (a cycle
/// boundary; no frame at or past it will follow).
std::vector<uint8_t> EncodeShutdown(uint64_t final_packet);
bool DecodeShutdown(std::span<const uint8_t> bytes, uint64_t* final_packet);

}  // namespace dsi::wire
