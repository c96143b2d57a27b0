// Property tests for the wire layer: every codec and frame payload must
// survive an encode -> decode round trip bit-exactly, and every decoder
// must REJECT truncated, torn or corrupted input rather than read past the
// buffer or return half-parsed state. The stream framing is the repo's
// only parser of genuinely untrusted bytes (a live socket), so rejection
// here is a correctness property, not hygiene.

#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "broadcast/coding.hpp"
#include "broadcast/program.hpp"
#include "common/rng.hpp"
#include "common/sizes.hpp"
#include "wire/codecs.hpp"
#include "wire/framing.hpp"

namespace dsi {
namespace {

// --- helpers ----------------------------------------------------------------

wire::HelloPayload RandomHello(common::Rng& rng) {
  wire::HelloPayload h;
  h.family = static_cast<wire::FamilyId>(rng.UniformInt(0, 3));
  h.seed = rng.engine()();
  h.num_objects = static_cast<uint32_t>(rng.UniformInt(0, 100000));
  h.packet_capacity = static_cast<uint32_t>(rng.UniformInt(1, 4096));
  h.hilbert_order = static_cast<uint32_t>(rng.UniformInt(1, 16));
  h.num_segments = static_cast<uint32_t>(rng.UniformInt(1, 8));
  if (rng.Bernoulli(0.5)) {
    h.coding_group = static_cast<uint32_t>(rng.UniformInt(1, 32));
    h.coding_parity = static_cast<uint32_t>(rng.UniformInt(1, 8));
  }
  h.num_generations = static_cast<uint32_t>(rng.UniformInt(1, 6));
  h.updates_per_gen = static_cast<uint32_t>(rng.UniformInt(0, 50));
  h.gen_cycles = static_cast<uint64_t>(rng.UniformInt(1, 10));
  h.now_packet = rng.engine()() % (uint64_t{1} << 48);
  return h;
}

broadcast::BroadcastProgram RandomProgram(common::Rng& rng, bool coded) {
  broadcast::BroadcastProgram data(
      static_cast<size_t>(rng.UniformInt(16, 512)));
  const int buckets = static_cast<int>(rng.UniformInt(1, 40));
  for (int i = 0; i < buckets; ++i) {
    const auto kind =
        static_cast<broadcast::BucketKind>(rng.UniformInt(0, 2));  // no parity
    data.AddBucket(kind, static_cast<uint32_t>(rng.UniformInt(0, 1 << 20)),
                   static_cast<uint32_t>(rng.UniformInt(1, 4096)));
  }
  data.Finalize();
  if (!coded) return data;
  const broadcast::CodingConfig config{
      static_cast<uint32_t>(rng.UniformInt(2, 6)),
      static_cast<uint32_t>(rng.UniformInt(1, 2))};
  return broadcast::MakeCodedProgram(data, config);
}

bool SamePrograms(const broadcast::BroadcastProgram& a,
                  const broadcast::BroadcastProgram& b) {
  if (a.packet_capacity() != b.packet_capacity() ||
      a.num_buckets() != b.num_buckets() ||
      a.coding_group() != b.coding_group() ||
      a.coding_parity() != b.coding_parity() ||
      a.num_data_buckets() != b.num_data_buckets() ||
      a.cycle_packets() != b.cycle_packets()) {
    return false;
  }
  for (size_t s = 0; s < a.num_buckets(); ++s) {
    if (a.bucket(s).kind != b.bucket(s).kind ||
        a.bucket(s).payload != b.bucket(s).payload ||
        a.bucket(s).size_bytes != b.bucket(s).size_bytes ||
        a.bucket(s).start_packet != b.bucket(s).start_packet) {
      return false;
    }
  }
  return true;
}

// --- frame header ------------------------------------------------------------

TEST(WireFuzz, FrameHeaderRoundTripAndPrefixes) {
  common::Rng rng(0xF4A3E);
  for (int round = 0; round < 200; ++round) {
    std::vector<uint8_t> payload(
        static_cast<size_t>(rng.UniformInt(0, 200)));
    for (auto& b : payload) b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    const auto type = static_cast<wire::FrameType>(rng.UniformInt(1, 4));
    std::vector<uint8_t> frame;
    wire::AppendFrame(type, payload, &frame);
    ASSERT_EQ(frame.size(), wire::kFrameHeaderBytes + payload.size());

    wire::FrameHeader header;
    ASSERT_EQ(wire::DecodeFrameHeader(frame.data(), frame.size(), &header),
              wire::FrameStatus::kOk);
    EXPECT_EQ(header.type, type);
    EXPECT_EQ(header.payload_bytes, payload.size());

    // Every header prefix is "keep reading", never a parse.
    for (size_t cut = 0; cut < wire::kFrameHeaderBytes; ++cut) {
      EXPECT_EQ(wire::DecodeFrameHeader(frame.data(), cut, &header),
                wire::FrameStatus::kNeedMore);
    }
  }
}

TEST(WireFuzz, FrameHeaderRejectsForeignAndCorruptStreams) {
  std::vector<uint8_t> frame;
  wire::AppendFrame(wire::FrameType::kBucket, {1, 2, 3}, &frame);
  wire::FrameHeader header;

  std::vector<uint8_t> bad = frame;
  bad[0] ^= 0xFF;  // magic
  EXPECT_EQ(wire::DecodeFrameHeader(bad.data(), bad.size(), &header),
            wire::FrameStatus::kBadMagic);

  bad = frame;
  bad[4] ^= 0x01;  // version
  EXPECT_EQ(wire::DecodeFrameHeader(bad.data(), bad.size(), &header),
            wire::FrameStatus::kBadVersion);

  bad = frame;
  bad[6] = 0x7F;  // type
  EXPECT_EQ(wire::DecodeFrameHeader(bad.data(), bad.size(), &header),
            wire::FrameStatus::kBadType);

  bad = frame;
  bad[7] = 0xFF;  // length low bytes
  bad[8] = 0xFF;
  bad[9] = 0xFF;
  bad[10] = 0xFF;
  EXPECT_EQ(wire::DecodeFrameHeader(bad.data(), bad.size(), &header),
            wire::FrameStatus::kOversized);
}

// --- hello -------------------------------------------------------------------

TEST(WireFuzz, HelloRoundTripAndTruncation) {
  common::Rng rng(0x4E110);
  for (int round = 0; round < 300; ++round) {
    const wire::HelloPayload h = RandomHello(rng);
    const std::vector<uint8_t> bytes = wire::EncodeHello(h);
    wire::HelloPayload back;
    ASSERT_TRUE(wire::DecodeHello(bytes, &back));
    EXPECT_EQ(back.family, h.family);
    EXPECT_EQ(back.seed, h.seed);
    EXPECT_EQ(back.num_objects, h.num_objects);
    EXPECT_EQ(back.packet_capacity, h.packet_capacity);
    EXPECT_EQ(back.hilbert_order, h.hilbert_order);
    EXPECT_EQ(back.num_segments, h.num_segments);
    EXPECT_EQ(back.coding_group, h.coding_group);
    EXPECT_EQ(back.coding_parity, h.coding_parity);
    EXPECT_EQ(back.num_generations, h.num_generations);
    EXPECT_EQ(back.updates_per_gen, h.updates_per_gen);
    EXPECT_EQ(back.gen_cycles, h.gen_cycles);
    EXPECT_EQ(back.now_packet, h.now_packet);

    // Every strict prefix and every one-byte extension must be rejected.
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(wire::DecodeHello(prefix, &back)) << "prefix " << cut;
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(wire::DecodeHello(padded, &back));
  }
}

TEST(WireFuzz, HelloRejectsUnbuildableRecipes) {
  common::Rng rng(0xBADC0);
  wire::HelloPayload back;
  const wire::HelloPayload good = RandomHello(rng);
  ASSERT_TRUE(wire::DecodeHello(wire::EncodeHello(good), &back));

  auto reject = [&](auto&& mutate) {
    wire::HelloPayload h = good;
    mutate(h);
    EXPECT_FALSE(wire::DecodeHello(wire::EncodeHello(h), &back));
  };
  reject([](wire::HelloPayload& h) { h.packet_capacity = 0; });
  reject([](wire::HelloPayload& h) { h.hilbert_order = 0; });
  reject([](wire::HelloPayload& h) { h.hilbert_order = 17; });
  reject([](wire::HelloPayload& h) { h.num_segments = 0; });
  reject([](wire::HelloPayload& h) { h.num_generations = 0; });
  reject([](wire::HelloPayload& h) { h.gen_cycles = 0; });
  reject([](wire::HelloPayload& h) {
    h.coding_group = 3;
    h.coding_parity = 0;  // XOR-mismatched coding pair
  });
  reject([](wire::HelloPayload& h) {
    h.coding_group = 60;
    h.coding_parity = 5;  // group + parity over the 64 cap
  });
}

// --- program announcement ----------------------------------------------------

TEST(WireFuzz, ProgramAnnouncementRoundTripAndTruncation) {
  common::Rng rng(0x9406);
  for (int round = 0; round < 60; ++round) {
    const bool coded = rng.Bernoulli(0.5);
    const broadcast::BroadcastProgram program = RandomProgram(rng, coded);
    wire::ProgramMeta meta;
    meta.generation = static_cast<uint64_t>(rng.UniformInt(0, 5));
    meta.start_packet = rng.engine()() % (uint64_t{1} << 40);
    meta.end_packet =
        rng.Bernoulli(0.3)
            ? UINT64_MAX
            : meta.start_packet + program.cycle_packets() *
                                      static_cast<uint64_t>(
                                          rng.UniformInt(1, 8));
    const std::vector<uint8_t> bytes =
        wire::EncodeProgramAnnouncement(meta, program);

    wire::ProgramMeta back_meta;
    std::optional<broadcast::BroadcastProgram> back;
    ASSERT_TRUE(wire::DecodeProgramAnnouncement(bytes, &back_meta, &back));
    EXPECT_EQ(back_meta.generation, meta.generation);
    EXPECT_EQ(back_meta.start_packet, meta.start_packet);
    EXPECT_EQ(back_meta.end_packet, meta.end_packet);
    ASSERT_TRUE(back.has_value());
    EXPECT_TRUE(back->finalized());
    EXPECT_TRUE(SamePrograms(*back, program));

    // Truncations anywhere — inside the fixed head or the slot table —
    // must fail; so must one trailing junk byte.
    for (size_t cut = 0; cut < bytes.size(); cut += 7) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      std::optional<broadcast::BroadcastProgram> none;
      EXPECT_FALSE(
          wire::DecodeProgramAnnouncement(prefix, &back_meta, &none));
      EXPECT_FALSE(none.has_value());
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    std::optional<broadcast::BroadcastProgram> none;
    EXPECT_FALSE(wire::DecodeProgramAnnouncement(padded, &back_meta, &none));
  }
}

TEST(WireFuzz, ProgramAnnouncementRejectsLayoutDisagreement) {
  // The decoder derives the layout from the announced data buckets: a
  // declared data count, coding layout or parity bucket that disagrees with
  // what the coding builder produces from them is corrupt. Offsets of
  // the fixed head: generation, start, end (8 B each), capacity, group,
  // parity (4 B each), num_data, num_buckets (8 B each); then 9 B per
  // bucket, kind first.
  constexpr size_t kGroupAt = 28;
  constexpr size_t kNumDataAt = 36;
  constexpr size_t kBucketsAt = 52;
  const auto decodes = [](const std::vector<uint8_t>& bytes) {
    wire::ProgramMeta meta;
    std::optional<broadcast::BroadcastProgram> program;
    const bool ok = wire::DecodeProgramAnnouncement(bytes, &meta, &program);
    EXPECT_EQ(ok, program.has_value());
    return ok;
  };
  const auto kind_at = [&](std::vector<uint8_t>& bytes, size_t s) -> uint8_t& {
    return bytes[kBucketsAt + 9 * s];
  };
  constexpr auto kParity = static_cast<uint8_t>(broadcast::BucketKind::kParity);
  common::Rng rng(0x51A7);
  size_t parity_moves = 0;
  for (int round = 0; round < 60; ++round) {
    const bool coded = rng.Bernoulli(0.5);
    const broadcast::BroadcastProgram program = RandomProgram(rng, coded);
    const std::vector<uint8_t> bytes =
        wire::EncodeProgramAnnouncement(wire::ProgramMeta{}, program);
    ASSERT_TRUE(decodes(bytes));

    // Declared data count off by one either way.
    for (const int delta : {-1, 1}) {
      std::vector<uint8_t> bad = bytes;
      bad[kNumDataAt] = static_cast<uint8_t>(bad[kNumDataAt] + delta);
      EXPECT_FALSE(decodes(bad)) << "round " << round;
    }
    // A data bucket turned parity: off the schedule (or uncoded).
    {
      std::vector<uint8_t> bad = bytes;
      kind_at(bad, 0) = kParity;
      EXPECT_FALSE(decodes(bad)) << "round " << round;
    }
    if (!coded) continue;
    // A parity bucket swapped with the data bucket before it: the data
    // count still agrees, the parity sits off its group boundary.
    for (size_t s = 1; s < program.num_buckets(); ++s) {
      if (program.bucket(s).kind != broadcast::BucketKind::kParity ||
          program.bucket(s - 1).kind == broadcast::BucketKind::kParity) {
        continue;
      }
      std::vector<uint8_t> bad = bytes;
      std::swap(kind_at(bad, s), kind_at(bad, s - 1));
      EXPECT_FALSE(decodes(bad)) << "round " << round << " slot " << s;
      ++parity_moves;
      // A parity bucket naming the wrong group.
      bad = bytes;
      ++bad[kBucketsAt + 9 * s + 1];
      EXPECT_FALSE(decodes(bad)) << "round " << round << " slot " << s;
    }
    // A group size the kinds do not follow (two full groups pin it).
    if (program.num_data_buckets() >= 2 * size_t{program.coding_group()}) {
      std::vector<uint8_t> bad = bytes;
      ++bad[kGroupAt];
      EXPECT_FALSE(decodes(bad)) << "round " << round;
    }
  }
  EXPECT_GT(parity_moves, 0u);
}

// --- bucket frames -----------------------------------------------------------

TEST(WireFuzz, BucketFrameRoundTripAndTornFrames) {
  common::Rng rng(0xB0C4E7);
  for (int round = 0; round < 200; ++round) {
    wire::BucketFrame frame;
    frame.generation = static_cast<uint64_t>(rng.UniformInt(0, 8));
    frame.phys_slot = rng.engine()() % 100000;
    frame.start_packet = rng.engine()() % (uint64_t{1} << 48);
    frame.kind = static_cast<broadcast::BucketKind>(rng.UniformInt(0, 3));
    frame.payload_id = static_cast<uint32_t>(rng.UniformInt(0, 1 << 24));
    frame.content.resize(static_cast<size_t>(rng.UniformInt(0, 2048)));
    for (auto& b : frame.content) {
      b = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }

    const std::vector<uint8_t> bytes = wire::EncodeBucketFrame(frame);
    wire::BucketFrame back;
    ASSERT_TRUE(wire::DecodeBucketFrame(bytes, &back));
    EXPECT_EQ(back.generation, frame.generation);
    EXPECT_EQ(back.phys_slot, frame.phys_slot);
    EXPECT_EQ(back.start_packet, frame.start_packet);
    EXPECT_EQ(back.kind, frame.kind);
    EXPECT_EQ(back.payload_id, frame.payload_id);
    EXPECT_EQ(back.content, frame.content);

    // Torn frame: any cut inside header or content fails; so does padding.
    for (size_t cut = 0; cut < bytes.size(); cut += 11) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(wire::DecodeBucketFrame(prefix, &back));
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(wire::DecodeBucketFrame(padded, &back));
  }
}

// --- shutdown ----------------------------------------------------------------

TEST(WireFuzz, ShutdownRoundTripAndTruncation) {
  common::Rng rng(0x57D0);
  for (int round = 0; round < 50; ++round) {
    const uint64_t final_packet = rng.engine()();
    const std::vector<uint8_t> bytes = wire::EncodeShutdown(final_packet);
    uint64_t back = 0;
    ASSERT_TRUE(wire::DecodeShutdown(bytes, &back));
    EXPECT_EQ(back, final_packet);
    for (size_t cut = 0; cut < bytes.size(); ++cut) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.begin() + cut);
      EXPECT_FALSE(wire::DecodeShutdown(prefix, &back));
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(wire::DecodeShutdown(padded, &back));
  }
}

// --- structure codecs --------------------------------------------------------

TEST(WireFuzz, ExpTableCodecRoundTripAndTruncation) {
  common::Rng rng(0xE4B);
  for (int round = 0; round < 200; ++round) {
    const uint32_t key_bytes = static_cast<uint32_t>(rng.UniformInt(1, 16));
    const uint64_t key_mask =
        key_bytes >= 8 ? UINT64_MAX
                       : (uint64_t{1} << (8 * key_bytes)) - 1;
    const uint64_t own_min = rng.engine()() & key_mask;
    std::vector<expindex::ExpTableEntry> entries(
        static_cast<size_t>(rng.UniformInt(0, 20)));
    for (auto& e : entries) {
      e.min_key = rng.engine()() & key_mask;
      e.position = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFF));
    }
    const std::vector<uint8_t> bytes =
        wire::EncodeExpTable(own_min, entries, key_bytes);
    EXPECT_EQ(bytes.size(),
              (1 + entries.size()) * key_bytes +
                  entries.size() * common::kPointerBytes);

    uint64_t back_min = 0;
    std::vector<expindex::ExpTableEntry> back;
    ASSERT_TRUE(wire::DecodeExpTable(bytes, key_bytes,
                                     static_cast<uint32_t>(entries.size()),
                                     &back_min, &back));
    EXPECT_EQ(back_min, own_min);
    ASSERT_EQ(back.size(), entries.size());
    for (size_t i = 0; i < entries.size(); ++i) {
      EXPECT_EQ(back[i].min_key, entries[i].min_key);
      EXPECT_EQ(back[i].position, entries[i].position);
    }

    if (!bytes.empty()) {
      std::vector<uint8_t> prefix(bytes.begin(), bytes.end() - 1);
      EXPECT_FALSE(wire::DecodeExpTable(prefix, key_bytes,
                                        static_cast<uint32_t>(entries.size()),
                                        &back_min, &back));
    }
    std::vector<uint8_t> padded = bytes;
    padded.push_back(0);
    EXPECT_FALSE(wire::DecodeExpTable(padded, key_bytes,
                                      static_cast<uint32_t>(entries.size()),
                                      &back_min, &back));
  }
}

TEST(WireFuzz, NodeAndObjectCodecsRejectTruncation) {
  common::Rng rng(0x40DE);
  for (int round = 0; round < 100; ++round) {
    std::vector<bptree::BptEntry> bpt(
        static_cast<size_t>(rng.UniformInt(1, 30)));
    for (auto& e : bpt) {
      e.key = rng.engine()();
      e.child = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFF));
    }
    std::vector<uint8_t> bytes = wire::EncodeBptNode(bpt);
    std::vector<bptree::BptEntry> bpt_back;
    ASSERT_TRUE(wire::DecodeBptNode(bytes, &bpt_back));
    ASSERT_EQ(bpt_back.size(), bpt.size());
    bytes.pop_back();
    EXPECT_FALSE(wire::DecodeBptNode(bytes, &bpt_back));

    std::vector<rtree::Rtree::Entry> rt(
        static_cast<size_t>(rng.UniformInt(1, 30)));
    for (auto& e : rt) {
      e.mbr.min_x = rng.Uniform(0.0, 1.0);
      e.mbr.min_y = rng.Uniform(0.0, 1.0);
      e.mbr.max_x = e.mbr.min_x + rng.Uniform(0.0, 1.0);
      e.mbr.max_y = e.mbr.min_y + rng.Uniform(0.0, 1.0);
      e.child = static_cast<uint32_t>(rng.UniformInt(0, 0xFFFF));
    }
    bytes = wire::EncodeRtreeNode(rt);
    std::vector<rtree::Rtree::Entry> rt_back;
    ASSERT_TRUE(wire::DecodeRtreeNode(bytes, &rt_back));
    ASSERT_EQ(rt_back.size(), rt.size());
    bytes.pop_back();
    EXPECT_FALSE(wire::DecodeRtreeNode(bytes, &rt_back));

    datasets::SpatialObject obj{
        static_cast<uint32_t>(rng.UniformInt(0, 1 << 20)),
        common::Point{rng.Uniform(0.0, 1.0), rng.Uniform(0.0, 1.0)}};
    bytes = wire::EncodeDataObject(obj);
    datasets::SpatialObject obj_back;
    ASSERT_TRUE(wire::DecodeDataObject(bytes, &obj_back));
    EXPECT_EQ(obj_back.id, obj.id);
    bytes.pop_back();
    EXPECT_FALSE(wire::DecodeDataObject(bytes, &obj_back));
  }
}

}  // namespace
}  // namespace dsi
