#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/program.hpp"

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.hpp"

namespace dsi::broadcast {
namespace {

BroadcastProgram MakeSimpleProgram() {
  // Capacity 64: [table 50B = 1 pkt][obj 1024B = 16 pkt][obj][table][obj]
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kDsiFrameTable, 0, 50);
  p.AddBucket(BucketKind::kDataObject, 0, 1024);
  p.AddBucket(BucketKind::kDataObject, 1, 1024);
  p.AddBucket(BucketKind::kDsiFrameTable, 1, 50);
  p.AddBucket(BucketKind::kDataObject, 2, 1024);
  p.Finalize();
  return p;
}

TEST(BroadcastProgramTest, PacketAccounting) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.num_buckets(), 5u);
  EXPECT_EQ(p.bucket(0).packets, 1u);
  EXPECT_EQ(p.bucket(1).packets, 16u);
  EXPECT_EQ(p.cycle_packets(), 1u + 16 + 16 + 1 + 16);
  EXPECT_EQ(p.cycle_bytes(), p.cycle_packets() * 64);
  EXPECT_EQ(p.bucket(1).start_packet, 1u);
  EXPECT_EQ(p.bucket(3).start_packet, 33u);
}

TEST(BroadcastProgramTest, ZeroSizeBucketOccupiesOnePacket) {
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kIndexNode, 0, 0);
  p.Finalize();
  EXPECT_EQ(p.bucket(0).packets, 1u);
}

TEST(BroadcastProgramTest, SlotAtPacket) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.SlotAtPacket(0), 0u);
  EXPECT_EQ(p.SlotAtPacket(1), 1u);
  EXPECT_EQ(p.SlotAtPacket(16), 1u);
  EXPECT_EQ(p.SlotAtPacket(17), 2u);
  EXPECT_EQ(p.SlotAtPacket(33), 3u);
  EXPECT_EQ(p.SlotAtPacket(34), 4u);
  EXPECT_EQ(p.SlotAtPacket(49), 4u);
}

TEST(BroadcastProgramTest, SlotStartingAtOrAfter) {
  const BroadcastProgram p = MakeSimpleProgram();
  EXPECT_EQ(p.SlotStartingAtOrAfter(0), 0u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(1), 1u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(2), 2u);   // next start >= 2 is slot 2@17
  EXPECT_EQ(p.SlotStartingAtOrAfter(17), 2u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(34), 4u);
  EXPECT_EQ(p.SlotStartingAtOrAfter(35), 0u);  // wraps
}

TEST(ClientSessionTest, InitialProbeCostsOnePacket) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, 64u);
  // Tuned in at packet 0 (start of slot 0); after the sync packet the next
  // boundary is slot 1 at packet 1.
  EXPECT_EQ(s.current_slot(), 1u);
  EXPECT_EQ(m.access_latency_bytes, 64u);
}

TEST(ClientSessionTest, ReadBucketAccountsTuningAndLatency) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_TRUE(s.ReadBucket(1));  // 16 packets
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, (1u + 16u) * 64u);
  EXPECT_EQ(m.access_latency_bytes, 17u * 64u);
  EXPECT_EQ(s.current_slot(), 2u);
}

TEST(ClientSessionTest, DozeCostsLatencyNotTuning) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_TRUE(s.ReadBucket(3));  // doze past slots 1-2, listen to slot 3
  const Metrics m = s.metrics();
  EXPECT_EQ(m.tuning_bytes, (1u + 1u) * 64u);
  EXPECT_EQ(m.access_latency_bytes, 34u * 64u);
}

TEST(ClientSessionTest, ReadBehindWrapsToNextCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  ASSERT_TRUE(s.ReadBucket(3));  // now at slot 4 start (packet 34)
  ASSERT_TRUE(s.ReadBucket(0));  // slot 0 next occurs at packet 50
  EXPECT_EQ(s.now_packets(), 51u);
  EXPECT_EQ(s.current_slot(), 1u);
}

TEST(ClientSessionTest, PacketsUntilZeroAtBoundary) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.PacketsUntil(1), 0u);
  EXPECT_EQ(s.PacketsUntil(3), 32u);
  EXPECT_EQ(s.PacketsUntil(0), 49u);  // wrap
}

TEST(ClientSessionTest, TuneInMidCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in inside slot 1 (packet 5); next boundary is slot 2 at packet 17.
  ClientSession s(p, 5, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 2u);
  EXPECT_EQ(s.now_packets(), 17u);
}

TEST(ClientSessionTest, TuneInLateWrapsToSlotZero) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in at packet 45 (inside the last bucket); next boundary wraps.
  ClientSession s(p, 45, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 50u);
}

TEST(ClientSessionTest, TuneInAcrossCycles) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Global packet 123 = cycle offset 23 (inside slot 2, 17..32).
  ClientSession s(p, 123, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 3u);
  EXPECT_EQ(s.now_packets(), 100u + 33u);
}

TEST(BroadcastProgramTest, SlotStartingAtOrAfterLastPacketAndPastEnd) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Inside the last bucket, including its final packet: wraps to slot 0.
  EXPECT_EQ(p.SlotStartingAtOrAfter(p.cycle_packets() - 1), 0u);
  // At or past the cycle length (callers normalize, but the function is
  // documented to wrap).
  EXPECT_EQ(p.SlotStartingAtOrAfter(p.cycle_packets()), 0u);
  // A bucket boundary exactly on the last packet must NOT wrap.
  BroadcastProgram q(64);
  q.AddBucket(BucketKind::kDataObject, 0, 1024);  // packets 0..15
  q.AddBucket(BucketKind::kDsiFrameTable, 0, 50);  // packet 16 (last)
  q.Finalize();
  ASSERT_EQ(q.cycle_packets(), 17u);
  EXPECT_EQ(q.SlotStartingAtOrAfter(16), 1u);
  EXPECT_EQ(q.SlotStartingAtOrAfter(15), 1u);
}

TEST(ClientSessionTest, TuneInOnLastPacketOfCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Tune in exactly on the cycle's last packet (49): the probe listens to
  // it, and the next bucket boundary is slot 0 of the NEXT cycle, with no
  // extra doze (the probe ends exactly on the boundary).
  ClientSession s(p, p.cycle_packets() - 1, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), p.cycle_packets());
  EXPECT_EQ(s.metrics().access_latency_bytes, 64u);  // one probe packet
  EXPECT_TRUE(s.ReadBucket(0));
  EXPECT_EQ(s.current_slot(), 1u);
}

TEST(ClientSessionTest, TuneInOnLastPacketOfLaterCycle) {
  const BroadcastProgram p = MakeSimpleProgram();
  // Same, several cycles in: global packet 3*50 - 1.
  ClientSession s(p, 3 * p.cycle_packets() - 1, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 3 * p.cycle_packets());
}

TEST(ClientSessionTest, TuneInOnLastSlotBoundary) {
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kDataObject, 0, 1024);   // packets 0..15
  p.AddBucket(BucketKind::kDsiFrameTable, 0, 50);  // packet 16 (last)
  p.Finalize();
  // Tune in on packet 15: probe listens to it, the next boundary is the
  // one-packet bucket starting exactly on the last packet of the cycle.
  ClientSession s(p, 15, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  EXPECT_EQ(s.current_slot(), 1u);
  EXPECT_EQ(s.now_packets(), 16u);
  ASSERT_TRUE(s.ReadBucket(1));  // reading it wraps into the next cycle
  EXPECT_EQ(s.current_slot(), 0u);
  EXPECT_EQ(s.now_packets(), 17u);
  EXPECT_EQ(s.PacketsUntil(0), 0u);
}

TEST(ClientSessionTest, PerBucketLossIsChannelDeterministic) {
  const BroadcastProgram p = MakeSimpleProgram();
  const ErrorModel errors{0.5, ErrorMode::kPerBucketLoss};
  // Two sessions with the same rng seed observing the same bucket instances
  // agree on every outcome, regardless of what else they read in between.
  std::vector<bool> a_out, b_out;
  {
    ClientSession a(p, 0, errors, common::Rng(7));
    a.InitialProbe();
    for (int i = 0; i < 40; ++i) a_out.push_back(a.ReadBucket(1));
  }
  {
    ClientSession b(p, 0, errors, common::Rng(7));
    b.InitialProbe();
    b.ReadBucket(3);  // extra read; bucket 1's instances are unaffected
    for (int i = 0; i < 39; ++i) b_out.push_back(b.ReadBucket(1));
  }
  // Session b skipped bucket 1's first instance while reading bucket 3, so
  // its outcomes align with a's from the second instance on.
  for (size_t i = 0; i < b_out.size(); ++i) {
    EXPECT_EQ(b_out[i], a_out[i + 1]) << "instance " << i + 1;
  }
}

TEST(ClientSessionTest, PerBucketLossRetryNextCycleDrawsFreshCoin) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                  common::Rng(21));
  s.InitialProbe();
  // Under a fresh coin per cycle, 60 consecutive cycles cannot all lose
  // (probability 2^-60); a read-order-coupled model would livelock here.
  bool got = false;
  for (int i = 0; i < 60 && !got; ++i) got = s.ReadBucket(2);
  EXPECT_TRUE(got);
}

TEST(ClientSessionTest, PerBucketLossRateStatistical) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.3, ErrorMode::kPerBucketLoss},
                  common::Rng(42));
  s.InitialProbe();
  int lost = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (!s.ReadBucket(s.current_slot())) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / kTrials, 0.3, 0.04);
}

TEST(ClientSessionTest, LossyChannelStillChargesCosts) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{1.0}, common::Rng(1));
  s.InitialProbe();
  EXPECT_FALSE(s.ReadBucket(1));
  EXPECT_EQ(s.metrics().tuning_bytes, 17u * 64u);
}

TEST(ClientSessionTest, LossRateStatistical) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 0, ErrorModel{0.3}, common::Rng(42));
  s.InitialProbe();
  int lost = 0;
  const int kTrials = 2000;
  for (int i = 0; i < kTrials; ++i) {
    if (!s.ReadBucket(s.current_slot())) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / kTrials, 0.3, 0.04);
}

TEST(ClientSessionTest, ThetaZeroNeverLoses) {
  const BroadcastProgram p = MakeSimpleProgram();
  ClientSession s(p, 7, ErrorModel{0.0}, common::Rng(3));
  s.InitialProbe();
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(s.ReadBucket(s.current_slot()));
  }
}

// ---------------------------------------------------------------------------
// Erasure-coded broadcasts
// ---------------------------------------------------------------------------

TEST(CodedProgramTest, InterleavedShape) {
  // 5 data buckets, groups of 2 + 1 parity: [d0 d1 P][d2 d3 P][d4 P] — the
  // last group is the wrap-around short group (d = 1) and still gets its
  // parity. Parity is padded to the group's largest member (1024 B = 16
  // packets in every group of MakeSimpleProgram).
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  EXPECT_TRUE(p.coded());
  EXPECT_EQ(p.coding_group(), 2u);
  EXPECT_EQ(p.coding_parity(), 1u);
  EXPECT_EQ(p.num_buckets(), 8u);
  EXPECT_EQ(p.num_data_buckets(), 5u);
  const BucketKind kinds[8] = {
      BucketKind::kDsiFrameTable, BucketKind::kDataObject, BucketKind::kParity,
      BucketKind::kDataObject,    BucketKind::kDsiFrameTable,
      BucketKind::kParity,        BucketKind::kDataObject, BucketKind::kParity};
  for (size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(p.bucket(i).kind, kinds[i]) << "phys slot " << i;
  }
  EXPECT_EQ(p.bucket(2).packets, 16u);  // padded to max(50 B, 1024 B)
  EXPECT_EQ(p.bucket(5).packets, 16u);
  EXPECT_EQ(p.bucket(7).packets, 16u);
  EXPECT_EQ(p.cycle_packets(), (1u + 16 + 16) + (16 + 1 + 16) + (16 + 16));
}

TEST(CodedProgramTest, DisabledConfigIsIdentity) {
  const BroadcastProgram original = MakeSimpleProgram();
  for (const CodingConfig& off :
       {CodingConfig{}, CodingConfig{2, 0}, CodingConfig{0, 3}}) {
    const BroadcastProgram p = MakeCodedProgram(original, off);
    EXPECT_FALSE(p.coded());
    ASSERT_EQ(p.num_buckets(), original.num_buckets());
    EXPECT_EQ(p.cycle_packets(), original.cycle_packets());
    for (size_t i = 0; i < p.num_buckets(); ++i) {
      EXPECT_EQ(p.bucket(i).kind, original.bucket(i).kind);
      EXPECT_EQ(p.bucket(i).start_packet, original.bucket(i).start_packet);
    }
  }
}

TEST(CodedProgramTest, WrapAroundShortGroupGetsFullParity) {
  // Groups of 4 over 5 data buckets: [d0..d3 P P][d4 P P].
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{4, 2});
  EXPECT_EQ(p.num_buckets(), 5u + 2u * 2u);
  EXPECT_EQ(p.bucket(4).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(5).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(6).kind, BucketKind::kDataObject);
  EXPECT_EQ(p.bucket(7).kind, BucketKind::kParity);
  EXPECT_EQ(p.bucket(8).kind, BucketKind::kParity);
}

TEST(ClientSessionTest, CodedCleanReadsAreExactlyAccounted) {
  // Clean channel: the coded cycle costs only latency (dozing over parity),
  // never tuning, and slot numbers stay in data space. Tune in on the last
  // packet of cycle 0 (97) so the probe parks exactly on data slot 0 of
  // cycle 1 (absolute packet 98) and the whole walk streams one cycle.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ASSERT_EQ(p.cycle_packets(), 98u);
  ClientSession s(p, 97, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  for (size_t slot = 0; slot < 5; ++slot) {
    EXPECT_TRUE(s.ReadBucket(slot)) << "slot " << slot;
  }
  const Metrics m = s.metrics();
  EXPECT_EQ(m.repaired, 0u);
  // Probe (1 packet) + the five data buckets (1+16+16+1+16 = 50 packets).
  EXPECT_EQ(m.tuning_bytes, (1u + 50u) * 64u);
  // Slot 4 (phys 6, cycle offset 66..82) ends at absolute 98 + 82 = 180.
  EXPECT_EQ(s.now_packets(), 180u);
  EXPECT_EQ(m.access_latency_bytes, (180u - 97u) * 64u);
}

TEST(ClientSessionTest, CodedSingleLossRepairsWithoutFailing) {
  // Exactly one on-air loss (kSingleEvent, theta = 1): a sequential reader
  // always holds or can still hear d of the group's d+p symbols, so the
  // read repairs transparently — no caller-visible failure, repaired == 1.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    ClientSession s(p, seed * 7, ErrorModel{1.0, ErrorMode::kSingleEvent},
                    common::Rng(seed));
    s.InitialProbe();
    int failures = 0;
    for (int i = 0; i < 200; ++i) {
      if (!s.ReadBucket(s.current_slot())) ++failures;
    }
    EXPECT_EQ(failures, 0) << "seed " << seed;
    EXPECT_EQ(s.metrics().repaired, 1u) << "seed " << seed;
  }
}

TEST(ClientSessionTest, CodedBufferServesRereadsFree) {
  // Symbols heard in the current group/occurrence are an in-memory copy: a
  // re-read costs no airtime and no clock movement at all.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ClientSession s(p, 97, ErrorModel{}, common::Rng(1));
  s.InitialProbe();
  ASSERT_TRUE(s.ReadBucket(0));
  ASSERT_TRUE(s.ReadBucket(1));
  const uint64_t tuning = s.metrics().tuning_bytes;
  const uint64_t now = s.now_packets();
  EXPECT_TRUE(s.ReadBucket(0));  // same group, same occurrence: buffered
  EXPECT_EQ(s.metrics().tuning_bytes, tuning);
  EXPECT_EQ(s.now_packets(), now);
  EXPECT_TRUE(s.ReadBucket(2));  // next group: back on the radio
  EXPECT_GT(s.metrics().tuning_bytes, tuning);
}

TEST(ClientSessionTest, CodedPerBucketLossSharedChannelWithColdFork) {
  // kPerBucketLoss coins belong to the channel: a cold fork tuning in at
  // the same instant and issuing the same reads sees the same losses and
  // performs the same repairs, coded or not.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 2});
  ClientSession warm(p, 3, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                     common::Rng(11));
  warm.InitialProbe();
  ClientSession cold = warm.ForkColdSession(3, common::Rng(99));
  cold.InitialProbe();
  for (int i = 0; i < 120; ++i) {
    const size_t slot = warm.current_slot();
    ASSERT_EQ(cold.current_slot(), slot) << "read " << i;
    EXPECT_EQ(warm.ReadBucket(slot), cold.ReadBucket(slot)) << "read " << i;
    ASSERT_EQ(warm.now_packets(), cold.now_packets()) << "read " << i;
  }
  EXPECT_EQ(warm.metrics().repaired, cold.metrics().repaired);
  EXPECT_GT(warm.metrics().repaired, 0u);
  EXPECT_EQ(warm.metrics().tuning_bytes, cold.metrics().tuning_bytes);
}

TEST(ClientSessionTest, CodedRepairChargesExactBytes) {
  // Every repair listen is charged like an ordinary listen: tuning equals
  // listened packets times capacity, with no untracked airtime.
  const BroadcastProgram p =
      MakeCodedProgram(MakeSimpleProgram(), CodingConfig{2, 1});
  ClientSession s(p, 0, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                  common::Rng(5));
  s.InitialProbe();
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  const uint64_t tuning_before = s.metrics().tuning_bytes;
  for (int i = 0; i < 200; ++i) s.ReadBucket(s.current_slot());
  uint64_t listened = 0;
  for (const TraceEvent& e : trace) {
    if (e.kind == TraceEvent::Kind::kListen ||
        e.kind == TraceEvent::Kind::kRepair) {
      listened += e.end_packet - e.start_packet;
    }
  }
  EXPECT_EQ(s.metrics().tuning_bytes - tuning_before,
            listened * p.packet_capacity());
  EXPECT_GT(s.metrics().repaired, 0u);
}

// ---------------------------------------------------------------------------
// Multi-disk (Broadcast Disks) cycle layout
// ---------------------------------------------------------------------------

/// Seven one-packet buckets, payloads 0..6 — small enough to pin the
/// chunked schedule by hand.
BroadcastProgram MakeSevenSlots() {
  BroadcastProgram p(64);
  for (uint32_t i = 0; i < 7; ++i) {
    p.AddBucket(BucketKind::kDataObject, i, 64);
  }
  p.Finalize();
  return p;
}

TEST(MultiDiskProgramTest, SingleDiskIsIdentity) {
  const BroadcastProgram flat = MakeSimpleProgram();
  const std::vector<double> weights = {5.0, 1.0, 9.0, 2.0, 3.0};
  const BroadcastProgram p = MakeMultiDiskProgram(flat, 1, weights);
  EXPECT_FALSE(p.multi_disk());
  ASSERT_EQ(p.num_buckets(), flat.num_buckets());
  EXPECT_EQ(p.cycle_packets(), flat.cycle_packets());
  for (size_t i = 0; i < p.num_buckets(); ++i) {
    EXPECT_EQ(p.bucket(i).kind, flat.bucket(i).kind);
    EXPECT_EQ(p.bucket(i).payload, flat.bucket(i).payload);
    EXPECT_EQ(p.bucket(i).start_packet, flat.bucket(i).start_packet);
    EXPECT_EQ(p.bucket(i).data_slot, i);
    ASSERT_EQ(p.airings(i).size(), 1u);
    EXPECT_EQ(p.airings(i)[0], i);
  }
}

TEST(MultiDiskProgramTest, TwoDiskChunkedShape) {
  // Slots 2 and 5 are hot. K = 2 puts the hottest third of the airtime
  // (2 of 7 packets) on disk 0, aired every minor cycle; the cold 5 slots
  // split into two chunks. Within each disk, slots return to flat order:
  //   minor 0: [2 5 | 0 1]   minor 1: [2 5 | 3 4 6]
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeMultiDiskProgram(MakeSevenSlots(), 2, weights);
  EXPECT_TRUE(p.multi_disk());
  EXPECT_EQ(p.num_disks(), 2u);
  EXPECT_EQ(p.num_data_buckets(), 7u);
  ASSERT_EQ(p.num_buckets(), 9u);  // 4/3 expansion: 7 data packets -> 9
  const uint32_t phys_payload[9] = {2, 5, 0, 1, 2, 5, 3, 4, 6};
  for (size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(p.bucket(i).payload, phys_payload[i]) << "phys " << i;
    EXPECT_EQ(p.bucket(i).data_slot, phys_payload[i]) << "phys " << i;
  }
  // Hot slots air twice per major cycle, cold ones once; every airing list
  // is in cycle order and round-trips through Bucket::data_slot.
  for (uint32_t slot = 0; slot < 7; ++slot) {
    const auto airings = p.airings(slot);
    EXPECT_EQ(airings.size(), (slot == 2 || slot == 5) ? 2u : 1u);
    EXPECT_TRUE(std::is_sorted(airings.begin(), airings.end()));
    for (const uint32_t phys : airings) {
      EXPECT_EQ(p.bucket(phys).data_slot, slot);
    }
  }
}

TEST(MultiDiskProgramTest, ThreeDiskFrequenciesAndExpansion) {
  // Equal weights keep flat order; 14 one-packet slots split 2/4/8 across
  // the three disks (airtime shares 1/7, 2/7, 4/7), aired 4x/2x/1x over a
  // 4-minor major cycle — the classic 12/7 expansion.
  BroadcastProgram flat(64);
  for (uint32_t i = 0; i < 14; ++i) {
    flat.AddBucket(BucketKind::kDataObject, i, 64);
  }
  flat.Finalize();
  const BroadcastProgram p =
      MakeMultiDiskProgram(flat, 3, std::vector<double>(14, 1.0));
  EXPECT_EQ(p.num_disks(), 3u);
  EXPECT_EQ(p.num_data_buckets(), 14u);
  EXPECT_EQ(p.cycle_packets(), 24u);  // 14 * 12/7
  const size_t airings_by_disk[3] = {4, 2, 1};
  for (uint32_t slot = 0; slot < 14; ++slot) {
    const size_t disk = slot < 2 ? 0 : slot < 6 ? 1 : 2;
    EXPECT_EQ(p.airings(slot).size(), airings_by_disk[disk])
        << "slot " << slot;
  }
}

TEST(ClientSessionTest, MultiDiskReadsResolveToNearestAiring) {
  // On the two-disk program above, data slot 2 airs at packets 0 and 4 of
  // the 9-packet cycle. A client parked at packet 3 reaches it in one
  // packet (the repetition), not a near-full cycle as on the flat layout.
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeMultiDiskProgram(MakeSevenSlots(), 2, weights);
  ClientSession s(p, 2, ErrorModel{}, common::Rng(1));
  s.InitialProbe();  // tuned at packet 2, parked at packet 3
  EXPECT_EQ(s.PacketsUntil(2), 1u);
  ASSERT_TRUE(s.ReadBucket(2));
  EXPECT_EQ(s.now_packets(), 5u);
  // Next airing of slot 2 wraps to packet 0 of the next major cycle.
  EXPECT_EQ(s.PacketsUntil(2), 4u);
  ASSERT_TRUE(s.ReadBucket(2));
  EXPECT_EQ(s.now_packets(), 10u);
}

// ---------------------------------------------------------------------------
// Coded multi-disk cycle: parity over the physical airings
// ---------------------------------------------------------------------------

TEST(CodedMultiDiskTest, ParityFollowsEveryGroupOfPhysicalAirings) {
  // The two-disk cycle [2 5 0 1 2 5 3 4 6] coded (2, 1): parity follows
  // every 2 PHYSICAL data airings, hot repetitions included —
  //   [2 5 P][0 1 P][2 5 P][3 4 P][6 P]
  // so each hot slot's two airings sit in different groups (0 and 2).
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeCodedProgram(
      MakeMultiDiskProgram(MakeSevenSlots(), 2, weights), CodingConfig{2, 1});
  EXPECT_TRUE(p.coded());
  EXPECT_TRUE(p.multi_disk());
  EXPECT_EQ(p.num_disks(), 2u);
  EXPECT_EQ(p.num_data_buckets(), 7u);
  constexpr uint32_t kP = Bucket::kNoDataSlot;
  const uint32_t data_slot[14] = {2, 5, kP, 0, 1, kP, 2, 5, kP, 3, 4, kP, 6, kP};
  ASSERT_EQ(p.num_buckets(), 14u);
  for (size_t i = 0; i < 14; ++i) {
    EXPECT_EQ(p.bucket(i).data_slot, data_slot[i]) << "phys " << i;
    EXPECT_EQ(p.bucket(i).kind == BucketKind::kParity, data_slot[i] == kP)
        << "phys " << i;
  }
  for (const uint32_t hot : {2u, 5u}) {
    const auto airings = p.airings(hot);
    ASSERT_EQ(airings.size(), 2u);
    EXPECT_NE(p.GroupOf(airings[0]).first, p.GroupOf(airings[1]).first)
        << "slot " << hot;
  }
  // The short wrap-around group holds one data airing.
  EXPECT_EQ(p.GroupOf(12).first, 12u);
  EXPECT_EQ(p.GroupOf(12).data, 1u);
}

TEST(CodedMultiDiskTest, NearestAiringAndInGroupRepair) {
  std::vector<double> weights(7, 1.0);
  weights[2] = weights[5] = 10.0;
  const BroadcastProgram p = MakeCodedProgram(
      MakeMultiDiskProgram(MakeSevenSlots(), 2, weights), CodingConfig{2, 1});
  ASSERT_EQ(p.cycle_packets(), 14u);  // one packet per bucket

  // Tuned at packet 2 (parity), the probe parks on data slot 0 at packet 3.
  // Hot slot 2 airs at packets 0 and 6: the nearest is 3 packets away, not
  // the 11 to the next major cycle.
  {
    ClientSession s(p, 2, ErrorModel{}, common::Rng(1));
    s.InitialProbe();
    EXPECT_EQ(s.now_packets(), 3u);
    EXPECT_EQ(s.current_slot(), 0u);
    EXPECT_EQ(s.PacketsUntil(2), 3u);
    EXPECT_EQ(s.PacketsUntil(5), 4u);
    EXPECT_EQ(s.PacketsUntil(6), 9u);
  }

  // One on-air loss (kSingleEvent, theta = 1) lands on the read of hot
  // slot 2's second airing (physical slot 6) for some seeds. That read
  // repairs inside its own group [6 7 8] — slot 5's airing and the parity
  // still in flight — and never touches group 0's copy of the slot.
  size_t repaired_cases = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ClientSession s(p, 5, ErrorModel{1.0, ErrorMode::kSingleEvent},
                    common::Rng(seed));
    s.InitialProbe();  // listens to packet 5, parks on physical slot 6
    ASSERT_EQ(s.now_packets(), 6u);
    std::vector<TraceEvent> trace;
    s.set_trace(&trace);
    ASSERT_TRUE(s.ReadBucket(2)) << "seed " << seed;
    ASSERT_FALSE(trace.empty());
    if (!trace.front().lost) continue;
    ++repaired_cases;
    EXPECT_EQ(trace.front().kind, TraceEvent::Kind::kListen);
    EXPECT_EQ(trace.front().start_packet, 6u);
    EXPECT_EQ(s.metrics().repaired, 1u);
    size_t repairs = 0;
    for (const TraceEvent& e : trace) {
      if (e.kind != TraceEvent::Kind::kRepair) continue;
      ++repairs;
      EXPECT_GE(e.slot, 7u) << "seed " << seed;
      EXPECT_LE(e.slot, 8u) << "seed " << seed;
    }
    EXPECT_EQ(repairs, 2u) << "seed " << seed;
    EXPECT_EQ(s.now_packets(), 9u);  // the group's span, not a cycle
  }
  EXPECT_GT(repaired_cases, 0u);
}

}  // namespace
}  // namespace dsi::broadcast
