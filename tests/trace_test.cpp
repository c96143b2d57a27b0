#include <algorithm>

#include <gtest/gtest.h>

#include "broadcast/client.hpp"
#include "broadcast/coding.hpp"
#include "broadcast/program.hpp"
#include "common/rng.hpp"
#include "datasets/datasets.hpp"
#include "dsi/client.hpp"
#include "hilbert/space_mapper.hpp"

namespace dsi::broadcast {
namespace {

BroadcastProgram MakeProgram() {
  BroadcastProgram p(64);
  p.AddBucket(BucketKind::kDsiFrameTable, 0, 50);
  p.AddBucket(BucketKind::kDataObject, 0, 1024);
  p.AddBucket(BucketKind::kDsiFrameTable, 1, 50);
  p.AddBucket(BucketKind::kDataObject, 1, 1024);
  p.Finalize();
  return p;
}

TEST(TraceTest, EventsAreContiguousAndTyped) {
  const BroadcastProgram p = MakeProgram();
  ClientSession s(p, 5, ErrorModel{}, common::Rng(1));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  s.InitialProbe();
  s.ReadBucket(2);
  s.ReadBucket(0);  // dozes past slot 3 first

  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.front().kind, TraceEvent::Kind::kProbe);
  EXPECT_EQ(trace.front().start_packet, 5u);
  EXPECT_TRUE(std::any_of(trace.begin(), trace.end(), [](const TraceEvent& e) {
    return e.kind == TraceEvent::Kind::kDoze;
  }));
  for (size_t i = 1; i < trace.size(); ++i) {
    // No gaps, no overlaps: the trace tiles the session's time axis.
    EXPECT_EQ(trace[i].start_packet, trace[i - 1].end_packet);
    EXPECT_GT(trace[i].end_packet, trace[i].start_packet);
  }
  EXPECT_EQ(trace.back().end_packet, s.now_packets());
}

TEST(TraceTest, ListenTimeEqualsTuning) {
  const BroadcastProgram p = MakeProgram();
  ClientSession s(p, 3, ErrorModel{}, common::Rng(2));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  s.InitialProbe();
  for (int i = 0; i < 10; ++i) s.ReadBucket(s.current_slot());
  uint64_t on_packets = 0;
  for (const auto& e : trace) {
    if (e.kind != TraceEvent::Kind::kDoze) {
      on_packets += e.end_packet - e.start_packet;
    }
  }
  EXPECT_EQ(on_packets * p.packet_capacity(), s.metrics().tuning_bytes);
}

TEST(TraceTest, ListenEventsCarrySlotAndLoss) {
  const BroadcastProgram p = MakeProgram();
  ClientSession s(p, 0, ErrorModel{1.0}, common::Rng(3));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  s.InitialProbe();
  EXPECT_FALSE(s.ReadBucket(2));
  const auto& e = trace.back();
  EXPECT_EQ(e.kind, TraceEvent::Kind::kListen);
  EXPECT_EQ(e.slot, 2u);
  EXPECT_TRUE(e.lost);
}

TEST(TraceTest, FullQueryTraceIsConsistent) {
  const hilbert::SpaceMapper mapper(datasets::UnitUniverse(), 8);
  const auto objects = datasets::MakeUniform(300, datasets::UnitUniverse(), 4);
  core::DsiConfig cfg;
  cfg.num_segments = 2;
  const core::DsiIndex index(objects, mapper, 64, cfg);
  ClientSession s(index.program(), 777, ErrorModel{}, common::Rng(5));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  core::DsiClient client(index, &s);
  (void)client.WindowQuery(common::Rect{0.2, 0.2, 0.4, 0.4});

  uint64_t on = 0;
  uint64_t total = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    if (i > 0) {
      ASSERT_EQ(trace[i].start_packet, trace[i - 1].end_packet);
    }
    const uint64_t len = trace[i].end_packet - trace[i].start_packet;
    total += len;
    if (trace[i].kind != TraceEvent::Kind::kDoze) on += len;
  }
  const Metrics m = s.metrics();
  EXPECT_EQ(on * 64, m.tuning_bytes);
  EXPECT_EQ(total * 64, m.access_latency_bytes);
}

TEST(TraceTest, RepairEventsTileTimeAndCarryPhysicalSlots) {
  // A coded session under heavy loss emits kRepair events for the group
  // symbols it listens to while reconstructing. The trace still tiles the
  // time axis exactly, repair slots are PHYSICAL (they may name parity
  // buckets, which have no data-slot number), and total on-air time equals
  // tuning byte for byte.
  const BroadcastProgram p =
      MakeCodedProgram(MakeProgram(), CodingConfig{2, 1});
  ClientSession s(p, 5, ErrorModel{0.5, ErrorMode::kPerBucketLoss},
                  common::Rng(9));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  s.InitialProbe();
  for (int i = 0; i < 120; ++i) s.ReadBucket(s.current_slot());
  ASSERT_GT(s.metrics().repaired, 0u);

  size_t repair_events = 0;
  uint64_t on_packets = 0;
  for (size_t i = 0; i < trace.size(); ++i) {
    const TraceEvent& e = trace[i];
    if (i > 0) EXPECT_EQ(e.start_packet, trace[i - 1].end_packet);
    if (e.kind == TraceEvent::Kind::kRepair) {
      ++repair_events;
      EXPECT_LT(e.slot, p.num_buckets());  // physical slot space
      EXPECT_EQ(e.end_packet - e.start_packet, p.bucket(e.slot).packets);
    }
    if (e.kind != TraceEvent::Kind::kDoze) {
      on_packets += e.end_packet - e.start_packet;
    }
  }
  EXPECT_GT(repair_events, 0u);
  EXPECT_EQ(on_packets * p.packet_capacity(), s.metrics().tuning_bytes);
  EXPECT_EQ(trace.back().end_packet, s.now_packets());
}

TEST(TraceTest, UncodedSessionNeverEmitsRepairEvents) {
  const BroadcastProgram p = MakeProgram();
  ClientSession s(p, 0, ErrorModel{0.7, ErrorMode::kPerBucketLoss},
                  common::Rng(4));
  std::vector<TraceEvent> trace;
  s.set_trace(&trace);
  s.InitialProbe();
  for (int i = 0; i < 60; ++i) s.ReadBucket(s.current_slot());
  EXPECT_EQ(s.metrics().repaired, 0u);
  for (const auto& e : trace) {
    EXPECT_NE(e.kind, TraceEvent::Kind::kRepair);
  }
}

TEST(TraceTest, NoTraceByDefault) {
  const BroadcastProgram p = MakeProgram();
  ClientSession s(p, 0, ErrorModel{}, common::Rng(6));
  s.InitialProbe();  // must not crash without a sink
  s.ReadBucket(1);
  SUCCEED();
}

}  // namespace
}  // namespace dsi::broadcast
