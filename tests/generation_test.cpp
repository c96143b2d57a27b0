/// Dynamic broadcast generations: the schedule arithmetic, the session's
/// physical stale detection (a read aimed past a republication instant
/// hears a newer generation stamp and re-synchronizes), the DSI incremental
/// republication path (must be structurally identical to a full rebuild),
/// update streams, and the generational experiment engine — straddling
/// queries restart with all learned state invalidated and answer for the
/// generation live at their last (re)tune-in.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "broadcast/client.hpp"
#include "broadcast/disks.hpp"
#include "broadcast/generation.hpp"
#include "datasets/datasets.hpp"
#include "dsi/index.hpp"
#include "hci/hci.hpp"
#include "hilbert/space_mapper.hpp"
#include "rtree/rtree_air.hpp"
#include "sim/conformance.hpp"
#include "sim/runner.hpp"
#include "sim/workload.hpp"

namespace dsi {
namespace {

broadcast::BroadcastProgram MakeProgram(size_t buckets, size_t capacity) {
  broadcast::BroadcastProgram p(capacity);
  for (size_t i = 0; i < buckets; ++i) {
    p.AddBucket(broadcast::BucketKind::kDataObject,
                static_cast<uint32_t>(i), static_cast<uint32_t>(capacity));
  }
  p.Finalize();
  return p;
}

// ---------------------------------------------------------------------------
// GenerationSchedule arithmetic
// ---------------------------------------------------------------------------

TEST(GenerationSchedule, StartsEndsAndLookup) {
  const auto a = MakeProgram(4, 64);  // cycle = 4 packets
  const auto b = MakeProgram(2, 64);  // cycle = 2 packets
  broadcast::GenerationSchedule s;
  s.Append(&a, 2);  // packets [0, 8)
  s.Append(&b, 3);  // packets [8, ...) forever; horizon extends 3 cycles

  ASSERT_EQ(s.num_generations(), 2u);
  EXPECT_EQ(s.start_packet(0), 0u);
  EXPECT_EQ(s.end_packet(0), 8u);
  EXPECT_EQ(s.start_packet(1), 8u);
  EXPECT_EQ(s.end_packet(1), UINT64_MAX);
  EXPECT_EQ(s.TuneInHorizon(), 8u + 3u * 2u);

  EXPECT_EQ(s.GenerationAt(0), 0u);
  EXPECT_EQ(s.GenerationAt(7), 0u);
  // The switch instant belongs to the incoming generation.
  EXPECT_EQ(s.GenerationAt(8), 1u);
  EXPECT_EQ(s.GenerationAt(1000), 1u);
}

// ---------------------------------------------------------------------------
// ClientSession: stale detection and re-synchronization
// ---------------------------------------------------------------------------

TEST(GenerationalSession, ReadPastRepublicationDetectsStaleAndResyncs) {
  const auto a = MakeProgram(4, 64);
  const auto b = MakeProgram(2, 64);
  broadcast::GenerationSchedule s;
  s.Append(&a, 2);  // generation 0: packets [0, 8)
  s.Append(&b, 1);

  broadcast::ClientSession session(s, 0, broadcast::ErrorModel{},
                                   common::Rng(1));
  session.InitialProbe();
  EXPECT_EQ(session.generation(), 0u);
  EXPECT_EQ(&session.program(), &a);

  // Two intact reads inside generation 0.
  EXPECT_TRUE(session.ReadBucket(3));   // packets [3, 4)
  EXPECT_TRUE(session.ReadBucket(3));   // next occurrence: [7, 8) -> now = 8
  EXPECT_EQ(session.now_packets(), 8u);
  // The session has not listened since: it still believes in generation 0.
  EXPECT_EQ(session.generation(), 0u);

  // Aiming at slot 2 of the dead layout: the believed occurrence (packet
  // 10) is past the republication instant. The client dozes there, hears a
  // packet stamped generation 1, and re-synchronizes on the new program.
  EXPECT_FALSE(session.ReadBucket(2));
  EXPECT_EQ(session.generation(), 1u);
  EXPECT_EQ(&session.program(), &b);
  EXPECT_EQ(session.now_packets(), 11u);  // doze to 10, listen 1, park at 11
  EXPECT_EQ(session.current_slot(), 1u);  // (11 - 8) % 2 = slot 1 boundary

  // The new slot vocabulary works.
  EXPECT_TRUE(session.ReadBucket(1));
  EXPECT_TRUE(session.ReadBucket(0));
}

TEST(GenerationalSession, ProbeOnFinalPacketParksIntoNextGeneration) {
  const auto a = MakeProgram(4, 64);
  const auto b = MakeProgram(2, 64);
  broadcast::GenerationSchedule s;
  s.Append(&a, 1);  // generation 0: packets [0, 4)
  s.Append(&b, 1);

  // Tune in on the last packet of generation 0: the next bucket boundary IS
  // the republication instant, which belongs to generation 1.
  broadcast::ClientSession session(s, 3, broadcast::ErrorModel{},
                                   common::Rng(1));
  session.InitialProbe();
  EXPECT_EQ(session.now_packets(), 4u);
  EXPECT_EQ(session.generation(), 1u);
  EXPECT_EQ(session.current_slot(), 0u);
  EXPECT_TRUE(session.ReadBucket(0));
}

TEST(GenerationalSession, InitialProbeIsIdempotent) {
  const auto a = MakeProgram(4, 64);
  broadcast::GenerationSchedule s;
  s.Append(&a, 1);
  broadcast::ClientSession session(s, 1, broadcast::ErrorModel{},
                                   common::Rng(1));
  session.InitialProbe();
  const uint64_t now = session.now_packets();
  const auto m = session.metrics();
  session.InitialProbe();  // no-op: no extra listen, no extra latency
  EXPECT_EQ(session.now_packets(), now);
  EXPECT_EQ(session.metrics().tuning_bytes, m.tuning_bytes);
}

TEST(GenerationalSession, SingleGenerationScheduleMatchesStaticSession) {
  // A one-entry schedule must behave exactly like the static constructor:
  // same parking, same reads, same metrics, generation pinned at 0.
  const auto a = MakeProgram(5, 128);
  broadcast::GenerationSchedule s;
  s.Append(&a, 4);

  broadcast::ClientSession dynamic(s, 7, broadcast::ErrorModel{},
                                   common::Rng(9));
  broadcast::ClientSession fixed(a, 7, broadcast::ErrorModel{},
                                 common::Rng(9));
  dynamic.InitialProbe();
  fixed.InitialProbe();
  for (size_t slot : {3u, 1u, 4u, 0u, 2u, 2u}) {
    EXPECT_EQ(dynamic.ReadBucket(slot), fixed.ReadBucket(slot));
    EXPECT_EQ(dynamic.now_packets(), fixed.now_packets());
  }
  EXPECT_EQ(dynamic.generation(), 0u);
  EXPECT_EQ(dynamic.metrics().access_latency_bytes,
            fixed.metrics().access_latency_bytes);
  EXPECT_EQ(dynamic.metrics().tuning_bytes, fixed.metrics().tuning_bytes);
}

TEST(GenerationalSession, CyclePositionTracksClockAcrossDozesAndResyncs) {
  // The session keeps its cycle position as state, advanced with the clock;
  // after every call it must equal the generation-relative clock modulo the
  // cycle. Three generations of 2-disk programs with unequal bucket sizes,
  // so cycles differ per generation and hot slots air twice.
  auto two_disk = [](uint32_t buckets) {
    broadcast::BroadcastProgram flat(64);
    std::vector<double> weights;
    for (uint32_t i = 0; i < buckets; ++i) {
      flat.AddBucket(broadcast::BucketKind::kDataObject, i, 64 * (1 + i % 3));
      weights.push_back(i % 4 == 1 ? 8.0 : 1.0);
    }
    flat.Finalize();
    return broadcast::MakeMultiDiskProgram(flat, 2, weights);
  };
  const auto a = two_disk(7);
  const auto b = two_disk(9);
  const auto c = two_disk(5);
  ASSERT_TRUE(a.multi_disk() && b.multi_disk() && c.multi_disk());
  broadcast::GenerationSchedule s;
  s.Append(&a, 30);
  s.Append(&b, 30);
  s.Append(&c, 30);

  broadcast::ClientSession session(s, 3, broadcast::ErrorModel{},
                                   common::Rng(5));
  auto check = [&](const char* step) {
    const uint64_t cycle = session.program().cycle_packets();
    EXPECT_EQ(session.cycle_position(),
              (session.now_packets() - s.start_packet(session.generation())) %
                  cycle)
        << step << " at packet " << session.now_packets();
  };
  session.InitialProbe();
  check("probe");
  for (size_t g = 0; g < 3; ++g) {
    ASSERT_EQ(session.generation(), g);
    const uint64_t cycle = session.program().cycle_packets();
    for (const uint64_t pace : {uint64_t{0}, uint64_t{1}, cycle - 1, cycle,
                                3 * cycle + 5}) {
      session.Pace(pace);
      check("pace");
    }
    for (size_t slot = 0; slot < session.program().num_data_buckets();
         ++slot) {
      EXPECT_TRUE(session.ReadBucket(slot));
      check("read");
    }
    if (g + 1 < 3) {
      // Wake two packets past the republication instant: one header
      // listen re-syncs the session onto the next generation.
      ASSERT_LT(session.now_packets(), s.end_packet(g));
      session.ResumeAt(s.end_packet(g) + 2);
      check("resume");
    }
  }
  // A read aimed at a slot of a dead layout re-syncs too.
  broadcast::ClientSession late(s, s.end_packet(0) - 2,
                                broadcast::ErrorModel{}, common::Rng(6));
  late.InitialProbe();
  while (late.generation() == 0) {
    late.ReadBucket(late.program().num_data_buckets() - 1);
    EXPECT_EQ(late.cycle_position(),
              (late.now_packets() - s.start_packet(late.generation())) %
                  late.program().cycle_packets());
  }
}

// ---------------------------------------------------------------------------
// Update streams
// ---------------------------------------------------------------------------

TEST(UpdateStream, DeterministicValidAndNeverEmptiesTheSet) {
  const auto u = datasets::UnitUniverse();
  const auto base = datasets::MakeUniform(12, u, 3);
  const auto ops = datasets::MakeUpdateStream(base, 200, u, 17);
  const auto ops2 = datasets::MakeUpdateStream(base, 200, u, 17);
  ASSERT_EQ(ops.size(), 200u);
  for (size_t i = 0; i < ops.size(); ++i) {
    EXPECT_EQ(static_cast<int>(ops[i].kind), static_cast<int>(ops2[i].kind));
    EXPECT_EQ(ops[i].id, ops2[i].id);
  }

  // Replay: every delete/move targets a live id, inserts are fresh, and the
  // set never goes empty.
  std::vector<datasets::SpatialObject> objects = base;
  for (size_t i = 0; i < ops.size(); ++i) {
    const auto one = std::vector<datasets::UpdateOp>{ops[i]};
    auto ids_of = [](const std::vector<datasets::SpatialObject>& objs) {
      std::set<uint32_t> ids;
      for (const auto& o : objs) ids.insert(o.id);
      return ids;
    };
    const auto before = ids_of(objects);
    EXPECT_EQ(before.size(), objects.size());  // ids unique
    if (ops[i].kind == datasets::UpdateKind::kInsert) {
      EXPECT_FALSE(before.count(ops[i].id));
    } else {
      EXPECT_TRUE(before.count(ops[i].id));
    }
    objects = datasets::ApplyUpdates(std::move(objects), one);
    EXPECT_FALSE(objects.empty());
  }
}

// ---------------------------------------------------------------------------
// DSI incremental republication
// ---------------------------------------------------------------------------

void ExpectIndexesIdentical(const core::DsiIndex& a, const core::DsiIndex& b) {
  ASSERT_EQ(a.num_frames(), b.num_frames());
  ASSERT_EQ(a.sorted_objects().size(), b.sorted_objects().size());
  for (size_t i = 0; i < a.sorted_objects().size(); ++i) {
    EXPECT_EQ(a.sorted_objects()[i].id, b.sorted_objects()[i].id);
    EXPECT_EQ(a.sorted_objects()[i].location.x,
              b.sorted_objects()[i].location.x);
    EXPECT_EQ(a.sorted_objects()[i].location.y,
              b.sorted_objects()[i].location.y);
    EXPECT_EQ(a.object_hc(i), b.object_hc(i));
  }
  ASSERT_EQ(a.program().num_buckets(), b.program().num_buckets());
  for (size_t s = 0; s < a.program().num_buckets(); ++s) {
    const auto& ba = a.program().bucket(s);
    const auto& bb = b.program().bucket(s);
    EXPECT_EQ(static_cast<int>(ba.kind), static_cast<int>(bb.kind));
    EXPECT_EQ(ba.payload, bb.payload);
    EXPECT_EQ(ba.size_bytes, bb.size_bytes);
    EXPECT_EQ(ba.start_packet, bb.start_packet);
  }
  EXPECT_EQ(a.segment_head_hcs(), b.segment_head_hcs());
  for (uint32_t pos = 0; pos < a.num_frames(); ++pos) {
    const auto ta = a.TableAt(pos);
    const auto tb = b.TableAt(pos);
    EXPECT_EQ(ta.own_hc_min, tb.own_hc_min);
    ASSERT_EQ(ta.entries.size(), tb.entries.size());
    for (size_t e = 0; e < ta.entries.size(); ++e) {
      EXPECT_EQ(ta.entries[e].hc_min, tb.entries[e].hc_min);
      EXPECT_EQ(ta.entries[e].position, tb.entries[e].position);
    }
  }
}

TEST(DsiRepublish, IncrementalMatchesFullRebuild) {
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 6);
  for (uint64_t seed : {1ull, 5ull, 23ull}) {
    for (uint32_t m : {1u, 2u, 3u}) {
      auto objects = datasets::MakeUniform(60, u, seed);
      core::DsiConfig cfg;
      cfg.num_segments = m;
      cfg.object_factor = seed % 2 == 0 ? 1 : 3;
      auto prev = std::make_unique<core::DsiIndex>(objects, mapper, 128, cfg);
      // Chain three republications, checking each against a full rebuild.
      for (int gen = 0; gen < 3; ++gen) {
        const auto ops = datasets::MakeUpdateStream(
            objects, 15, u, seed * 100 + static_cast<uint64_t>(gen));
        objects = datasets::ApplyUpdates(std::move(objects), ops);
        auto incremental = std::make_unique<core::DsiIndex>(
            core::DsiIndex::Republish(*prev, ops));
        const core::DsiIndex full(objects, mapper, 128, cfg);
        ExpectIndexesIdentical(*incremental, full);
        prev = std::move(incremental);
      }
    }
  }
}

TEST(DsiRepublish, DiffGenerationsQuantifiesChange) {
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 6);
  const auto objects = datasets::MakeUniform(80, u, 11);
  const core::DsiIndex index(objects, mapper, 128, core::DsiConfig{});

  // No updates: nothing changes.
  const core::DsiIndex same = core::DsiIndex::Republish(index, {});
  const auto none = core::DiffGenerations(index, same);
  EXPECT_EQ(none.frames_changed, 0u);
  EXPECT_EQ(none.bytes_changed, 0u);
  EXPECT_EQ(none.bytes_total, same.program().cycle_bytes());

  // One move: a strict subset of the cycle is republished.
  std::vector<datasets::UpdateOp> ops{datasets::UpdateOp{
      datasets::UpdateKind::kMove, objects[10].id, common::Point{0.9, 0.1}}};
  const core::DsiIndex moved = core::DsiIndex::Republish(index, ops);
  const auto delta = core::DiffGenerations(index, moved);
  EXPECT_GT(delta.frames_changed, 0u);
  EXPECT_GT(delta.bytes_changed, 0u);
  EXPECT_LT(delta.bytes_changed, delta.bytes_total);
}

// ---------------------------------------------------------------------------
// GenerationalRun: straddling queries, stale invalidation, determinism
// ---------------------------------------------------------------------------

TEST(GenerationalRun, StraddlingQueriesAnswerForTheirGeneration) {
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 6);
  auto objects = datasets::MakeUniform(50, u, 7);

  // Generation 1 moves a third of the objects and inserts a few: window
  // membership genuinely differs between generations.
  const auto ops = datasets::MakeUpdateStream(objects, 25, u, 99);
  const auto objects1 = datasets::ApplyUpdates(objects, ops);

  const core::DsiIndex dsi0(objects, mapper, 64, core::DsiConfig{});
  const core::DsiIndex dsi1 = core::DsiIndex::Republish(dsi0, ops);
  const air::DsiHandle h0(dsi0);
  const air::DsiHandle h1(dsi1);

  sim::GenerationalIndex gi;
  gi.generations = {&h0, &h1};
  gi.cycles = {2, 2};

  const auto windows = sim::MakeWindowWorkload(60, 0.4, u, 5);
  const sim::Workload wl = sim::Workload::Window(windows);
  std::vector<sim::QueryResult> results;
  sim::RunOptions opt;
  opt.seed = 13;
  opt.results = &results;
  const auto metrics = sim::GenerationalRun(gi, wl, opt);

  ASSERT_EQ(results.size(), windows.size());
  EXPECT_EQ(metrics.queries, windows.size());
  EXPECT_EQ(metrics.incomplete, 0u);

  const std::vector<const std::vector<datasets::SpatialObject>*> gens{
      &objects, &objects1};
  size_t by_gen[2] = {0, 0};
  size_t restarted = 0;
  for (size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    ASSERT_TRUE(r.completed);
    ASSERT_LT(r.generation, 2u);
    ++by_gen[r.generation];
    if (r.restarts > 0) ++restarted;
    std::vector<uint32_t> oracle;
    for (const auto& o : *gens[r.generation]) {
      if (windows[i].Contains(o.location)) oracle.push_back(o.id);
    }
    std::sort(oracle.begin(), oracle.end());
    EXPECT_EQ(oracle, r.ids) << "query " << i << " gen " << r.generation;
  }
  // Tune-ins cover the whole horizon: both generations answered queries,
  // and at least one query straddled the republication instant.
  EXPECT_GT(by_gen[0], 0u);
  EXPECT_GT(by_gen[1], 0u);
  EXPECT_GT(restarted, 0u);
  EXPECT_EQ(metrics.restarted, restarted);
}

TEST(GenerationalRun, BitIdenticalForAnyWorkerCount) {
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 5);
  auto objects = datasets::MakeUniform(40, u, 3);
  const auto ops = datasets::MakeUpdateStream(objects, 12, u, 8);

  const hci::HciIndex hci0(objects, mapper, 64);
  const hci::HciIndex hci1(datasets::ApplyUpdates(objects, ops), mapper, 64);
  const air::HciHandle h0(hci0);
  const air::HciHandle h1(hci1);
  sim::GenerationalIndex gi;
  gi.generations = {&h0, &h1};
  gi.cycles = {2, 2};

  const auto points = sim::MakeKnnWorkload(24, u, 21);
  const sim::Workload wl = sim::Workload::Knn(
      points, 4, air::KnnStrategy::kConservative, 0.3);

  std::vector<sim::QueryResult> serial_results;
  std::vector<sim::QueryResult> parallel_results;
  sim::RunOptions serial;
  serial.seed = 2;
  serial.workers = 1;
  serial.results = &serial_results;
  sim::RunOptions parallel;
  parallel.seed = 2;
  parallel.workers = 3;
  parallel.results = &parallel_results;
  const auto ms = sim::GenerationalRun(gi, wl, serial);
  const auto mp = sim::GenerationalRun(gi, wl, parallel);

  EXPECT_EQ(ms.latency_bytes, mp.latency_bytes);
  EXPECT_EQ(ms.tuning_bytes, mp.tuning_bytes);
  EXPECT_EQ(ms.restarted, mp.restarted);
  ASSERT_EQ(serial_results.size(), parallel_results.size());
  for (size_t i = 0; i < serial_results.size(); ++i) {
    EXPECT_EQ(serial_results[i].ids, parallel_results[i].ids);
    EXPECT_EQ(serial_results[i].knn_distances,
              parallel_results[i].knn_distances);
    EXPECT_EQ(serial_results[i].generation, parallel_results[i].generation);
    EXPECT_EQ(serial_results[i].restarts, parallel_results[i].restarts);
  }
}

TEST(GenerationalRun, TotalLossTerminatesAndSurfacesIncomplete) {
  const auto u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 5);
  const auto objects = datasets::MakeUniform(15, u, 4);
  const auto ops = datasets::MakeUpdateStream(objects, 4, u, 2);

  const core::DsiIndex dsi0(objects, mapper, 64, core::DsiConfig{});
  const core::DsiIndex dsi1 = core::DsiIndex::Republish(dsi0, ops);
  const air::DsiHandle h0(dsi0);
  const air::DsiHandle h1(dsi1);
  sim::GenerationalIndex gi;
  gi.generations = {&h0, &h1};
  gi.cycles = {1, 1};

  const auto windows = sim::MakeWindowWorkload(3, 0.3, u, 6);
  const sim::Workload wl = sim::Workload::Window(windows, 1.0);
  std::vector<sim::QueryResult> results;
  sim::RunOptions opt;
  opt.seed = 1;
  opt.results = &results;
  const auto metrics = sim::GenerationalRun(gi, wl, opt);
  EXPECT_EQ(metrics.incomplete, windows.size());
  for (const auto& r : results) EXPECT_FALSE(r.completed);
}

// ---------------------------------------------------------------------------
// All four families through the generation-aware conformance harness
// ---------------------------------------------------------------------------

TEST(GenerationalConformance, ThreeGenerationsAllFamiliesMatchOracles) {
  sim::ConformanceCase c;
  c.seed = 321;
  c.n = 80;
  c.order = 6;
  c.capacity = 128;
  c.generations = 3;
  c.updates_per_gen = 10;
  c.gen_cycles = 2;
  c.theta = 0.25;
  c.error_mode = broadcast::ErrorMode::kPerReadLoss;
  c.workers = 2;
  const auto r = sim::RunConformanceCase(c);
  EXPECT_TRUE(r.divergences.empty());
  EXPECT_EQ(r.incomplete_queries.size(), 0u);
  EXPECT_GT(r.restarted, 0u);  // the schedule actually straddled queries
}

TEST(GenerationalConformance, DuplicateHeavyDatasetsMatchOracles) {
  sim::ConformanceCase c;
  c.seed = 77;
  c.n = 60;
  c.order = 5;
  c.capacity = 64;
  c.duplicates = true;  // coincident points: identical Hilbert keys
  c.generations = 3;
  c.updates_per_gen = 6;
  c.theta = 0.3;
  const auto r = sim::RunConformanceCase(c);
  EXPECT_TRUE(r.divergences.empty());
  EXPECT_EQ(r.incomplete_queries.size(), 0u);
}

}  // namespace
}  // namespace dsi
