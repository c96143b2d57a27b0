/// The event-driven core's contract (sim/scheduler.hpp): the calendar
/// queue wakes clients in deterministic (wake packet, client index) order,
/// the slot pool recycles per-client storage across churn, and — the
/// load-bearing invariant — the scheduler engine reproduces the
/// loop-driven oracle BIT-IDENTICALLY: every metric and every per-step
/// result, for every family, lossy + coded + generational + churned, at
/// any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "air/dsi_handle.hpp"
#include "air/exp_handle.hpp"
#include "air/hci_handle.hpp"
#include "air/rtree_handle.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/runner.hpp"
#include "sim/scheduler.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"

namespace dsi {
namespace {

// ---------------------------------------------------------------------------
// Calendar-queue primitives
// ---------------------------------------------------------------------------

TEST(CalendarQueue, PopsInWakeOrderWithClientIndexTieBreak) {
  // Shuffled pushes, several simultaneous wakes: pops must come back in
  // ascending (wake, client) order regardless of push order.
  std::vector<sim::CalendarQueue::Event> events;
  for (uint32_t c = 0; c < 40; ++c) {
    events.push_back({/*wake=*/17 + (c % 5) * 100, /*client=*/c});
  }
  std::mt19937 shuffle(7);
  std::shuffle(events.begin(), events.end(), shuffle);

  sim::CalendarQueue q(/*bucket_packets=*/64);
  for (const auto& e : events) q.Push(e.wake_packet, e.client);
  ASSERT_EQ(q.size(), events.size());

  std::sort(events.begin(), events.end(), [](const auto& a, const auto& b) {
    return a.wake_packet != b.wake_packet ? a.wake_packet < b.wake_packet
                                          : a.client < b.client;
  });
  for (const auto& expected : events) {
    const auto got = q.Pop();
    EXPECT_EQ(got.wake_packet, expected.wake_packet);
    EXPECT_EQ(got.client, expected.client);
  }
  EXPECT_TRUE(q.empty());
}

TEST(CalendarQueue, SparseWakesAcrossManyLapsOfTheRing) {
  // Events many ring-years apart: the lap jump must find them without
  // spinning, and the order must survive the bucket aliasing (several
  // events land in the same ring bucket from different laps).
  sim::CalendarQueue q(/*bucket_packets=*/4, /*num_buckets=*/8);
  const uint64_t wakes[] = {5, 3'000, 3'001, 90'000, 2'000'000, 2'000'032};
  for (uint32_t i = 0; i < 6; ++i) q.Push(wakes[5 - i], 5 - i);
  for (uint32_t i = 0; i < 6; ++i) {
    const auto e = q.Pop();
    EXPECT_EQ(e.wake_packet, wakes[i]);
    EXPECT_EQ(e.client, i);
  }
}

TEST(CalendarQueue, PushDuringDrainMergesIntoTheCurrentDay) {
  // A client popped early in a day may schedule its next wake still within
  // the same day; that wake must slot into the draining order, not wait a
  // lap.
  sim::CalendarQueue q(/*bucket_packets=*/100);
  q.Push(10, 0);
  q.Push(20, 1);
  q.Push(90, 2);
  EXPECT_EQ(q.Pop().client, 0u);
  q.Push(50, 0);  // same calendar day, between the two pending events
  EXPECT_EQ(q.Pop().client, 1u);
  const auto e = q.Pop();
  EXPECT_EQ(e.wake_packet, 50u);
  EXPECT_EQ(e.client, 0u);
  EXPECT_EQ(q.Pop().client, 2u);
  EXPECT_TRUE(q.empty());
}

TEST(SlotPool, ReusesReleasedSlotsAndTracksPeak) {
  sim::SlotPool pool;
  const uint32_t a = pool.Acquire();
  const uint32_t b = pool.Acquire();
  const uint32_t c = pool.Acquire();
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(c, 2u);
  EXPECT_EQ(pool.live(), 3u);

  // LIFO recycle: a departure's slot goes to the very next arrival.
  pool.Release(b);
  EXPECT_EQ(pool.Acquire(), b);
  pool.Release(c);
  pool.Release(a);
  EXPECT_EQ(pool.Acquire(), a);
  EXPECT_EQ(pool.Acquire(), c);

  // Capacity is the peak concurrent population, not the arrival count: six
  // acquires through three slots never grew past three.
  EXPECT_EQ(pool.capacity(), 3u);
  EXPECT_EQ(pool.live(), 3u);
}

// ---------------------------------------------------------------------------
// Engine equivalence: scheduler vs. loop, bit for bit
// ---------------------------------------------------------------------------

class EngineEquivalence : public ::testing::Test {
 protected:
  EngineEquivalence()
      : universe_(datasets::UnitUniverse()),
        mapper_(universe_, 7),
        objects_(datasets::MakeUniform(220, universe_, 33)),
        dsi_(objects_, mapper_, 64, MakeDsiConfig()),
        rtree_(objects_, 64),
        hci_(objects_, mapper_, 64),
        dsi_air_(dsi_),
        rtree_air_(rtree_),
        hci_air_(hci_),
        exp_air_(objects_, mapper_, 64) {}

  static core::DsiConfig MakeDsiConfig() {
    core::DsiConfig c;
    c.num_segments = 2;
    return c;
  }

  std::vector<const air::AirIndexHandle*> Handles() const {
    return {&dsi_air_, &rtree_air_, &hci_air_, &exp_air_};
  }

  sim::TrajectoryWorkload MakeWorkload(size_t clients, size_t steps,
                                       uint64_t seed) const {
    datasets::TrajectoryParams params;
    params.speed = 0.08;
    auto wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kWindow, clients,
                                          steps, params, universe_, seed);
    wl.window_side = 0.15;
    return wl;
  }

  static void ExpectSameMetrics(const sim::TrajectoryMetrics& loop,
                                const sim::TrajectoryMetrics& sched,
                                const std::string& label) {
    EXPECT_DOUBLE_EQ(loop.latency_bytes, sched.latency_bytes) << label;
    EXPECT_DOUBLE_EQ(loop.tuning_bytes, sched.tuning_bytes) << label;
    EXPECT_DOUBLE_EQ(loop.cold_latency_bytes, sched.cold_latency_bytes)
        << label;
    EXPECT_DOUBLE_EQ(loop.cold_tuning_bytes, sched.cold_tuning_bytes)
        << label;
    EXPECT_EQ(loop.clients, sched.clients) << label;
    EXPECT_EQ(loop.steps, sched.steps) << label;
    EXPECT_EQ(loop.incomplete, sched.incomplete) << label;
    EXPECT_EQ(loop.restarted, sched.restarted) << label;
    EXPECT_EQ(loop.cold_incomplete, sched.cold_incomplete) << label;
    EXPECT_EQ(loop.repaired, sched.repaired) << label;
    EXPECT_EQ(loop.cold_repaired, sched.cold_repaired) << label;
    EXPECT_EQ(loop.departed, sched.departed) << label;
    EXPECT_EQ(loop.skipped_steps, sched.skipped_steps) << label;
  }

  static void ExpectSameResult(const sim::QueryResult& a,
                               const sim::QueryResult& b,
                               const std::string& label) {
    EXPECT_EQ(a.ids, b.ids) << label;
    EXPECT_EQ(a.knn_distances, b.knn_distances) << label;
    EXPECT_EQ(a.completed, b.completed) << label;
    EXPECT_EQ(a.generation, b.generation) << label;
    EXPECT_EQ(a.restarts, b.restarts) << label;
    EXPECT_EQ(a.latency_bytes, b.latency_bytes) << label;
    EXPECT_EQ(a.tuning_bytes, b.tuning_bytes) << label;
    EXPECT_EQ(a.repaired, b.repaired) << label;
  }

  static void ExpectSameSteps(
      const std::vector<std::vector<sim::TrajectoryStep>>& loop,
      const std::vector<std::vector<sim::TrajectoryStep>>& sched,
      const std::string& label) {
    ASSERT_EQ(loop.size(), sched.size()) << label;
    for (size_t c = 0; c < loop.size(); ++c) {
      ASSERT_EQ(loop[c].size(), sched[c].size()) << label;
      for (size_t s = 0; s < loop[c].size(); ++s) {
        const std::string at =
            label + " client " + std::to_string(c) + " step " +
            std::to_string(s);
        EXPECT_EQ(loop[c][s].ran, sched[c][s].ran) << at;
        ExpectSameResult(loop[c][s].warm, sched[c][s].warm, at + " warm");
        ExpectSameResult(loop[c][s].cold, sched[c][s].cold, at + " cold");
      }
    }
  }

  /// Runs \p wl with both engines under \p base options and asserts
  /// bit-identity of metrics and every per-step result.
  void ExpectEnginesAgree(const air::AirIndexHandle& handle,
                          const sim::TrajectoryWorkload& wl,
                          sim::TrajectoryOptions base,
                          const std::string& label) {
    std::vector<std::vector<sim::TrajectoryStep>> loop_steps;
    std::vector<std::vector<sim::TrajectoryStep>> sched_steps;
    base.engine = sim::TrajectoryEngine::kLoop;
    base.results = &loop_steps;
    const auto loop = sim::RunTrajectories(handle, wl, base);
    base.engine = sim::TrajectoryEngine::kScheduler;
    base.results = &sched_steps;
    const auto sched = sim::RunTrajectories(handle, wl, base);
    ExpectSameMetrics(loop, sched, label);
    ExpectSameSteps(loop_steps, sched_steps, label);
  }

  common::Rect universe_;
  hilbert::SpaceMapper mapper_;
  std::vector<datasets::SpatialObject> objects_;
  core::DsiIndex dsi_;
  rtree::RtreeIndex rtree_;
  hci::HciIndex hci_;
  air::DsiHandle dsi_air_;
  air::RtreeHandle rtree_air_;
  air::HciHandle hci_air_;
  air::ExpHandle exp_air_;
};

TEST_F(EngineEquivalence, StaticBroadcastAllFamiliesCleanAndLossy) {
  auto wl = MakeWorkload(4, 5, 61);
  for (const air::AirIndexHandle* handle : Handles()) {
    wl.pace_packets = handle->program().cycle_packets() / 2;
    for (const double theta : {0.0, 0.4}) {
      wl.theta = theta;
      wl.error_mode = broadcast::ErrorMode::kPerReadLoss;
      sim::TrajectoryOptions opt;
      opt.seed = 301;
      ExpectEnginesAgree(*handle, wl, opt,
                         std::string(handle->family()) + " theta=" +
                             std::to_string(theta));
    }
  }
}

TEST_F(EngineEquivalence, KnnAndChannelDeterministicLoss) {
  datasets::TrajectoryParams params;
  params.model = datasets::TrajectoryModel::kGaussianStep;
  auto wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kKnn, 3, 4, params,
                                        universe_, 67);
  wl.k = 6;
  wl.theta = 0.5;
  for (const auto mode : {broadcast::ErrorMode::kPerBucketLoss,
                          broadcast::ErrorMode::kBurstLoss}) {
    wl.error_mode = mode;
    for (const air::AirIndexHandle* handle : Handles()) {
      wl.pace_packets = handle->program().cycle_packets() / 3;
      sim::TrajectoryOptions opt;
      opt.seed = 307;
      ExpectEnginesAgree(*handle, wl, opt,
                         std::string(handle->family()) + " knn mode " +
                             std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST_F(EngineEquivalence, CodedBroadcastParity) {
  auto wl = MakeWorkload(3, 4, 71);
  wl.theta = 0.5;
  wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
  for (const air::AirIndexHandle* handle : Handles()) {
    wl.pace_packets = handle->program().cycle_packets() / 2;
    sim::TrajectoryOptions opt;
    opt.seed = 311;
    opt.coding = broadcast::CodingConfig{2, 2};
    ExpectEnginesAgree(*handle, wl, opt,
                       std::string(handle->family()) + " coded");
  }
}

TEST_F(EngineEquivalence, GenerationalBroadcastWithRepublications) {
  // Three generations via the DSI incremental republication path; pace
  // close to a whole cycle so tours regularly doze across republication
  // instants and restart mid-step.
  const auto ops1 = datasets::MakeUpdateStream(objects_, 12, universe_, 401);
  const auto objects1 = datasets::ApplyUpdates(objects_, ops1);
  const auto ops2 = datasets::MakeUpdateStream(objects1, 12, universe_, 402);
  const auto objects2 = datasets::ApplyUpdates(objects1, ops2);
  const core::DsiIndex gen1(core::DsiIndex::Republish(dsi_, ops1));
  const core::DsiIndex gen2(core::DsiIndex::Republish(gen1, ops2));
  const air::DsiHandle h1(gen1);
  const air::DsiHandle h2(gen2);
  sim::GenerationalIndex gi;
  gi.generations = {&dsi_air_, &h1, &h2};
  gi.cycles = {1, 1, 2};

  auto wl = MakeWorkload(4, 6, 73);
  wl.pace_packets = dsi_air_.program().cycle_packets() - 7;
  for (const double theta : {0.0, 0.3}) {
    wl.theta = theta;
    std::vector<std::vector<sim::TrajectoryStep>> loop_steps;
    std::vector<std::vector<sim::TrajectoryStep>> sched_steps;
    sim::TrajectoryOptions opt;
    opt.seed = 313;
    opt.engine = sim::TrajectoryEngine::kLoop;
    opt.results = &loop_steps;
    const auto loop = sim::RunTrajectories(gi, wl, opt);
    opt.engine = sim::TrajectoryEngine::kScheduler;
    opt.results = &sched_steps;
    const auto sched = sim::RunTrajectories(gi, wl, opt);
    ExpectSameMetrics(loop, sched, "generational");
    ExpectSameSteps(loop_steps, sched_steps, "generational");
    // The axis must actually exercise cross-generation execution.
    if (theta == 0.0) EXPECT_GT(loop.restarted + loop.steps, 0u);
  }
}

TEST_F(EngineEquivalence, ChurnedPopulationParityAndExactAccounting) {
  auto wl = MakeWorkload(6, 5, 79);
  for (const air::AirIndexHandle* handle : {Handles()[0], Handles()[1]}) {
    const uint64_t cycle = handle->program().cycle_packets();
    wl.pace_packets = cycle / 2;
    for (const double rate : {0.5, 1.0}) {
      wl.churn = datasets::MakeChurnStream(wl.clients.size(), 3 * cycle,
                                           rate, 83 + handle->family()[0]);
      sim::TrajectoryOptions opt;
      opt.seed = 317;
      const std::string label =
          std::string(handle->family()) + " churn " + std::to_string(rate);
      ExpectEnginesAgree(*handle, wl, opt, label);

      // Exact churn accounting, independent of engine: every step either
      // ran or was skipped by a departure, and ran steps form a prefix of
      // each tour (clients leave, they never skip a step and come back).
      std::vector<std::vector<sim::TrajectoryStep>> steps;
      sim::TrajectoryOptions audit = opt;
      audit.engine = sim::TrajectoryEngine::kScheduler;
      audit.results = &steps;
      const auto m = sim::RunTrajectories(*handle, wl, audit);
      EXPECT_EQ(m.steps + m.skipped_steps, wl.num_steps()) << label;
      size_t ran = 0;
      for (const auto& tour : steps) {
        bool alive = true;
        for (const auto& step : tour) {
          if (step.ran) {
            EXPECT_TRUE(alive) << label << ": ran step after a departure";
            ++ran;
          } else {
            alive = false;
          }
        }
      }
      EXPECT_EQ(ran, m.steps) << label;
    }
    wl.churn.clear();
  }
}

TEST_F(EngineEquivalence, SchedulerWorkerCountBitIdentity) {
  // Mirrors runner_parallel_test: shard boundaries fall differently for
  // 2/3/5/10 workers; the scheduler engine must reproduce its own serial
  // run bit-identically (clients are sharded, randomness is index-forked).
  auto wl = MakeWorkload(10, 4, 89);
  wl.pace_packets = dsi_air_.program().cycle_packets() / 2;
  wl.theta = 0.3;
  const uint64_t cycle = dsi_air_.program().cycle_packets();
  wl.churn = datasets::MakeChurnStream(wl.clients.size(), 3 * cycle, 0.4, 97);

  std::vector<std::vector<sim::TrajectoryStep>> base_steps;
  sim::TrajectoryOptions base;
  base.seed = 331;
  base.workers = 1;
  base.engine = sim::TrajectoryEngine::kScheduler;
  base.results = &base_steps;
  const auto baseline = sim::RunTrajectories(dsi_air_, wl, base);

  for (const size_t workers : {2u, 3u, 5u, 10u}) {
    std::vector<std::vector<sim::TrajectoryStep>> steps;
    sim::TrajectoryOptions opt = base;
    opt.workers = workers;
    opt.results = &steps;
    const auto sharded = sim::RunTrajectories(dsi_air_, wl, opt);
    ExpectSameMetrics(baseline, sharded,
                      "workers=" + std::to_string(workers));
    ExpectSameSteps(base_steps, steps, "workers=" + std::to_string(workers));
  }
}

}  // namespace
}  // namespace dsi
