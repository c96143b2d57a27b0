/// The event-driven core's contract (sim/scheduler.hpp): the calendar
/// queue wakes clients in deterministic (wake packet, client index) order,
/// the slot pool recycles per-client storage across churn, and — the
/// load-bearing invariant — a population run reproduces every client's
/// alone run (sim::RunEachClientAlone) BIT-IDENTICALLY: every per-step
/// result, for every family, lossy + coded + generational + churned, at
/// any worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <vector>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "sim/conformance.hpp"
#include "sim/runner.hpp"
#include "sim/scheduler.hpp"
#include "sim/trajectory.hpp"
#include "sim/workload.hpp"
#include "test_families.hpp"

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
// Population vs. alone, bit for bit
// ---------------------------------------------------------------------------

class PopulationParity : public ::testing::Test {
 protected:
  PopulationParity()
      : universe_(datasets::UnitUniverse()),
        objects_(datasets::MakeUniform(220, universe_, 33)),
        fam_(objects_, /*m=*/2, /*capacity=*/64, /*order=*/7) {}

  sim::TrajectoryWorkload MakeWorkload(size_t clients, size_t steps,
                                       uint64_t seed) const {
    datasets::TrajectoryParams params;
    params.speed = 0.08;
    auto wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kWindow, clients,
                                          steps, params, universe_, seed);
    wl.window_side = 0.15;
    return wl;
  }

  static void ExpectSameMetrics(const sim::TrajectoryMetrics& a,
                                const sim::TrajectoryMetrics& b,
                                const std::string& label) {
    EXPECT_DOUBLE_EQ(a.latency_bytes, b.latency_bytes) << label;
    EXPECT_DOUBLE_EQ(a.tuning_bytes, b.tuning_bytes) << label;
    EXPECT_DOUBLE_EQ(a.cold_latency_bytes, b.cold_latency_bytes) << label;
    EXPECT_DOUBLE_EQ(a.cold_tuning_bytes, b.cold_tuning_bytes) << label;
    EXPECT_EQ(a.clients, b.clients) << label;
    EXPECT_EQ(a.steps, b.steps) << label;
    EXPECT_EQ(a.incomplete, b.incomplete) << label;
    EXPECT_EQ(a.restarted, b.restarted) << label;
    EXPECT_EQ(a.cold_incomplete, b.cold_incomplete) << label;
    EXPECT_EQ(a.repaired, b.repaired) << label;
    EXPECT_EQ(a.cold_repaired, b.cold_repaired) << label;
    EXPECT_EQ(a.departed, b.departed) << label;
    EXPECT_EQ(a.skipped_steps, b.skipped_steps) << label;
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
      const std::vector<std::vector<sim::TrajectoryStep>>& a,
      const std::vector<std::vector<sim::TrajectoryStep>>& b,
      const std::string& label) {
    ASSERT_EQ(a.size(), b.size()) << label;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_EQ(a[c].size(), b[c].size()) << label;
      for (size_t s = 0; s < a[c].size(); ++s) {
        const std::string at =
            label + " client " + std::to_string(c) + " step " +
            std::to_string(s);
        EXPECT_EQ(a[c][s].ran, b[c][s].ran) << at;
        ExpectSameResult(a[c][s].warm, b[c][s].warm, at + " warm");
        ExpectSameResult(a[c][s].cold, b[c][s].cold, at + " cold");
      }
    }
  }

  /// Runs \p wl as one population at 1 and 3 workers under \p base and
  /// asserts that every per-step result equals the client's alone run and
  /// that both worker counts agree on the metrics. Returns those metrics.
  sim::TrajectoryMetrics ExpectPopulationMatchesAlone(
      const sim::GenerationalIndex& gi, const sim::TrajectoryWorkload& wl,
      sim::TrajectoryOptions base, const std::string& label) {
    const auto alone = sim::RunEachClientAlone(gi, wl, base);
    sim::TrajectoryMetrics serial;
    for (const size_t workers : {1u, 3u}) {
      std::vector<std::vector<sim::TrajectoryStep>> steps;
      base.workers = workers;
      base.results = &steps;
      const auto m = sim::RunTrajectories(gi, wl, base);
      const std::string at = label + " workers=" + std::to_string(workers);
      if (workers == 1) {
        serial = m;
      } else {
        ExpectSameMetrics(serial, m, at);
      }
      ExpectSameSteps(alone, steps, at);
    }
    return serial;
  }

  /// Static-broadcast form: one generation airing one cycle, exactly what
  /// the static RunTrajectories runs.
  sim::TrajectoryMetrics ExpectPopulationMatchesAlone(
      const air::AirIndexHandle& handle, const sim::TrajectoryWorkload& wl,
      const sim::TrajectoryOptions& base, const std::string& label) {
    return ExpectPopulationMatchesAlone(sim::GenerationalIndex{{&handle}, {1}},
                                        wl, base, label);
  }

  common::Rect universe_;
  std::vector<datasets::SpatialObject> objects_;
  test::Families fam_;
  const air::AirIndexHandle& dsi_air_ = fam_.handle(air::Family::kDsi);
};

TEST_F(PopulationParity, StaticBroadcastAllFamiliesCleanAndLossy) {
  auto wl = MakeWorkload(4, 5, 61);
  for (const air::AirIndexHandle* handle : fam_.handles()) {
    wl.pace_packets = handle->program().cycle_packets() / 2;
    for (const double theta : {0.0, 0.4}) {
      wl.theta = theta;
      wl.error_mode = broadcast::ErrorMode::kPerReadLoss;
      sim::TrajectoryOptions opt;
      opt.seed = 301;
      ExpectPopulationMatchesAlone(*handle, wl, opt,
                                   std::string(handle->family()) +
                                       " theta=" + std::to_string(theta));
    }
  }
}

TEST_F(PopulationParity, KnnAndChannelDeterministicLoss) {
  datasets::TrajectoryParams params;
  params.model = datasets::TrajectoryModel::kGaussianStep;
  auto wl = sim::MakeTrajectoryWorkload(sim::QueryKind::kKnn, 3, 4, params,
                                        universe_, 67);
  wl.k = 6;
  wl.theta = 0.5;
  for (const auto mode : {broadcast::ErrorMode::kPerBucketLoss,
                          broadcast::ErrorMode::kBurstLoss}) {
    wl.error_mode = mode;
    for (const air::AirIndexHandle* handle : fam_.handles()) {
      wl.pace_packets = handle->program().cycle_packets() / 3;
      sim::TrajectoryOptions opt;
      opt.seed = 307;
      ExpectPopulationMatchesAlone(
          *handle, wl, opt,
          std::string(handle->family()) + " knn mode " +
              std::to_string(static_cast<int>(mode)));
    }
  }
}

TEST_F(PopulationParity, CodedBroadcastParity) {
  auto wl = MakeWorkload(3, 4, 71);
  wl.theta = 0.5;
  wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
  for (const air::AirIndexHandle* handle : fam_.handles()) {
    wl.pace_packets = handle->program().cycle_packets() / 2;
    sim::TrajectoryOptions opt;
    opt.seed = 311;
    opt.coding = broadcast::CodingConfig{2, 2};
    ExpectPopulationMatchesAlone(*handle, wl, opt,
                                 std::string(handle->family()) + " coded");
  }
}

TEST_F(PopulationParity, GenerationalBroadcastWithRepublications) {
  // Three generations via the DSI incremental republication path; pace
  // close to a whole cycle so tours regularly doze across republication
  // instants and restart mid-step.
  const auto ops1 = datasets::MakeUpdateStream(objects_, 12, universe_, 401);
  const auto objects1 = datasets::ApplyUpdates(objects_, ops1);
  const auto ops2 = datasets::MakeUpdateStream(objects1, 12, universe_, 402);
  const auto objects2 = datasets::ApplyUpdates(objects1, ops2);
  const air::FamilyBroadcast dsi(
      air::Family::kDsi, {{objects_, objects1, objects2}, {ops1, ops2}},
      fam_.mapper, 64, core::DsiConfig{.num_segments = 2});
  const sim::GenerationalIndex gi{dsi.handles(), {1, 1, 2}};

  auto wl = MakeWorkload(4, 6, 73);
  wl.pace_packets = dsi.handle(0).program().cycle_packets() - 7;
  for (const double theta : {0.0, 0.3}) {
    wl.theta = theta;
    sim::TrajectoryOptions opt;
    opt.seed = 313;
    const auto m = ExpectPopulationMatchesAlone(gi, wl, opt, "generational");
    // The axis must actually exercise cross-generation execution.
    if (theta == 0.0) EXPECT_GT(m.restarted + m.steps, 0u);
  }
}

TEST_F(PopulationParity, ChurnedPopulationParityAndExactAccounting) {
  auto wl = MakeWorkload(6, 5, 79);
  for (const air::Family family : {air::Family::kDsi, air::Family::kRtree}) {
    const air::AirIndexHandle* handle = &fam_.handle(family);
    const uint64_t cycle = handle->program().cycle_packets();
    wl.pace_packets = cycle / 2;
    for (const double rate : {0.5, 1.0}) {
      wl.churn = datasets::MakeChurnStream(wl.clients.size(), 3 * cycle,
                                           rate, 83 + handle->family()[0]);
      sim::TrajectoryOptions opt;
      opt.seed = 317;
      const std::string label =
          std::string(handle->family()) + " churn " + std::to_string(rate);
      ExpectPopulationMatchesAlone(*handle, wl, opt, label);

      // Exact churn accounting: every step either
      // ran or was skipped by a departure, and ran steps form a prefix of
      // each tour (clients leave, they never skip a step and come back).
      std::vector<std::vector<sim::TrajectoryStep>> steps;
      sim::TrajectoryOptions audit = opt;
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

TEST_F(PopulationParity, SchedulerWorkerCountBitIdentity) {
  // Mirrors runner_parallel_test: shard boundaries fall differently for
  // 2/3/5/10 workers; the scheduler must reproduce its own serial
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
