/// Continuous moving-client engine tests (sim::RunTrajectories): trajectory
/// generators, warm/cold result parity on clean and lossy channels, reuse
/// savings of persistent clients, worker-count bit-identity with whole-
/// client sharding, and mid-tour republication (stale-knowledge
/// invalidation across broadcast generations).

#include "sim/trajectory.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "air/family.hpp"
#include "datasets/datasets.hpp"
#include "hilbert/space_mapper.hpp"
#include "test_families.hpp"

namespace dsi {
namespace {

using test::Families;

constexpr size_t kCapacity = 64;

sim::TrajectoryWorkload MakeWorkload(sim::QueryKind kind, size_t clients,
                                     size_t steps, uint64_t seed) {
  datasets::TrajectoryParams params;
  params.model = seed % 2 == 0 ? datasets::TrajectoryModel::kRandomWaypoint
                               : datasets::TrajectoryModel::kGaussianStep;
  sim::TrajectoryWorkload wl = sim::MakeTrajectoryWorkload(
      kind, clients, steps, params, datasets::UnitUniverse(), seed);
  wl.window_side = 0.15;
  wl.k = 5;
  return wl;
}

// ---------------------------------------------------------------------------
// Trajectory generators
// ---------------------------------------------------------------------------

TEST(TrajectoryGenerators, DeterministicAndInsideUniverse) {
  const common::Rect u = datasets::UnitUniverse();
  for (const auto model : {datasets::TrajectoryModel::kRandomWaypoint,
                           datasets::TrajectoryModel::kGaussianStep}) {
    datasets::TrajectoryParams p;
    p.model = model;
    const auto a = datasets::MakeTrajectory(64, u, p, 99);
    const auto b = datasets::MakeTrajectory(64, u, p, 99);
    const auto c = datasets::MakeTrajectory(64, u, p, 100);
    ASSERT_EQ(a.size(), 64u);
    for (const common::Point& pt : a) {
      EXPECT_TRUE(u.Contains(pt)) << pt.x << "," << pt.y;
    }
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].x, b[i].x);
      EXPECT_EQ(a[i].y, b[i].y);
    }
    // A different seed produces a different path.
    bool any_diff = false;
    for (size_t i = 0; i < a.size(); ++i) {
      any_diff = any_diff || a[i].x != c[i].x || a[i].y != c[i].y;
    }
    EXPECT_TRUE(any_diff);
  }
}

TEST(TrajectoryGenerators, WaypointStepsBoundedBySpeed) {
  const common::Rect u = datasets::UnitUniverse();
  datasets::TrajectoryParams p;
  p.model = datasets::TrajectoryModel::kRandomWaypoint;
  p.speed = 0.03;
  const auto path = datasets::MakeTrajectory(200, u, p, 5);
  for (size_t i = 1; i < path.size(); ++i) {
    EXPECT_LE(common::Distance(path[i - 1], path[i]), p.speed + 1e-12);
  }
}

// ---------------------------------------------------------------------------
// Warm/cold parity and reuse savings (static broadcast)
// ---------------------------------------------------------------------------

class TrajectoryParity : public ::testing::TestWithParam<sim::QueryKind> {};

TEST_P(TrajectoryParity, WarmMatchesColdOnCleanChannel) {
  const auto objects =
      datasets::MakeUniform(250, datasets::UnitUniverse(), 31);
  const Families fams(objects);
  sim::TrajectoryWorkload wl = MakeWorkload(GetParam(), 3, 10, 7);
  for (const air::AirIndexHandle* h : fams.handles()) {
    wl.pace_packets = h->program().cycle_packets() / 3;
    std::vector<std::vector<sim::TrajectoryStep>> results;
    sim::TrajectoryOptions opt;
    opt.seed = 11;
    opt.results = &results;
    const sim::TrajectoryMetrics m = sim::RunTrajectories(*h, wl, opt);
    ASSERT_EQ(m.steps, wl.num_steps()) << h->family();
    EXPECT_EQ(m.incomplete, 0u) << h->family();
    EXPECT_EQ(m.cold_incomplete, 0u) << h->family();
    for (size_t c = 0; c < results.size(); ++c) {
      for (size_t s = 0; s < results[c].size(); ++s) {
        const sim::TrajectoryStep& step = results[c][s];
        EXPECT_EQ(step.warm.ids, step.cold.ids)
            << h->family() << " client " << c << " step " << s;
        EXPECT_EQ(step.warm.knn_distances, step.cold.knn_distances)
            << h->family() << " client " << c << " step " << s;
        // Per-step byte sanity on both paths.
        EXPECT_LE(step.warm.tuning_bytes, step.warm.latency_bytes);
        EXPECT_LE(step.cold.tuning_bytes, step.cold.latency_bytes);
      }
    }
    // Reuse must help, never hurt, on a clean channel: what the warm
    // client already knows, it does not pay for again.
    EXPECT_LE(m.tuning_bytes, m.cold_tuning_bytes) << h->family();
    EXPECT_GT(m.TuningSavingsPct(), 0.0) << h->family();
  }
}

TEST_P(TrajectoryParity, WarmMatchesColdUnderBucketLoss) {
  const auto objects =
      datasets::MakeUniform(180, datasets::UnitUniverse(), 53);
  const Families fams(objects);
  sim::TrajectoryWorkload wl = MakeWorkload(GetParam(), 2, 8, 13);
  wl.theta = 0.4;
  wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
  for (const air::AirIndexHandle* h : fams.handles()) {
    wl.pace_packets = h->program().cycle_packets() / 2;
    std::vector<std::vector<sim::TrajectoryStep>> results;
    sim::TrajectoryOptions opt;
    opt.seed = 17;
    opt.results = &results;
    const sim::TrajectoryMetrics m = sim::RunTrajectories(*h, wl, opt);
    EXPECT_EQ(m.incomplete, 0u) << h->family();  // theta well below 0.7
    for (const auto& client_steps : results) {
      for (const sim::TrajectoryStep& step : client_steps) {
        if (!step.warm.completed || !step.cold.completed) continue;
        EXPECT_EQ(step.warm.ids, step.cold.ids) << h->family();
        EXPECT_EQ(step.warm.knn_distances, step.cold.knn_distances)
            << h->family();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, TrajectoryParity,
                         ::testing::Values(sim::QueryKind::kWindow,
                                           sim::QueryKind::kKnn));

// A client re-evaluating from a stationary position must answer follow-up
// steps almost for free: the first step taught it everything the query
// needs. The exponential index exercises its new chunk-table/item-key
// cache here (the only family that needed new state for continuity).
TEST(TrajectoryReuse, StationaryClientFollowUpsAreNearlyFree) {
  const auto objects =
      datasets::MakeUniform(220, datasets::UnitUniverse(), 71);
  const Families fams(objects);
  sim::TrajectoryWorkload wl;
  wl.kind = sim::QueryKind::kWindow;
  wl.window_side = 0.2;
  wl.clients = {std::vector<common::Point>(6, common::Point{0.42, 0.57})};
  for (const air::AirIndexHandle* h : fams.handles()) {
    std::vector<std::vector<sim::TrajectoryStep>> results;
    sim::TrajectoryOptions opt;
    opt.seed = 3;
    opt.results = &results;
    const sim::TrajectoryMetrics m = sim::RunTrajectories(*h, wl, opt);
    ASSERT_EQ(m.steps, 6u);
    uint64_t followup_tuning = 0;
    for (size_t s = 1; s < results[0].size(); ++s) {
      followup_tuning += results[0][s].warm.tuning_bytes;
      EXPECT_EQ(results[0][s].warm.ids, results[0][0].warm.ids);
    }
    // All five follow-ups together must cost less tuning than the single
    // cold first step (they re-listen to nothing but navigation).
    EXPECT_LT(followup_tuning, results[0][0].warm.tuning_bytes)
        << h->family();
  }
}

// ---------------------------------------------------------------------------
// Determinism: whole-client sharding is bit-identical for any worker count
// ---------------------------------------------------------------------------

TEST(TrajectoryDeterminism, WorkerCountDoesNotChangeAnything) {
  const auto objects =
      datasets::MakeUniform(200, datasets::UnitUniverse(), 41);
  const Families fams(objects);
  sim::TrajectoryWorkload wl = MakeWorkload(sim::QueryKind::kKnn, 5, 6, 23);
  wl.theta = 0.3;
  wl.error_mode = broadcast::ErrorMode::kPerBucketLoss;
  for (const air::AirIndexHandle* h : fams.handles()) {
    wl.pace_packets = h->program().cycle_packets() / 4;
    std::vector<std::vector<sim::TrajectoryStep>> serial_results;
    sim::TrajectoryOptions serial;
    serial.seed = 77;
    serial.workers = 1;
    serial.results = &serial_results;
    const sim::TrajectoryMetrics a = sim::RunTrajectories(*h, wl, serial);
    for (const size_t workers : {2u, 3u, 5u}) {
      std::vector<std::vector<sim::TrajectoryStep>> results;
      sim::TrajectoryOptions opt;
      opt.seed = 77;
      opt.workers = workers;
      opt.results = &results;
      const sim::TrajectoryMetrics b = sim::RunTrajectories(*h, wl, opt);
      EXPECT_EQ(a.latency_bytes, b.latency_bytes) << h->family();
      EXPECT_EQ(a.tuning_bytes, b.tuning_bytes) << h->family();
      EXPECT_EQ(a.cold_latency_bytes, b.cold_latency_bytes) << h->family();
      EXPECT_EQ(a.cold_tuning_bytes, b.cold_tuning_bytes) << h->family();
      EXPECT_EQ(a.incomplete, b.incomplete);
      EXPECT_EQ(a.restarted, b.restarted);
      ASSERT_EQ(serial_results.size(), results.size());
      for (size_t c = 0; c < results.size(); ++c) {
        ASSERT_EQ(serial_results[c].size(), results[c].size());
        for (size_t s = 0; s < results[c].size(); ++s) {
          EXPECT_EQ(serial_results[c][s].warm.ids, results[c][s].warm.ids);
          EXPECT_EQ(serial_results[c][s].warm.latency_bytes,
                    results[c][s].warm.latency_bytes);
          EXPECT_EQ(serial_results[c][s].cold.ids, results[c][s].cold.ids);
          EXPECT_EQ(serial_results[c][s].cold.tuning_bytes,
                    results[c][s].cold.tuning_bytes);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Dynamic broadcasts: republication mid-tour invalidates warm knowledge
// ---------------------------------------------------------------------------

TEST(TrajectoryGenerations, MidTourRepublicationInvalidatesAndRecovers) {
  const common::Rect u = datasets::UnitUniverse();
  const hilbert::SpaceMapper mapper(u, 6);

  // Three generations with real update streams between them.
  air::Generations gens{{datasets::MakeUniform(150, u, 61)}, {}};
  for (int g = 1; g < 3; ++g) {
    gens.ops.push_back(datasets::MakeUpdateStream(
        gens.objects.back(), 20, u, 100 + static_cast<uint64_t>(g)));
    gens.objects.push_back(
        datasets::ApplyUpdates(gens.objects.back(), gens.ops.back()));
  }
  const air::FamilyBroadcast dsi(air::Family::kDsi, gens, mapper, kCapacity);
  const sim::GenerationalIndex gi{dsi.handles(), {2, 2, 2}};

  // Long tours with pacing comparable to a generation's airtime: most
  // clients cross at least one republication mid-tour.
  sim::TrajectoryWorkload wl = MakeWorkload(sim::QueryKind::kWindow, 4, 8, 9);
  wl.pace_packets = dsi.handle(0).program().cycle_packets();

  std::vector<std::vector<sim::TrajectoryStep>> results;
  sim::TrajectoryOptions opt;
  opt.seed = 19;
  opt.results = &results;
  const sim::TrajectoryMetrics m = sim::RunTrajectories(gi, wl, opt);
  EXPECT_EQ(m.incomplete, 0u);

  // Every step answers exactly for the generation it is stamped with, and
  // parity holds whenever warm and cold answered for the same generation.
  bool saw_later_generation = false;
  bool saw_parity_pair = false;
  for (size_t c = 0; c < results.size(); ++c) {
    for (size_t s = 0; s < results[c].size(); ++s) {
      const sim::TrajectoryStep& step = results[c][s];
      ASSERT_LT(step.warm.generation, gens.objects.size());
      saw_later_generation =
          saw_later_generation || step.warm.generation > 0;
      std::vector<uint32_t> oracle;
      const common::Rect w = wl.WindowAt(c, s);
      for (const auto& o : gens.objects[step.warm.generation]) {
        if (w.Contains(o.location)) oracle.push_back(o.id);
      }
      std::sort(oracle.begin(), oracle.end());
      EXPECT_EQ(step.warm.ids, oracle) << "client " << c << " step " << s;
      if (step.warm.completed && step.cold.completed &&
          step.warm.generation == step.cold.generation) {
        saw_parity_pair = true;
        EXPECT_EQ(step.warm.ids, step.cold.ids);
      }
    }
  }
  EXPECT_TRUE(saw_later_generation);  // the schedule was actually crossed
  EXPECT_TRUE(saw_parity_pair);
}

}  // namespace
}  // namespace dsi
